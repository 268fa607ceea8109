"""Arrangement geometry and lattice machinery against brute-force oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from arrfree.arrangement import (
    Arrangement,
    Flat,
    FormatError,
    Hyperplane,
    NonSplitting,
    NotAFlat,
    NotMember,
    ZeroDimensional,
    _P,
    _in_span,
    _mod_root,
    _rref,
    lattice_isomorphic,
)
from arrfree.cyclotomic import Cyc, cyclotomic_polynomial, root_of_unity


def boolean_arrangement(dim: int) -> Arrangement:
    covs = []
    for i in range(dim):
        v = [0] * dim
        v[i] = 1
        covs.append(v)
    return Arrangement(dim, covs)


def braid_arrangement(dim: int) -> Arrangement:
    covs = []
    for i, j in combinations(range(dim), 2):
        v = [0] * dim
        v[i] = 1
        v[j] = -1
        covs.append(v)
    return Arrangement(dim, covs)


# -- oracles -------------------------------------------------------------

def whitney_charpoly(arr: Arrangement) -> tuple[int, ...]:
    """Characteristic polynomial by inclusion-exclusion over all subsets."""
    covs = [list(h.coeffs) for h in arr.hyperplanes]
    coeffs = [0] * (arr.dim + 1)
    for size in range(len(covs) + 1):
        for sub in combinations(range(len(covs)), size):
            rows, _ = _rref([covs[i] for i in sub])
            coeffs[arr.dim - len(rows)] += (-1) ** size
    return tuple(coeffs)


def brute_flats(arr: Arrangement) -> dict[int, set[int]]:
    """All flats by rank, as hyperplane masks, from exhaustive subsets."""
    covs = [list(h.coeffs) for h in arr.hyperplanes]
    m = len(covs)
    out: dict[int, set[int]] = {}
    seen = set()
    for size in range(m + 1):
        for sub in combinations(range(m), size):
            rows, pivots = _rref([covs[i] for i in sub])
            key = tuple(rows)
            if key in seen:
                continue
            seen.add(key)
            mask = 0
            for j in range(m):
                if _in_span(covs[j], rows, pivots):
                    mask |= 1 << j
            out.setdefault(len(rows), set()).add(mask)
    return out


# -- construction and normalization ----------------------------------------

def test_hyperplane_normalizes_leading_coefficient():
    h = Hyperplane([2, -4, 6])
    assert h.coeffs == (Cyc(1, 1), Cyc(1, -2), Cyc(1, 3))
    i = root_of_unity(4)
    g = Hyperplane([i, 1])
    assert g.coeffs[0] == 1
    assert g.coeffs[1] == -i
    with pytest.raises(ValueError):
        Hyperplane([0, 0])


def test_arrangement_dedups_and_sorts():
    a = Arrangement(2, [[1, 1], [2, 2], [1, 0]])
    assert len(a) == 2
    b = Arrangement(2, [[1, 0], [1, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_arrangement_mixed_orders_promote():
    w = root_of_unity(3)
    a = Arrangement(2, [[1, w], [1, 0]])
    assert a.order == 3
    b = Arrangement(2, [[1, w.promote(6)], [1, 0]])
    assert a == b


def test_membership_add_delete():
    a = braid_arrangement(3)
    h = Hyperplane([1, -1, 0])
    assert h in a
    assert a.index_of(h) >= 0
    smaller = a.without_hyperplane(h)
    assert len(smaller) == 2 and h not in smaller
    back = smaller.with_hyperplane(h)
    assert back == a
    with pytest.raises(NotMember):
        smaller.without_hyperplane(h)


def test_rank_and_restriction():
    a = braid_arrangement(3)
    assert a.rank() == 2
    r = a.restricted(Hyperplane([1, -1, 0]))
    assert r.dim == 2
    assert len(r) == 1
    bool3 = boolean_arrangement(3)
    r2 = bool3.restricted(Hyperplane([1, 0, 0]))
    assert len(r2) == 2 and r2.dim == 2


def test_restriction_to_flat():
    a = braid_arrangement(4)
    flat = Flat.from_covectors([[1, -1, 0, 0], [0, 1, -1, 0]], 4)
    r = a.restricted(flat)
    assert r.dim == 2
    assert len(r) == 1  # all x_i - x_j collapse to one hyperplane on x1=x2=x3


def test_restriction_error_classes():
    a = braid_arrangement(3)
    # not an intersection of member hyperplanes
    with pytest.raises(NotAFlat):
        a.restricted(Hyperplane([1, 1, 1]))
    # the whole space is a flat of every arrangement
    top = Flat.from_covectors([], 3)
    assert a.restricted(top) is a
    # the center of the braid arrangement is rank 2, dimension 1: fine
    center = Flat.from_covectors([[1, -1, 0], [0, 1, -1]], 3)
    assert a.restricted(center).dim == 1
    # a full-rank flat of the boolean arrangement is zero dimensional
    b = boolean_arrangement(2)
    origin = Flat.from_covectors([[1, 0], [0, 1]], 2)
    with pytest.raises(ZeroDimensional):
        b.restricted(origin)


def test_localization():
    a = braid_arrangement(3)
    center = Flat.from_covectors([[1, -1, 0], [0, 1, -1]], 3)
    assert len(a.localized(center)) == 3
    line = Flat.from_covectors([[1, -1, 0]], 3)
    assert len(a.localized(line)) == 1


def test_product_charpoly_multiplies():
    a = boolean_arrangement(2)
    b = braid_arrangement(3)
    p = a.product(b)
    assert p.dim == 5
    assert len(p) == len(a) + len(b)
    ca = a.characteristic_polynomial()
    cb = b.characteristic_polynomial()
    prod = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    assert list(p.characteristic_polynomial()) == prod


# -- lattice and characteristic polynomial ---------------------------------

def test_boolean_lattice():
    a = boolean_arrangement(3)
    lat = a.intersection_lattice()
    assert [len(lv) for lv in lat.levels] == [1, 3, 3, 1]
    assert a.characteristic_polynomial() == (-1, 3, -3, 1)
    assert a.candidate_exponents() == (1, 1, 1)


def test_braid_lattice():
    a = braid_arrangement(3)
    lat = a.intersection_lattice()
    assert [len(lv) for lv in lat.levels] == [1, 3, 1]
    assert a.line_masks() == (0b111,)
    assert a.candidate_exponents() == (0, 1, 2)
    a4 = braid_arrangement(4)
    assert a4.candidate_exponents() == (0, 1, 2, 3)
    assert sorted(bin(x).count("1") for x in a4.line_masks()) == \
        [2, 2, 2, 3, 3, 3, 3]


def test_generic_planes_do_not_split():
    a = Arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert a.characteristic_polynomial() == (-3, 6, -4, 1)
    assert a.candidate_exponents() is None
    with pytest.raises(NonSplitting):
        a.exponents()


def test_full_monomial_rank2():
    w = root_of_unity(3)
    covs = [[1, 0], [0, 1]] + [[1, -(w ** k)] for k in range(3)]
    a = Arrangement(2, covs, 3)
    assert a.candidate_exponents() == (1, 4)


def test_empty_arrangement():
    a = Arrangement(4, [])
    assert a.characteristic_polynomial() == (0, 0, 0, 0, 1)
    assert a.candidate_exponents() == (0, 0, 0, 0)
    assert a.rank() == 0


def _random_arrangement(rng: random.Random) -> Arrangement:
    dim = rng.choice([2, 3])
    order = rng.choice([1, 1, 3, 4])
    m = rng.randint(1, 6)
    covs = []
    for _ in range(m):
        while True:
            v = []
            for _ in range(dim):
                kind = rng.randint(0, 3)
                if kind == 0:
                    v.append(Cyc(order, 0))
                elif kind == 1:
                    v.append(Cyc(order, rng.randint(-2, 2)))
                else:
                    v.append(root_of_unity(order, rng.randrange(order)) *
                             rng.randint(1, 2))
            if any(v):
                covs.append(v)
                break
    return Arrangement(dim, covs, order)


def test_lattice_matches_bruteforce_fuzz():
    rng = random.Random(1234)
    for _ in range(40):
        arr = _random_arrangement(rng)
        lat = arr.intersection_lattice()
        expected = brute_flats(arr)
        got = {k: set(lv) for k, lv in enumerate(lat.levels)}
        assert got == expected
        assert arr.characteristic_polynomial() == whitney_charpoly(arr)


def test_charpoly_product_fuzz():
    rng = random.Random(77)
    for _ in range(10):
        a = _random_arrangement(rng)
        b = _random_arrangement(rng)
        p = a.product(b)
        ca, cb = a.characteristic_polynomial(), b.characteristic_polynomial()
        prod = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        assert list(p.characteristic_polynomial()) == prod


# -- text form ----------------------------------------------------------------

def test_arr_text_roundtrip():
    w = root_of_unity(3)
    a = Arrangement(3, [[1, w, 0], [0, 1, -1], [1, 0, w ** 2]], 3)
    text = a.to_text()
    assert text.startswith("arr v1 dim=3 zeta=3\n")
    b = Arrangement.from_text(text)
    assert a == b
    with_comments = "# heading\n" + text.replace("\n", "  # note\n", 1)
    assert Arrangement.from_text(with_comments) == a


def test_arr_text_rejects_malformed():
    bad = [
        "",
        "arr v2 dim=3 zeta=1\n1, 0, 0\n",
        "arr v1 dim=0 zeta=1\n",
        "arr v1 dim=2 zeta=3\n1, 0, 0\n",
        "arr v1 dim=2 zeta=3\n1\n",
        "1, 0\narr v1 dim=2 zeta=1\n",
        "arr v1 dim=3 zeta=1\n0, 0, 0\n",
    ]
    for text in bad:
        with pytest.raises(FormatError):
            Arrangement.from_text(text)


def _miller_rabin(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_filter_is_sound():
    # the filter's rejections are sound only if F_P is a field holding a
    # root of every cyclotomic polynomial it is used for; Miller-Rabin
    # with the prime bases up to 41 is deterministic below 3.3e24
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert _P < 3 * 10 ** 24 and _miller_rabin(_P, bases)
    # a strong pseudoprime to the bases 2, 3, 5 and 7 is still caught
    assert not _miller_rabin(3215031751, bases)
    for n in range(1, 41):
        root = _mod_root(n)
        value = 0
        for c in reversed(cyclotomic_polynomial(n)):
            value = (value * root + c) % _P
        assert value == 0, n


# -- lattice isomorphism -------------------------------------------------------

def test_lattice_isomorphism_permuted_coordinates():
    w = root_of_unity(3)
    a = Arrangement(3, [[1, 0, 0], [1, w, 0], [0, 1, -1], [1, 1, 1]], 3)
    perm = [[v[2], v[0], v[1]] for v in
            ([list(h.coeffs) for h in a.hyperplanes])]
    b = Arrangement(3, perm, 3)
    assert lattice_isomorphic(a, b)
    assert a.lattice_isomorphic(b)


def test_lattice_isomorphism_distinguishes():
    braid4 = braid_arrangement(4)
    generic = Arrangement(4, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
        [1, 1, 1, 1], [1, 2, 3, 4]])
    assert len(braid4) == len(generic) == 6
    assert not lattice_isomorphic(braid4, generic)
    assert not lattice_isomorphic(braid4, braid_arrangement(3))


def test_lattice_isomorphism_same_sizes_different_lines():
    # six lines through the origin in the plane are all isomorphic
    a = Arrangement(2, [[1, k] for k in range(6)])
    b = Arrangement(2, [[1, 2 * k + 1] for k in range(5)] + [[0, 1]])
    assert lattice_isomorphic(a, b)
