"""Arrangement geometry and lattice machinery against brute-force oracles."""

from __future__ import annotations

import inspect
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree import arrangement, cyclotomic
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
    _bits,
    _build_levels,
    _certified,
    _charpoly,
    _contract,
    _mod_root,
    _mod_vector,
    _permute_mask,
    _reduce,
    _rref,
    _sub_levels,
    lattice_isomorphic,
)
from arrfree.catalog import (
    group,
    group_names,
    intermediate,
    reflection_arrangement,
    restriction_by_type,
)
from arrfree.cyclotomic import (
    MAX_ORDER,
    ArrfreeError,
    Cyc,
    InvalidParameter,
    NotAScalar,
    cyclotomic_polynomial,
    root_of_unity,
)
from arrfree.freeness import InductionTable, verify_induction_table

_ROOT = Path(__file__).resolve().parent.parent
_BENCH_INPUTS = _ROOT / "bench" / "inputs"


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
                if not any(_reduce(covs[j], rows, pivots)):
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
    # one order and one size, one hyperplane apart
    c = Arrangement(2, [[1, 0], [1, -1]])
    assert len(c) == len(b) and c.order == b.order
    assert a != c and c != b


def test_constructor_errors_are_arrfree_errors():
    # each keeps its standard base, so `except ValueError` still works
    assert issubclass(InvalidParameter, ArrfreeError)
    assert issubclass(InvalidParameter, ValueError)
    assert issubclass(NotAScalar, ArrfreeError)
    assert issubclass(NotAScalar, TypeError)
    bad_values = (
        lambda: Arrangement(3, [[0, 0, 0]]),
        lambda: Arrangement(3, [[1, 0]]),
        lambda: Arrangement(0, []),
        lambda: Hyperplane([]),
        lambda: Flat.from_covectors([[1, 0]], 3),
    )
    for make in bad_values:
        with pytest.raises(InvalidParameter):
            make()
    with pytest.raises(NotAScalar, match="covector entry"):
        Arrangement(3, [["a", 0, 0]])


def test_arrangement_mixed_orders_promote():
    w = root_of_unity(3)
    a = Arrangement(2, [[1, w], [1, 0]])
    assert a.order == 3
    b = Arrangement(2, [[1, w.promote(6)], [1, 0]])
    assert a == b


def test_cross_order_membership():
    w = root_of_unity(3)
    a = Arrangement(2, [[1, w], [1, 0]])
    h = Hyperplane([1, w.promote(6)])  # order 6, a field equal to Q(zeta_3)
    assert h.order == 6 and h in a
    assert a.index_of(h) == a.index_of(Hyperplane([1, w]))
    g = Hyperplane([1, 0])  # order 1
    assert g.order == 1 and g in a
    assert a.hyperplanes[a.index_of(g)] == g
    assert Hyperplane([1, 1]) not in a
    with pytest.raises(NotMember):
        a.index_of(Hyperplane([1, root_of_unity(6)]))


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


def test_flats_compare_by_their_span():
    # two bases of one subspace give one flat, hashed alike
    plane = Flat.from_covectors([[1, -1, 0], [0, 1, -1]], 3)
    same = Flat.from_covectors([[1, 0, -1], [2, -2, 0]], 3)
    assert plane == same and hash(plane) == hash(same)
    assert len({plane, same}) == 1
    line = Flat.from_covectors([[1, -1, 0]], 3)
    assert plane != line and len({plane, line}) == 2
    # the whole space of each dimension is its own flat
    assert Flat.from_covectors([], 3) != Flat.from_covectors([], 4)
    assert plane != [[1, -1, 0], [0, 1, -1]]


def test_restriction_error_classes():
    a = braid_arrangement(3)
    # not an intersection of member hyperplanes
    with pytest.raises(NotAFlat):
        a.restricted(Hyperplane([1, 1, 1]))
    # {x1 = x2, x3 = 0} is a subspace, but only x1 = x2 passes through it
    with pytest.raises(NotAFlat):
        a.restricted(Flat.from_covectors([[1, -1, 0], [0, 0, 1]], 3))
    # a flat of another dimension is refused before anything else
    with pytest.raises(NotAFlat, match="dimension"):
        a.restricted(Flat.from_covectors([[1, 0], [0, 1]], 2))
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


def test_restriction_to_members_of_other_orders():
    w = root_of_unity(3)
    a = Arrangement(3, [[1, w, 0], [1, 0, 0], [0, 1, -1], [0, 0, 1]], 3)
    # a member written over the subfield Q restricts like its promotion
    h = Hyperplane([1, 0, 0])
    assert h.order == 1 and h in a
    assert a.restricted(h) == a.restricted(h.promoted(3))
    assert a.restricted(h) == a.restricted(Flat.from_covectors([h], 3, 3))
    # a hyperplane over another field is not a member, so not a flat
    g = Hyperplane([1, root_of_unity(4), 0])
    assert g not in a
    with pytest.raises(NotAFlat, match="not an intersection"):
        a.restricted(g)


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


# -- the one rref routine ---------------------------------------------------

def _random_vectors(rng: random.Random, order: int):
    """A few vectors over Q(zeta_order), with zero, repeated and dependent
    ones among them."""
    z = root_of_unity(order)
    pool = [0, 0, 1, -1, 2, z ** rng.randrange(order),
            -(z ** rng.randrange(order)), z ** rng.randrange(order) + 1]
    dim = rng.randint(2, 4)
    vs = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.randrange(5)
        if kind == 0:
            vs.append([Cyc(order, 0)] * dim)
        elif kind == 1 and vs:
            vs.append(list(rng.choice(vs)))
        elif kind == 2 and len(vs) > 1:
            u, v = rng.sample(vs, 2)
            c = z ** rng.randrange(order)
            vs.append([a + c * b for a, b in zip(u, v)])
        else:
            vs.append([Cyc(order, 0) + rng.choice(pool) for _ in range(dim)])
    return dim, vs


def _rref_cases():
    rng = random.Random(2718)
    return [(order, *_random_vectors(rng, order))
            for order in (1, 3, 4, 5, 15, 41) for _ in range(8)]


def _rref_laws_hold(rref, monkeypatch) -> bool:
    """Whether rref(vs, k) with k the rank is rref(vs), a permutation of
    vs gives the same rref, and Arrangement.rank() counts its rows, on
    every case; rank() runs with rref in place of _rref."""
    rng = random.Random(31)
    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_rref", rref)
        for order, dim, vs in _rref_cases():
            rows, pivots = rref(vs)
            if rref(vs, len(rows)) != (rows, pivots):
                return False
            if rref(rng.sample(vs, len(vs))) != (rows, pivots):
                return False
            covs = [v for v in vs if any(v)]
            if covs:
                arr = Arrangement(dim, covs, order)
                if arr.rank() != len(rref([h.coeffs for h in arr])[0]):
                    return False
    return True


def test_rref_stops_at_its_rank_and_is_unique(monkeypatch):
    assert _rref_laws_hold(_rref, monkeypatch)
    for _, _, vs in _rref_cases():
        rows, pivots = _rref(vs)
        # a basis in rref: ascending pivots, unit pivot columns, no zero row
        assert list(pivots) == sorted(set(pivots))
        for row, p in zip(rows, pivots):
            assert [row[q] for q in pivots] == [int(q == p) for q in pivots]
            assert not any(row[:p])
        # and it spans every vector
        assert all(not any(_reduce(v, rows, pivots)) for v in vs)


def test_broken_rref_is_caught(monkeypatch):
    def stops_early(vectors, rank=None):
        return _rref(vectors, None if rank is None else rank - 1)

    def inserts_dependent(vectors, rank=None):
        rows: list = []
        pivots: list = []
        for vec in vectors:
            if len(rows) == rank:
                break
            red = _reduce(vec, rows, pivots)
            if not any(red) and any(vec):
                red = vec
            p = next((i for i, v in enumerate(red) if v), None)
            if p is not None:
                rows, pivots = arrangement._rref_insert(rows, pivots, red, p)
        return tuple(rows), tuple(pivots)

    assert not _rref_laws_hold(stops_early, monkeypatch)
    assert not _rref_laws_hold(inserts_dependent, monkeypatch)


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


# -- the lattice kernel against the builder it replaced -------------------------

def _mod_reduce_zero(vec, mrows, pivots) -> bool:
    vec = list(vec)
    for row, p in zip(mrows, pivots):
        c = vec[p]
        if c:
            vec = [(a - c * b) % _P for a, b in zip(vec, row)]
    return not any(vec)


def _mod_rref_key(rows, dim: int):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, _P)
        rows[r] = [v * inv % _P for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % _P for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(pivots), tuple(v for row in rows[:r] for v in row)


def _reference_levels(arr: Arrangement, max_rank=None):
    """Flat masks per rank with the rref basis of every flat, built the way
    the lattice was built before the one-pass kernel: a mod-P rref key for
    every (flat, hyperplane) pair to find duplicates, a mod-P elimination
    of every hyperplane against every new flat, and an exact rref for
    every flat."""
    m, dim = len(arr), arr.dim
    covs = [list(h.coeffs) for h in arr.hyperplanes]
    root = _mod_root(arr.order)
    mcovs = [_mod_vector(v, root) for v in covs] if root else [None]
    mcovs = None if None in mcovs else mcovs

    def mod_rows(rows):
        out = [_mod_vector(r, root) for r in rows] if mcovs else [None]
        return None if None in out else out

    def flat_mask(rows, pivots, mask, mrows):
        for j in range(m):
            if mask >> j & 1:
                continue
            if mrows is not None and not _mod_reduce_zero(mcovs[j], mrows,
                                                          pivots):
                continue
            if not any(_reduce(covs[j], rows, pivots)):
                mask |= 1 << j
        return mask

    levels = [[0]]
    bases = {0: ((), ())}
    current = [(0, (), (), [] if mcovs else None)]
    limit = dim if max_rank is None else max_rank
    while current and len(levels) <= limit:
        found: dict = {}
        buckets: dict = {}
        for xmask, xrows, _, xmrows in current:
            skip = xmask
            for i in range(m):
                if skip >> i & 1:
                    continue
                cand = xmask | 1 << i
                rec = key = None
                if xmrows is not None:
                    key = _mod_rref_key(list(xmrows) + [mcovs[i]], dim)
                    rec = next((found[mk] for mk in buckets.get(key, ())
                                if cand & ~mk == 0), None)
                if rec is None:
                    rows, pivots = _rref((*xrows, covs[i]))
                    mrows = mod_rows(rows)
                    mask = flat_mask(rows, pivots, cand, mrows)
                    rec = found.get(mask)
                    if rec is None:
                        rec = found[mask] = (mask, tuple(rows),
                                             tuple(pivots), mrows)
                        bases[mask] = rec[1:3]
                    if key is not None:
                        buckets.setdefault(key, []).append(mask)
                skip |= rec[0]
        levels.append(sorted(found))
        current = [found[mk] for mk in levels[-1]]
    if not levels[-1]:
        levels.pop()
    return tuple(tuple(lv) for lv in levels), bases


def _random_over(rng: random.Random, order: int, dim: int, m: int):
    """m hyperplanes with entries from a small pool, so that many of them
    meet in common flats."""
    z = root_of_unity(order)
    pool = [0, 0, 0, 0, 1, -1, 2, z ** rng.randrange(order),
            -(z ** rng.randrange(order)), z ** rng.randrange(order) + 1]
    covs = []
    while len(covs) < m:
        v = [rng.choice(pool) for _ in range(dim)]
        if any(v):
            covs.append([Cyc(order, 0) + c for c in v])
    return Arrangement(dim, covs, order)


def _oracle_cases():
    rng = random.Random(4141)
    cases = []
    for order in (1, 3, 4, 5, 15):
        for _ in range(6):
            dim = rng.choice([3, 3, 4])
            cases.append(_random_over(rng, order, dim, rng.randint(5, 9)))
    for _ in range(2):
        cases.append(_random_over(rng, 41, 3, rng.randint(6, 8)))
    return cases


def _assert_same_as_reference(arr: Arrangement, max_rank=None):
    expected, expected_bases = _reference_levels(arr, max_rank)
    fresh = Arrangement(arr.dim, arr.hyperplanes, arr.order)
    if max_rank is None:
        levels = fresh.intersection_lattice().levels
        _, bases = fresh.partial_levels(arr.dim)
    else:
        levels, bases = fresh.partial_levels(max_rank)
    assert levels == expected
    for level in levels:
        for mask in level:
            assert bases[mask] == expected_bases[mask], mask
    if max_rank is None:
        # a build asked for every rank ends at the centre too
        assert _build_levels(arr) == expected


def test_lattice_matches_reference_builder():
    assert _mod_root(41) is None  # order 41 takes the all-exact path
    for arr in _oracle_cases():
        _assert_same_as_reference(arr)


def test_catalog_lattices_match_reference_builder():
    for name in group_names():
        arr = reflection_arrangement(name)
        _assert_same_as_reference(arr, 2 if name == "G34" else 3)


def test_partial_levels_resume(monkeypatch):
    arr = reflection_arrangement("G33")
    expected, _ = _reference_levels(arr, 3)
    starts = []

    def recording(a, max_rank=None, levels=((0,),)):
        starts.append(len(levels) - 1)
        return _build_levels(a, max_rank, levels)

    monkeypatch.setattr(arrangement, "_build_levels", recording)
    fresh = Arrangement(arr.dim, arr.hyperplanes, arr.order)
    assert fresh.partial_levels(1)[0] == expected[:2]
    assert fresh.line_masks() == expected[2]
    assert fresh.partial_levels(3)[0] == expected
    assert fresh.partial_levels(2)[0] == expected[:3]
    whole = fresh.intersection_lattice().levels
    assert whole[:4] == expected and whole == _reference_levels(arr)[0]
    assert fresh.partial_levels(4)[0] == whole[:5]
    # each call resumed from the deepest level built before it
    assert starts == [0, 1, 2, 3]


def test_partial_levels_stop_at_the_centre(monkeypatch):
    builds = []

    def recording(a, max_rank=None, levels=((0,),)):
        builds.append(len(a))
        return _build_levels(a, max_rank, levels)

    monkeypatch.setattr(arrangement, "_build_levels", recording)
    # rank 2, rank 1 and the empty arrangement: once the deepest level
    # built is the centre, asking for more levels builds nothing
    for arr, sizes in ((Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]),
                        [1, 3, 1]),
                       (Arrangement(3, [[1, 2, 0]]), [1, 1]),
                       (Arrangement(3, []), [1])):
        for max_rank in (2, 5, 5):
            levels, _ = arr.partial_levels(max_rank)
            assert [len(lv) for lv in levels] == sizes
    assert builds == [3, 1]
    # the full lattice's levels are the partial levels once it is built
    arr = braid_arrangement(4)
    lattice = arr.intersection_lattice()
    assert arr._partial is lattice.levels
    builds.clear()
    for max_rank in (1, 2, 3, 5):
        assert arr.partial_levels(max_rank)[0] == \
            lattice.levels[:max_rank + 1]
    assert builds == []


def test_top_rank_is_read_off_rank(monkeypatch):
    # non-essential (rank below dim), one hyperplane, the empty arrangement
    for arr in (braid_arrangement(3), braid_arrangement(4),
                Arrangement(3, [[1, 2, 0]]), Arrangement(3, [])):
        levels = arr.intersection_lattice().levels
        assert levels == _build_levels(arr)
        assert len(levels) == arr.rank() + 1
    g33 = reflection_arrangement("G33")
    r = g33.rank()
    expected = _build_levels(g33)
    fresh = Arrangement(g33.dim, g33.hyperplanes, g33.order)
    spans = []
    made = Counter()
    exact = []
    mod_span, mod_keys = arrangement._mod_span, arrangement._mod_keys
    rref = arrangement._rref

    def recording_span(mcovs, x, k):
        spans.append([x, k, False])
        return mod_span(mcovs, x, k)

    def recording_keys(rows, pivots, mcovs, rest):
        # the keys read the basis spanned just before them
        x, k, keyed = spans[-1]
        assert len(rows) == k and not keyed
        spans[-1][2] = True
        groups = mod_keys(rows, pivots, mcovs, rest)
        made.update(x | g for g in groups.values())
        return groups

    def recording_rref(vectors, rank=None):
        exact.append(rank)
        return rref(vectors, rank)

    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_mod_span", recording_span)
        mp.setattr(arrangement, "_mod_keys", recording_keys)
        mp.setattr(arrangement, "_rref", recording_rref)
        assert fresh.intersection_lattice().levels == expected
    # each flat of ranks 1 .. r - 2 that has a rest spans one basis over
    # F_P from its atoms and is keyed from it; the empty flat is not keyed,
    # as rank 1 is the atoms, and no rank-(r-1) flat spans one, since those
    # flats generate only the centre
    assert all(keyed for _, _, keyed in spans)
    assert len({x for x, _, _ in spans}) == len(spans)
    assert all(x in expected[k] for x, k, _ in spans)
    assert {k for _, k, _ in spans} == set(range(1, r - 1))
    # every flat of ranks 2 .. r - 1 is one class of keys, once; no flat is
    # spanned exactly, and no exact rref reads the rank
    assert made == Counter(x for level in expected[2:r] for x in level)
    assert exact == []
    # resumed from a partial build that stops below, at or above the top
    for k in (r - 1, r, r + 1):
        fresh = Arrangement(g33.dim, g33.hyperplanes, g33.order)
        fresh.partial_levels(k)
        assert fresh.intersection_lattice().levels == expected


def _uncertified(monkeypatch):
    """Every build from here on computes its keys exactly."""
    monkeypatch.setattr(arrangement, "_certified", lambda covs, s: False)


def test_exact_keys_match_the_reference(monkeypatch):
    cases = _oracle_cases() + [reflection_arrangement("G25")]
    expected = [_reference_levels(arr)[0] for arr in cases]
    calls = Counter()
    for name in ("_mod_keys", "_exact_keys"):
        kernel = getattr(arrangement, name)

        def counting(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(arrangement, name, counting)
    assert [_build_levels(arr) for arr in cases] == expected
    certified = calls["_mod_keys"]
    # the certificate holds on every case with a root mod P, and the
    # exact keys serve the rest, order 41 here
    assert certified and calls["_exact_keys"]
    calls.clear()
    _uncertified(monkeypatch)
    assert [_build_levels(arr) for arr in cases] == expected
    assert calls["_mod_keys"] == 0 and calls["_exact_keys"] > certified


def test_certificate_failure_takes_the_exact_keys(monkeypatch):
    # [1, P, 0] is [1, 0, 0] mod P: one key mod P, two hyperplanes exactly
    arr = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, _P, 0], [0, 0, 1],
                          [1, 1, 1]])
    expected = _reference_levels(arr)[0]
    assert not _certified([h.coeffs for h in arr.hyperplanes], 3)
    assert arr.intersection_lattice().levels == expected
    assert len(expected[1]) == 5
    assert _build_levels(arr) == expected
    # forced to trust the residues mod P, the build keeps the two apart at
    # rank 1, the atoms, which take no keys, and merges their lines through
    # c into one flat at rank 2
    monkeypatch.setattr(arrangement, "_certified", lambda covs, s: True)
    forced = _build_levels(arr)
    assert forced[1] == expected[1]
    assert len(expected[2]) == 8 and len(forced[2]) == 7
    # the shipped groups certify their full lattices, except G27, whose
    # covectors need about 77 bits against log2 P of about 61
    certified = {name for name in group_names()
                 if _certified([h.coeffs for h in
                                reflection_arrangement(name).hyperplanes],
                               reflection_arrangement(name).rank())}
    assert set(group_names()) - certified == {"G27"}


def _recording_kernels(monkeypatch) -> list:
    """Patch both key kernels to record (name, pivots) of each call."""
    keyed = []
    for name in ("_mod_keys", "_exact_keys"):
        kernel = getattr(arrangement, name)

        def recording(rows, pivots, vecs, rest, kernel=kernel, name=name):
            keyed.append((name, pivots))
            return kernel(rows, pivots, vecs, rest)

        monkeypatch.setattr(arrangement, name, recording)
    return keyed


def test_rank_one_is_the_atoms(kernel_cases, monkeypatch):
    # rank 1 takes no keys: no flat is keyed over an empty basis, mod P
    # or exactly
    keyed = _recording_kernels(monkeypatch)
    assert _builds_as_reference(kernel_cases)
    with monkeypatch.context() as mp:
        _uncertified(mp)
        assert _builds_as_reference(kernel_cases)
    assert {name for name, _ in keyed} == {"_mod_keys", "_exact_keys"}
    assert all(pivots for _, pivots in keyed)
    assert _build_levels(Arrangement(2, [])) == ((0,),)
    assert _build_levels(Arrangement(2, [[1, 1]]), 0) == ((0,),)
    # an atom left out of rank 1, as if it were built from range(m - 1)
    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_keys_over", _mutant(
            arrangement._keys_over, "_bits(rest)}", "_bits(rest >> 1)}"))
        assert not _builds_as_reference(kernel_cases)


def test_broken_kernels_are_caught(kernel_cases, monkeypatch):
    assert _builds_as_reference(kernel_cases)
    # a skip mask from every found flat, not only those above x
    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_grow_levels", _mutant(
            arrangement._grow_levels, "above &= has[a]", "pass"))
        assert not _builds_as_reference(kernel_cases)
    # a basis over F_P one row short of its flat's rank
    mod_span = arrangement._mod_span
    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_mod_span",
                   lambda mcovs, x, k: mod_span(mcovs, x, max(k - 1, 0)))
        assert not _builds_as_reference(kernel_cases)


@pytest.fixture(scope="module")
def kernel_cases():
    """Arrangements, each with the rank to build up to and its reference
    levels: the seeded random ones through their top rank, and F4 and G32
    up to rank 3, whose rank-3 flats lie below the top and meet lines of
    three and more hyperplanes."""
    cases = [(arr, None) for arr in _oracle_cases()[::3]]
    cases += [(reflection_arrangement(name), 3) for name in ("G28", "G32")]
    return [(arr, r, _reference_levels(arr, r)[0]) for arr, r in cases]


def _builds_as_reference(kernel_cases) -> bool:
    return all(arrangement._build_levels(arr, r) == expected
               for arr, r, expected in kernel_cases)


def test_broken_keys_are_caught(kernel_cases, monkeypatch):
    with monkeypatch.context() as mp:
        _uncertified(mp)
        assert _builds_as_reference(kernel_cases)
    broken = (
        # a key left unscaled
        ("_mod_keys", "scale = inv * before % _P", "scale = 1"),
        ("_exact_keys", "inv = next(filter(None, vals)).inverse()",
         "inv = 1"),
        # a key that drops its last free coordinate
        ("_mod_keys", "for v in vals:", "for v in vals[:-1]:"),
        ("_exact_keys", "for v in vals)", "for v in vals[:-1])"),
    )
    for name, old, new in broken:
        with monkeypatch.context() as mp:
            if name == "_exact_keys":
                _uncertified(mp)
            mp.setattr(arrangement, name,
                       _mutant(getattr(arrangement, name), old, new))
            assert not _builds_as_reference(kernel_cases), (name, new)


def test_certified_builds_span_full_bases_and_key_one_way(kernel_cases,
                                                          monkeypatch):
    # under the certificate a flat's atoms span its rank mod P, so a build
    # keys every flat over F_P or every flat exactly, never a mix
    spans = []
    kernels: set = set()
    mod_span = arrangement._mod_span

    def recording_span(mcovs, x, k):
        basis = mod_span(mcovs, x, k)
        spans.append((k, len(basis[0]), len(basis[1])))
        return basis

    monkeypatch.setattr(arrangement, "_mod_span", recording_span)
    for name in ("_mod_keys", "_exact_keys"):
        kernel = getattr(arrangement, name)

        def recording(*args, kernel=kernel, name=name):
            kernels.add(name)
            return kernel(*args)

        monkeypatch.setattr(arrangement, name, recording)

    def one_way(build, certified):
        kernels.clear()
        build()
        assert kernels == {"_mod_keys" if certified else "_exact_keys"}

    for arr, r, _ in kernel_cases:
        covs = [h.coeffs for h in arr.hyperplanes]
        top = arr.dim if r is None else r
        one_way(lambda: _build_levels(arr, r),
                _mod_root(arr.order) is not None
                and _certified(covs, min(top + 1, arr.dim)))
    for name in group_names():
        g = reflection_arrangement(name)
        if not _certified([h.coeffs for h in g.hyperplanes], g.rank()):
            continue
        fresh = Arrangement(g.dim, g.hyperplanes, g.order)
        one_way(fresh.intersection_lattice if g.rank() <= 4
                else lambda: fresh.partial_levels(3), True)
    # G33 and G34 among them, each flat with a rest spanning one basis
    assert len(spans) > 1000
    assert all(k == rows == pivots for k, rows, pivots in spans)


def test_resumed_build_keys_as_a_fresh_one(monkeypatch):
    keyed = []
    for name in ("_mod_keys", "_exact_keys"):
        kernel = getattr(arrangement, name)

        def recording(rows, pivots, vecs, rest, kernel=kernel, name=name):
            keyed.append((name, rows, pivots, rest))
            return kernel(rows, pivots, vecs, rest)

        monkeypatch.setattr(arrangement, name, recording)
    for exact in (False, True):
        if exact:
            _uncertified(monkeypatch)
        for name in ("G28", "G32"):
            g = reflection_arrangement(name)
            keyed.clear()
            whole = _build_levels(g, 3)
            fresh = keyed.copy()
            keyed.clear()
            resumed = _build_levels(g, 3, _build_levels(g, 2))
            assert resumed == whole
            assert keyed == fresh
            assert {kernel for kernel, *_ in fresh} == \
                {"_exact_keys" if exact else "_mod_keys"}


def test_certified_builds_do_no_exact_arithmetic(monkeypatch):
    counts = Counter()
    inside = []
    build = arrangement._build_levels

    def recording_build(*args):
        inside.append(1)
        try:
            return build(*args)
        finally:
            inside.pop()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arrangement, "_build_levels", recording_build)
    monkeypatch.setattr(arrangement, "_rref",
                        counted("_rref", arrangement._rref))
    for name in ("__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(Cyc, name, counted(name, getattr(Cyc, name)))
    g34 = group("G34")
    cases = ((reflection_arrangement("G33"), None),
             (restriction_by_type(g34, "A1^2"), 3),
             (restriction_by_type(g34, "A1"), 3),
             (reflection_arrangement("G34"), 2))
    for arr, top in cases:
        for exact in (False, True):
            fresh = Arrangement(arr.dim, arr.hyperplanes, arr.order)
            fresh.rank()
            counts.clear()
            with monkeypatch.context() as mp:
                if exact:
                    _uncertified(mp)
                if top is None:
                    fresh.intersection_lattice()
                else:
                    fresh.partial_levels(top)
            if exact:
                # the counters see the exact keys where no certificate holds
                assert counts["_rref"] and counts["__mul__"], arr
            else:
                assert not counts, (arr, counts)


# -- characteristic polynomial against the quadratic Moebius sum ------------

def _reference_charpoly(levels, dim: int) -> tuple[int, ...]:
    """Characteristic polynomial by the Moebius sum over every lower flat:
    mu(X) = -sum mu(Y) over all Y strictly below X."""
    coeffs = [0] * (dim + 1)
    lower: list = []
    for k, level in enumerate(levels):
        new = []
        for mask in level:
            mu = -sum(mu2 for m2, mu2 in lower if m2 & mask == m2) if k else 1
            new.append((mask, mu))
            coeffs[dim - k] += mu
        lower.extend(new)
    return tuple(coeffs)


@pytest.fixture(scope="module")
def charpoly_cases():
    """(levels, dim) inputs, many of rank 4 or 5, so that the Weisner sum
    runs at the middle ranks: full lattices, subarrangements and
    restrictions."""
    cases = []
    lattices = {}
    for name in group_names():
        if name == "G34":
            continue
        arr = reflection_arrangement(name)
        lattices[name] = (arr.intersection_lattice().levels, arr.dim)
        cases.append(lattices[name])
    for arr in _oracle_cases():
        if arr.dim == 4:
            cases.append((arr.intersection_lattice().levels, arr.dim))
    rng = random.Random(5150)
    for name in ("G29", "G31", "G33"):
        levels, dim = lattices[name]
        m = len(levels[1])
        for _ in range(4):
            mask = rng.getrandbits(m) | rng.getrandbits(m)
            cases.append((_sub_levels(levels, mask), dim))
    levels, dim = lattices["G33"]
    for k, level in enumerate(levels):
        for x in level[::max(1, len(level) // 3)]:
            cases.append((_contract(levels, x, k)[0], dim - k))
    return cases


def _mutant(fn, old: str, new: str):
    """The arrangement-module function fn with one piece of its source
    replaced."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    namespace = dict(vars(arrangement))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.fixture(scope="module")
def replay_lattices():
    """(levels, dim) of every distinct lattice that a replay of the two
    bench chains builds, and of each row's restriction lattice, built
    directly from its keys, keyed mod P and exactly (which numbers the
    atoms in another order)."""
    seen: list = [{}, {}]
    charpoly = arrangement._charpoly

    for exact in (False, True):
        def recording(levels, dim, seen=seen[exact]):
            seen[tuple(map(tuple, levels)), dim] = None
            return charpoly(levels, dim)

        with pytest.MonkeyPatch.context() as mp:
            if exact:
                _uncertified(mp)
            mp.setattr(arrangement, "_charpoly", recording)
            for r in (3, 4):
                text = (_BENCH_INPUTS / f"chain_{r}_6_4.tbl").read_text()
                assert verify_induction_table(text)
                table = InductionTable.parse(text)
                dim, order = table.dim, table.order
                covs = [Hyperplane.parse(row.form, order, dim)
                        .promoted(order).coeffs for row in table.rows]
                vecs, mod = arrangement._key_vectors(covs, order, dim)
                assert mod is not exact
                rows = {frozenset(arrangement._keys_over(
                    vecs, mod, 1 << n, 1, (1 << n) - 1))
                    for n in range(len(vecs))}
                for keys in rows:
                    arrangement._keys_charpoly(keys, mod, dim - 1, order)
    assert len(seen[0]) == len(seen[1])
    return [*seen[0], *seen[1]]


def _gapped(levels) -> bool:
    """True when the atoms of the lattice are not 0 .. m-1."""
    atoms = max(levels[-1])
    return atoms & (atoms + 1) != 0


def test_charpoly_matches_moebius_reference(charpoly_cases, replay_lattices):
    assert max(len(levels) for levels, _ in charpoly_cases) == 6
    # rank-4 and rank-5 subarrangements whose atoms have gaps
    assert {len(levels) for levels, _ in charpoly_cases
            if _gapped(levels)} >= {5, 6}
    assert len(replay_lattices) > 28
    assert max(len(levels) for levels, _ in replay_lattices) == 6
    for levels, dim in charpoly_cases + replay_lattices:
        assert _charpoly(levels, dim) == _reference_charpoly(levels, dim)


def test_broken_charpoly_is_caught(charpoly_cases, replay_lattices,
                                   monkeypatch):
    cases = charpoly_cases + replay_lattices
    coatom_sum = arrangement._coatom_sum
    broken = (
        # the Weisner sum over every coatom, those through a included
        (_charpoly, "rest = x & (x - 1)", "rest = x"),
        # mu = |X| at rank 2
        (_charpoly, "x.bit_count() - 1 if", "x.bit_count() if"),
        # starts[b] holds only the coatoms whose lowest atom is b - 1
        (coatom_sum, "starts[b] |= starts[b - 1]", "pass"),
        # every coatom above Y counted, whatever its lowest atom
        (coatom_sum, "over = starts[(y & -y).bit_length() - 1]",
         "over = -1"),
    )
    for fn, old, new in broken:
        with monkeypatch.context() as mp:
            mp.setattr(arrangement, fn.__name__, _mutant(fn, old, new))
            assert any(arrangement._charpoly(levels, dim)
                       != _reference_charpoly(levels, dim)
                       for levels, dim in cases), new


def _reference_mod_keys(rows, pivots, mcovs, rest: int) -> dict:
    """`_mod_keys` with one inverse mod P for each key."""
    free = [c for c in range(len(mcovs[0])) if c not in pivots]
    groups: dict = {}
    for j in _bits(rest):
        vec = mcovs[j]
        vals = [(vec[f] - sum(vec[p] * row[f] for p, row in zip(pivots, rows)))
                % _P for f in free]
        inv = pow(next(filter(None, vals)), -1, _P)
        key = 0
        for v in vals:
            key = key * _P + v * inv % _P
        groups[key] = groups.get(key, 0) | 1 << j
    return groups


def test_mod_keys_match_one_inverse_per_key():
    rng = random.Random(2324)
    # over the flat of hyperplane 0, free coordinates 1, 2, 3: residues
    # leading at 3, 2, 1, and a multiple of the second
    mcovs = [[1, 0, 0, 0], [5, 0, 0, 3], [2, 0, 7, 1], [0, 4, 1, 1],
             [9, 0, 14, 2]]
    mcovs += [[rng.randrange(_P) for _ in range(4)] for _ in range(8)]
    full = (1 << len(mcovs)) - 1
    basis = arrangement._mod_span(mcovs, 1, 1)
    assert basis == (([1, 0, 0, 0],), (0,))
    keys = arrangement._mod_keys(*basis, mcovs, 0b11110)
    assert keys == _reference_mod_keys(*basis, mcovs, 0b11110)
    assert sorted(keys.values()) == [0b10, 0b1000, 0b10100]
    for x, k in ((1, 1), (0b110, 2), (0b1000000001, 2), (0b1011, 3)):
        basis = arrangement._mod_span(mcovs, x, k)
        for rest in (0, 1 << 11, full & ~x):
            assert arrangement._mod_keys(*basis, mcovs, rest) == \
                _reference_mod_keys(*basis, mcovs, rest), (x, rest)
    assert arrangement._mod_keys(*basis, mcovs, 0) == {}


def _mod_entries():
    """Entries mod P: zeros and small values, so that pivots and leading
    free coordinates vanish, and large ones."""
    return st.one_of(st.sampled_from((0, 0, 0, 1, 2, _P - 1)),
                     st.integers(0, _P - 1))


@st.composite
def _rank_one_cases(draw):
    """An atom, not always normalised, and vectors to key over it, none a
    multiple of it; in dims 2 to 6."""
    dim = draw(st.integers(2, 6))
    vector = st.lists(_mod_entries(), min_size=dim, max_size=dim)
    atom = draw(vector.filter(any))
    p = next(c for c, v in enumerate(atom) if v)
    rest = []
    for vec in draw(st.lists(vector, min_size=1, max_size=12)):
        red = [(v - vec[p] * pow(atom[p], -1, _P) * a) % _P
               for v, a in zip(vec, atom)]
        if any(red):
            rest.append(vec)
    assume(rest)
    return [atom] + rest


def _rank_one_keys_agree(mcovs) -> bool:
    """`_mod_keys` over the rank-1 basis of `_mod_span` against the
    reference keys over the basis that `_mod_insert` builds; the atom
    mcovs[0] is normalised first, as every caller's is."""
    basis = arrangement._mod_insert((), (), mcovs[0])
    mcovs = [basis[0][0], *mcovs[1:]]
    rest = (1 << len(mcovs)) - 2
    assert arrangement._mod_span(mcovs, 1, 1) == basis
    fast = arrangement._mod_keys(*arrangement._mod_span(mcovs, 1, 1),
                                 mcovs, rest)
    return fast == _reference_mod_keys(*basis, mcovs, rest)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_rank_one_cases())
def test_rank_one_keys_match_the_reference(mcovs):
    assert _rank_one_keys_agree(mcovs)


def test_rank_one_keys_drop_no_pivot_term(monkeypatch):
    # atoms normalised and not; a zero pivot entry (the second vector)
    # and zero leading free coordinates (the third)
    cases = [[[1, 3, 0, 2], [0, 1, 1, 0], [5, 0, 0, 7], [2, 1, 4, 4]],
             [[7, 2, 1], [0, 0, 1], [3, 0, 1], [1, 1, 1]],
             [[0, 4, 1, 0, 0, 2], [0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 1],
              [1, 2, 3, 4, 5, 6]]]
    assert all(map(_rank_one_keys_agree, cases))
    monkeypatch.setattr(arrangement, "_mod_keys", _mutant(
        arrangement._mod_keys, "(vec[f] - c * r) % _P", "vec[f] % _P"))
    assert not all(map(_rank_one_keys_agree, cases))


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


def test_arr_text_parses_each_distinct_entry_once(monkeypatch):
    # one memo per call, of successes only: a repeated entry is parsed
    # once per call, and a bad entry raises at its first line
    parse = cyclotomic.parse_scalar
    calls = Counter()

    def counted(text, order):
        calls[text] += 1
        return parse(text, order)

    monkeypatch.setattr(cyclotomic, "parse_scalar", counted)
    w = root_of_unity(3)
    text = "arr v1 dim=3 zeta=3\n1, z, 0\n0, 1, z\nz, 0, 1\n"
    for _ in range(2):
        calls.clear()
        assert Arrangement.from_text(text) == Arrangement(
            3, [[1, w, 0], [0, 1, w], [w, 0, 1]], 3)
        assert calls == {"1": 1, "z": 1, "0": 1}
    calls.clear()
    with pytest.raises(FormatError, match="unexpected end"):
        Arrangement.from_text(text + "1, 2*, 0\n1, 2*, 0\n")
    assert calls["2*"] == 1


def test_zeta_order_cap():
    # every shipped group's order is admitted; one above the cap is not
    for name in group_names():
        order = group(name).order
        assert Arrangement.from_text(f"arr v1 dim=1 zeta={order}\n").order \
            == order
    with pytest.raises(FormatError, match="above the cap"):
        Arrangement.from_text(f"arr v1 dim=1 zeta={MAX_ORDER + 1}\n")
    with pytest.raises(FormatError, match="above the cap"):
        InductionTable.parse(f"table v1 dim=1 zeta={MAX_ORDER + 1}\n0 | |\n")


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


# -- lattice isomorphism against the colour-refinement oracle ------------------

def _reference_wl_colors(m: int, levels):
    """Stable atom coloring refined by flat membership structure."""
    flats = [(k, mask) for k in range(2, len(levels)) for mask in levels[k]]
    colors = [0] * m
    for _ in range(m):
        sigs = []
        for i in range(m):
            member = []
            for k, mask in flats:
                if mask >> i & 1:
                    others = sorted(colors[j] for j in _bits(mask) if j != i)
                    member.append((k, len(others) + 1, tuple(others)))
            member.sort()
            sigs.append((colors[i], tuple(member)))
        ordinals = {sig: n for n, sig in enumerate(sorted(set(sigs)))}
        new = [ordinals[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _line_size_matrix(m: int, line_masks):
    mat = [[0] * m for _ in range(m)]
    for mask in line_masks:
        atoms = list(_bits(mask))
        for i, j in combinations(atoms, 2):
            mat[i][j] = mat[j][i] = len(atoms)
    return mat


def _reference_isomorphic(a: Arrangement, b: Arrangement) -> bool:
    """The isomorphism test that lattice_isomorphic replaced: compare the
    level profiles, refine atom colours to a fixpoint, then backtrack."""
    m = len(a)
    if len(b) != m:
        return False
    if m == 0:
        return True
    la = a.intersection_lattice()
    lb = b.intersection_lattice()
    if [sorted(x.bit_count() for x in lv) for lv in la.levels] != \
            [sorted(x.bit_count() for x in lv) for lv in lb.levels]:
        return False
    if la.rank < 2:
        return True
    cola = _reference_wl_colors(m, la.levels)
    colb = _reference_wl_colors(m, lb.levels)
    if sorted(cola) != sorted(colb):
        return False
    lsa = _line_size_matrix(m, la.levels[2])
    lsb = _line_size_matrix(m, lb.levels[2])
    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(colb):
        by_color.setdefault(c, []).append(j)
    freq = {c: len(v) for c, v in by_color.items()}
    order = sorted(range(m), key=lambda i: (freq[cola[i]], cola[i], i))
    target_sets = [set(lv) for lv in lb.levels]
    sigma = [-1] * m
    used = [False] * m

    def assign(pos: int) -> bool:
        if pos == m:
            return all({_permute_mask(mask, sigma) for mask in la.levels[k]}
                       == target_sets[k] for k in range(2, la.rank + 1))
        i = order[pos]
        for x in by_color.get(cola[i], ()):
            if used[x]:
                continue
            ok = True
            for q in range(pos):
                j = order[q]
                if lsa[i][j] != lsb[x][sigma[j]]:
                    ok = False
                    break
            if ok:
                sigma[i] = x
                used[x] = True
                if assign(pos + 1):
                    return True
                used[x] = False
                sigma[i] = -1
        return False

    return assign(0)


def _relabelled(arr: Arrangement, rng: random.Random) -> Arrangement:
    """arr in permuted and rescaled coordinates: the same lattice, its
    hyperplanes in another order."""
    perm = rng.sample(range(arr.dim), arr.dim)
    scale = [rng.choice((1, -1, 2, 3)) *
             root_of_unity(arr.order, rng.randrange(arr.order))
             for _ in range(arr.dim)]
    covs = []
    for h in arr:
        v = [0] * arr.dim
        for j, c in enumerate(h.coeffs):
            v[perm[j]] = c * scale[j]
        covs.append(v)
    return Arrangement(arr.dim, covs, arr.order)


def _level_profile(arr: Arrangement):
    return [sorted(x.bit_count() for x in lv)
            for lv in arr.intersection_lattice().levels]


def _random_equal_profile_pairs():
    """Seeded pairs of subarrangements of intermediate(3, 4, 4) with equal
    level profiles, each followed by relabelled copies of both."""
    rng = random.Random(20261018)
    pool = intermediate(3, 4, 4)
    buckets = {}
    for _ in range(120):
        arr = Arrangement(4, rng.sample(pool.hyperplanes, rng.randint(7, 10)),
                          3)
        buckets.setdefault(repr(_level_profile(arr)), []).append(arr)
    pairs = []
    for arrs in buckets.values():
        for a, b in zip(arrs, arrs[1:]):
            pairs += [(a, b), (_relabelled(a, rng), b),
                      (a, _relabelled(b, rng))]
    return pairs


def _check_isomorphism(pairs):
    answers = Counter()
    for a, b in pairs:
        want = _reference_isomorphic(a, b)
        assert lattice_isomorphic(a, b) == want
        answers[want] += 1
    return answers


_TABLES = _ROOT / "fixtures" / "tables"
_TABLE_SOURCES = (("g29_a1", "G29", "A1"), ("g31_a1", "G31", "A1"),
                  ("g33_a1sq", "G33", "A1^2"), ("g33_a2", "G33", "A2"),
                  ("g34_a1cube", "G34", "A1^3"), ("g34_a1a2", "G34", "A1A2"),
                  ("g34_a3", "G34", "A3"))


def test_lattice_isomorphism_matches_reference_on_the_paper_pairs():
    rng = random.Random(6)
    pairs = []
    # criterion 6: every restriction of intermediate(3, ell, k) against
    # every intermediate type one dimension down; one of them is its type
    for ell in (3, 4):
        targets = [intermediate(3, ell - 1, kk) for kk in range(ell)]
        for k in range(1, ell):
            arr = intermediate(3, ell, k)
            pairs += [(arr.restricted(h), t) for h in arr for t in targets]
    # the shipped tables against the catalog restrictions they encode
    for stem, gname, tag in _TABLE_SOURCES:
        table = InductionTable.parse((_TABLES / f"{stem}.tbl").read_text())
        arr = Arrangement(table.dim, [row.form for row in table.rows],
                          table.order)
        target = restriction_by_type(group(gname), tag)
        pairs += [(arr, target), (_relabelled(arr, rng), target)]
    r333 = restriction_by_type(group("G34"), "G(3,3,3)")
    g26 = reflection_arrangement(group("G26"))
    pairs += [(r333, g26), (_relabelled(r333, rng), g26)]
    # 21 + 60 restrictions, each of one type, and 16 isomorphic pairs
    assert _check_isomorphism(pairs) == {True: 81 + 16, False: 222}


def test_lattice_isomorphism_matches_reference_on_random_pairs():
    pairs = _random_equal_profile_pairs()
    assert all(_level_profile(a) == _level_profile(b) for a, b in pairs)
    answers = _check_isomorphism(pairs)
    assert len(pairs) >= 30 and answers[True] >= 10 and answers[False] >= 10


def test_non_invariant_colouring_is_caught(monkeypatch):
    # colours keyed by atom index force the identity map, which fails on
    # a relabelled copy
    monkeypatch.setattr(arrangement, "_atom_colors",
                        lambda m, levels: list(range(m)))
    with pytest.raises(AssertionError):
        _check_isomorphism(_random_equal_profile_pairs())
