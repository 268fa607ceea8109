"""Catalog constructors: intermediate family, orbit closure, flat types."""

from __future__ import annotations

import hashlib
import inspect
import random
import time
from importlib import resources

import pytest

from arrfree import arrangement, catalog, cyclotomic
from arrfree.arrangement import (Arrangement, Flat, Hyperplane,
                                 ZeroDimensional, _bits, _build_levels,
                                 _permute_mask, lattice_isomorphic)
from arrfree.catalog import (
    AmbiguousType,
    CatalogDataError,
    GroupPresentation,
    InvalidParameter,
    NoSuchType,
    _TYPE_TABLE,
    _closure_certified,
    _localization_roots,
    _mirror_covector,
    _orbit_levels,
    _residues,
    _transform,
    canonical_induction_order,
    flat_orbits,
    group,
    group_names,
    intermediate,
    intermediate_exponents,
    load_groups,
    monomial_arrangement,
    reflection_arrangement,
    restriction_by_type,
)
from arrfree.cyclotomic import MAX_DIM, ArrfreeError, root_of_unity

G333_TEXT = """
# monomial test presentation
group G(3,3,3) dim=3 zeta=3 hyperplanes=9
0, 1, 0
1, 0, 0
0, 0, 1

0, z, 0
z^2, 0, 0
0, 0, 1

1, 0, 0
0, 0, 1
0, 1, 0
"""


def g333():
    return load_groups(G333_TEXT)["G(3,3,3)"]


def test_intermediate_cardinality_and_order():
    for r in (2, 3, 4):
        for ell in (2, 3, 4):
            for k in range(ell + 1):
                a = intermediate(r, ell, k)
                assert len(a) == k + r * ell * (ell - 1) // 2
                assert a.dim == ell
    # coordinate hyperplanes really are there
    a = intermediate(3, 3, 2)
    assert Hyperplane([1, 0, 0]) in a
    assert Hyperplane([0, 1, 0]) in a
    assert Hyperplane([0, 0, 1]) not in a


def test_intermediate_exponent_formula_samples():
    assert intermediate_exponents(3, 3, 2) == (1, 4, 6)
    assert intermediate_exponents(3, 3, 0) == (1, 4, 4)
    assert intermediate_exponents(2, 4, 4) == (1, 3, 5, 7)
    assert intermediate_exponents(4, 5, 1) == (1, 5, 9, 13, 13)
    # the formula matches the lattice on a couple of instances
    assert intermediate(3, 3, 2).exponents() == (1, 4, 6)
    assert intermediate(2, 3, 1).exponents() == (1, 3, 3)


def test_intermediate_parameter_bounds():
    with pytest.raises(InvalidParameter):
        intermediate(3, 2, 5)
    with pytest.raises(InvalidParameter):
        intermediate(1, 3, 0)
    with pytest.raises(InvalidParameter):
        intermediate(3, 1, 0)
    with pytest.raises(InvalidParameter):
        intermediate_exponents(3, 3, -1)
    # one coordinate letter too many: no file could name the result
    with pytest.raises(InvalidParameter):
        intermediate(3, MAX_DIM + 1, 0)
    with pytest.raises(InvalidParameter):
        canonical_induction_order(3, MAX_DIM + 1)


def test_monomial_endpoints_and_divisor_rule():
    assert monomial_arrangement(3, 3, 3) == intermediate(3, 3, 0)
    assert monomial_arrangement(3, 1, 3) == intermediate(3, 3, 3)
    # any proper divisor builds the same mirrors as p = 1
    assert monomial_arrangement(4, 2, 3) == monomial_arrangement(4, 1, 3)
    with pytest.raises(InvalidParameter):
        monomial_arrangement(6, 4, 2)


def test_group_loader_and_closure():
    g = g333()
    assert g.dim == 3 and g.order == 3 and g.expected == 9
    assert len(g.generators) == 3
    arr = reflection_arrangement(g)
    assert len(arr) == 9
    assert arr == intermediate(3, 3, 0)
    # cached per presentation
    assert reflection_arrangement(g) is arr


def test_group_loader_rejects_bad_data():
    with pytest.raises(CatalogDataError):
        load_groups("group X dim=2 zeta=1 hyperplanes=1\n1, 0\n0, 0\n")
    with pytest.raises(CatalogDataError):
        load_groups("group X dim=2 zeta=1 hyperplanes=1\n1, 0, 0\n")
    with pytest.raises(CatalogDataError):
        load_groups("1, 0\n0, 1\n")
    with pytest.raises(CatalogDataError):
        load_groups("group X dim=2 zeta=1 hyperplanes=1\n")
    # a repeated name is refused at its second header, not overwritten
    block = "group X dim=2 zeta=1 hyperplanes=2\n-1, 0\n0, 1\n"
    with pytest.raises(CatalogDataError, match="X line 7: repeated"):
        load_groups(block + "0, 1\n1, 0\n\n" + block)
    # an entry that is not a number names its group
    with pytest.raises(CatalogDataError, match="^Y: .*matrix of numbers"):
        GroupPresentation("Y", 2, 1, 2, [[["a", 0], [0, 1]]])


def test_group_loader_parses_each_distinct_entry_once(monkeypatch):
    # one memo per call, keyed by entry and order, of successes only
    parse = cyclotomic.parse_scalar
    calls = []

    def counted(text, order):
        calls.append((text, order))
        return parse(text, order)

    monkeypatch.setattr(cyclotomic, "parse_scalar", counted)
    block = "dim=2 zeta={} hyperplanes=1\nz, 0\n0, 1\n\n1, 0\n0, z\n\n"
    groups = load_groups("group X " + block.format(3)
                         + "group Y " + block.format(4))
    assert sorted(calls) == [(e, n) for e in "01z" for n in (3, 4)]
    for name, order in (("X", 3), ("Y", 4)):
        first, second = groups[name].generators
        assert first[0][0] == second[1][1] == root_of_unity(order)
    # a bad entry names its first line, also when it comes again
    with pytest.raises(CatalogDataError, match="^X line 3: "):
        load_groups("group X dim=2 zeta=1 hyperplanes=1\n"
                    "1, 0\n0, 2*\n\n0, 2*\n1, 0\n")


def test_group_loader_checks_its_header():
    body = "-1, 0\n0, 1\n"
    for header, reason in (
            (f"dim={'2' * 5000} zeta=1 hyperplanes=1", "cannot read"),
            ("dim=2 zeta=0 hyperplanes=1", "must be positive"),
            ("dim=2 zeta=1009 hyperplanes=1", "above the cap"),
            ("dim=26 zeta=1 hyperplanes=1", "above the cap"),
            ("dim=2 zeta=1 hyperplanes=0", "hyperplanes must be positive"),
            (f"dim=2 zeta=1 hyperplanes={'1' * 5000}", "cannot read")):
        with pytest.raises(CatalogDataError, match=f"X line 2: .*{reason}"):
            load_groups(f"# comment\ngroup X {header}\n{body}")
    assert load_groups(f"group X dim=2 zeta=1 hyperplanes=1\n{body}")["X"] \
        .dim == 2


def test_closure_cardinality_gates():
    low = load_groups(G333_TEXT.replace("hyperplanes=9", "hyperplanes=8"))
    with pytest.raises(CatalogDataError, match="exceeds"):
        reflection_arrangement(low["G(3,3,3)"])
    high = load_groups(G333_TEXT.replace("hyperplanes=9", "hyperplanes=10"))
    with pytest.raises(CatalogDataError, match="stopped at 9"):
        reflection_arrangement(high["G(3,3,3)"])


def test_closure_counts_seed_mirrors():
    # two commuting reflections: the seed mirrors a and b alone exceed 1,
    # under residue keys (zeta=1) and exact keys (zeta=41, no root mod P)
    for order in (1, 41):
        g = load_groups(f"group X dim=2 zeta={order} hyperplanes=1\n"
                        "-1, 0\n0, 1\n\n1, 0\n0, -1\n")["X"]
        with pytest.raises(CatalogDataError, match="exceeds the expected 1"):
            reflection_arrangement(g)


def test_restriction_by_type_on_monomial():
    g = g333()
    r = restriction_by_type(g, "A1")
    assert r.dim == 2 and len(r) == 4  # one slot merges, two slots survive
    assert r.candidate_exponents() == (1, 3)
    with pytest.raises(NoSuchType):
        restriction_by_type(g, "A3")
    with pytest.raises(NoSuchType):
        restriction_by_type(g, "E8")
    # the full center matches the size-9 discriminated tag but is a point
    with pytest.raises(ZeroDimensional):
        restriction_by_type(g, "G(3,3,3)")


def test_flat_orbits_of_monomial():
    g = g333()
    atoms = flat_orbits(g, 1)
    assert [lab.orbit_size for lab in atoms] == [9]
    assert atoms[0].tag == "A1"
    # 12 lines, each on 3 mirrors; the twist difference a-b of the two
    # slope parameters is invariant, so the 9 generic lines split in 3
    # orbits next to the coordinate-line orbit
    lines = flat_orbits(g, 2)
    assert sorted(lab.orbit_size for lab in lines) == [3, 3, 3, 3]
    assert {lab.tag for lab in lines} == {"A2"}
    assert all(lab.count == 3 for lab in lines)
    top = flat_orbits(g, 0)
    assert len(top) == 1 and top[0].tag == "empty"


def test_flat_orbits_refuse_codims_out_of_range():
    with pytest.raises(InvalidParameter, match="codim must be nonnegative"):
        flat_orbits("G25", -1)
    # G25 has rank 3, so no flat has codim 4
    assert flat_orbits("G25", 4) == []


def test_canonical_induction_order_structure():
    z = root_of_unity(3)
    hs = canonical_induction_order(3, 3)
    assert len(hs) == 10
    assert hs[0] == Hyperplane([1, -1, 0])
    assert hs[3] == Hyperplane([1, 0, 0])
    assert hs[4] == Hyperplane([1, 0, -1])
    assert set(hs) == set(intermediate(3, 3, 1).hyperplanes)

    hs4 = canonical_induction_order(3, 4)
    assert len(hs4) == 20
    assert set(hs4) == set(intermediate(3, 4, 2).hyperplanes)
    assert hs4[10] == Hyperplane([0, 1, 0, 0])

    hs2 = canonical_induction_order(2, 3)
    assert len(hs2) == 7
    assert set(hs2) == set(intermediate(2, 3, 1).hyperplanes)

    with pytest.raises(InvalidParameter):
        canonical_induction_order(1, 3)
    with pytest.raises(InvalidParameter):
        canonical_induction_order(3, 2)


# ---- shipped exceptional-group data ----

SHIPPED = {
    "G23": (3, 5, 15),
    "G24": (3, 7, 21),
    "G25": (3, 3, 12),
    "G26": (3, 3, 21),
    "G27": (3, 15, 45),
    "G28": (4, 1, 24),
    "G29": (4, 4, 40),
    "G30": (4, 5, 60),
    "G31": (4, 4, 60),
    "G32": (4, 3, 40),
    "G33": (5, 3, 45),
    "G34": (6, 3, 126),
}


def test_shipped_catalog_closes_at_expected_counts():
    assert set(group_names()) == set(SHIPPED)
    for name, (dim, order, count) in SHIPPED.items():
        g = group(name)
        assert (g.dim, g.order, g.expected) == (dim, order, count)
        arr = reflection_arrangement(g)
        assert len(arr) == count and arr.dim == dim


def test_shipped_catalog_characteristic_roots():
    roots = {
        "G23": (1, 5, 9),
        "G24": (1, 9, 11),
        "G25": (1, 4, 7),
        "G26": (1, 7, 13),
        "G27": (1, 19, 25),
        "G28": (1, 5, 7, 11),
        "G29": (1, 9, 13, 17),
        "G30": (1, 11, 19, 29),
        "G31": (1, 13, 17, 29),
        "G32": (1, 7, 13, 19),
        "G33": (1, 7, 9, 13, 15),
    }
    for name, want in roots.items():
        arr = reflection_arrangement(group(name))
        assert arr.candidate_exponents() == want
        assert sum(want) == len(arr)


def test_icosahedral_mirrors_embed_in_valentiner():
    big = reflection_arrangement(group("G27"))
    small = reflection_arrangement(group("G23"))
    for h in small.hyperplanes:
        lifted = Hyperplane([c.promote(15) for c in h.coeffs], 15)
        assert lifted in big


def test_shipped_arrangements_are_generator_stable():
    # one more closure pass moves nothing
    for name in ("G25", "G32"):
        g = group(name)
        arr = reflection_arrangement(g)
        for mat in g.generators:
            for h in arr.hyperplanes:
                assert _transform(h, mat, g.order) in arr


def test_closure_records_generator_permutations():
    # oracle: apply each generator to each mirror again and look it up
    for name in group_names():
        g = group(name)
        arr = reflection_arrangement(g)
        expected = tuple(
            tuple(arr.index_of(_transform(h, mat, arr.order))
                  for h in arr.hyperplanes)
            for mat in g.generators)
        assert g._permutations == expected
        for perm in g._permutations:
            assert sorted(perm) == list(range(len(arr)))


def test_restrictions_of_rank5_and_rank6_groups():
    g33, g34 = group("G33"), group("G34")
    sizes = {
        (g33, "A1"): (4, 28),
        (g33, "A1^2"): (3, 17),
        (g33, "A2"): (3, 14),
        (g34, "A1"): (5, 85),
        (g34, "A1^2"): (4, 56),
        (g34, "A2"): (4, 49),
        (g34, "A1^3"): (3, 33),
        (g34, "A1A2"): (3, 30),
        (g34, "A3"): (3, 25),
    }
    for (g, tag), (dim, count) in sizes.items():
        r = restriction_by_type(g, tag)
        assert (r.dim, len(r)) == (dim, count)


def test_g34_monomial_restriction_matches_rank3_group():
    r = restriction_by_type(group("G34"), "G(3,3,3)")
    g26 = reflection_arrangement(group("G26"))
    assert len(r) == 21
    assert lattice_isomorphic(r, g26)


def test_flat_orbits_of_shipped_groups():
    atoms33 = flat_orbits(group("G33"), 1)
    assert [(lab.tag, lab.orbit_size) for lab in atoms33] == [("A1", 45)]
    lines34 = flat_orbits(group("G34"), 2)
    assert sorted((lab.tag, lab.orbit_size) for lab in lines34) == \
        [("A1^2", 2835), ("A2", 1680)]
    # two codim-3 orbits of G30 have six hyperplanes; only the 300-orbit
    # localizes to A3 (exponents 1,2,3), the 360-orbit to A1 x I2(5)
    # (exponents 1,1,4), which the table does not name
    tags30 = {(lab.count, lab.orbit_size): lab.tag
              for lab in flat_orbits(group("G30"), 3)}
    assert tags30[(6, 300)] == "A3"
    assert tags30[(6, 360)] == "unclassified(codim=3,count=6)"


def test_pair_flat_restriction_of_monomial():
    # restricting the full monomial arrangement to one twisted-pair flat
    # leaves an intermediate arrangement one rank down with one extra
    # coordinate hyperplane
    z = root_of_unity(3)
    for ell, p in ((3, 2), (4, 3)):
        whole = intermediate(3, ell, 0)
        restricted = whole.restricted(Hyperplane([1, -z] + [0] * (ell - 2)))
        assert lattice_isomorphic(restricted, intermediate(3, p, 1))


# ---- the residue closure against the exact one it replaced ----

# B3 with rational generators; zeta=41 has no root mod P
B3_ZETA41_TEXT = """
group B3 dim=3 zeta=41 hyperplanes=9
0, 1, 0
1, 0, 0
0, 0, 1

1, 0, 0
0, 0, 1
0, 1, 0

-1, 0, 0
0, 1, 0
0, 0, 1
"""


def _fresh_groups() -> dict:
    """Every shipped presentation, parsed again so that no closure is
    cached on it."""
    text = resources.files("arrfree").joinpath("data/groups.dat").read_text()
    return load_groups(text)


def _seeds(g) -> list:
    covs = (_mirror_covector(mat, g.dim) for mat in g.generators)
    return [Hyperplane(cov, g.order) for cov in covs if cov is not None]


def _reference_transform(h, mat, order):
    """The image by the per-term loop that `_transform` replaced: one
    `Cyc` product and one sum per nonzero term, each normalised."""
    out = []
    for j in range(h.dim):
        acc = None
        for i in range(h.dim):
            c = h.coeffs[i]
            if c:
                term = c * mat[i][j]
                acc = term if acc is None else acc + term
        out.append(acc if acc is not None else 0)
    return Hyperplane(out, order)


def test_transform_matches_the_per_term_loop():
    # every shipped group's mirrors times its generators, G(3,3,3), and
    # B3 at zeta=41, whose closure runs on exact keys
    groups = _fresh_groups()
    groups["G(3,3,3)"] = g333()
    groups.update(load_groups(B3_ZETA41_TEXT))
    for name, g in groups.items():
        for mat in g.generators:
            for h in reflection_arrangement(g).hyperplanes:
                got = _transform(h, mat, g.order)
                ref = _reference_transform(h, mat, g.order)
                assert got.order == ref.order == g.order, name
                assert [(c.order, c.num, c.den) for c in got.coeffs] == \
                    [(c.order, c.num, c.den) for c in ref.coeffs], name


def _reference_closure(g):
    """The exact closure: every (mirror, generator) image is transformed
    exactly and keyed by `Hyperplane.key`.  Returns the arrangement text
    and the generator permutations."""
    seen = {h.key(): h for h in _seeds(g)}
    images = [{} for _ in g.generators]
    frontier = list(seen.values())
    while frontier:
        fresh = []
        for h in frontier:
            for mat, image in zip(g.generators, images):
                img = image[h.key()] = _transform(h, mat, g.order)
                if img.key() not in seen:
                    seen[img.key()] = img
                    fresh.append(img)
        frontier = fresh
    arr = Arrangement(g.dim, seen.values(), g.order)
    perms = tuple(
        tuple(arr.index_of(image[h.key()]) for h in arr.hyperplanes)
        for image in images)
    return arr.to_text(), perms


def _closure(g):
    return reflection_arrangement(g).to_text(), g._permutations


def test_residue_closure_matches_reference(monkeypatch):
    calls = []
    image_key = catalog._image_key

    def counted(vec, cols):
        calls.append(1)
        return image_key(vec, cols)

    monkeypatch.setattr(catalog, "_image_key", counted)
    groups = _fresh_groups()
    groups["G(3,3,3)"] = g333()
    groups.update(load_groups(B3_ZETA41_TEXT))
    assert _residues(groups["B3"], _seeds(groups["B3"])) is None
    for name, g in groups.items():
        del calls[:]
        assert _closure(g) == _reference_closure(g), name
        # a residue run wherever there are residues, G24 and G27
        # included, whose keys then fail the certificate
        assert bool(calls) == (name != "B3"), name


def test_closure_certificate_covers_generator_images():
    # G24 and G27 certify their mirrors alone (`_certified` at s = 2) but
    # not their images, so they take the exact keys; so do their seed
    # mirrors
    for name, g in _fresh_groups().items():
        arr = reflection_arrangement(g)
        certified = name not in ("G24", "G27")
        assert _closure_certified(arr.hyperplanes, g.generators) == \
            certified, name
        assert _closure_certified(_seeds(g), g.generators) == certified, \
            name


def _counting_transform(monkeypatch) -> list:
    calls = []

    def counted(h, mat, order):
        calls.append(1)
        return _transform(h, mat, order)

    monkeypatch.setattr(catalog, "_transform", counted)
    return calls


def test_certified_closure_transforms_each_new_mirror_once(monkeypatch):
    calls = _counting_transform(monkeypatch)
    g = _fresh_groups()["G34"]
    seeds = {h.key() for h in _seeds(g)}
    assert len(reflection_arrangement(g)) - len(seeds) == len(calls) > 0


def test_uncertified_closure_takes_exact_keys(monkeypatch):
    calls = _counting_transform(monkeypatch)
    monkeypatch.setattr(catalog, "_closure_certified",
                        lambda mirrors, gens: False)
    groups = _fresh_groups()
    for name in ("G33", "G34"):
        g = groups[name]
        del calls[:]
        text, perms = _closure(g)
        new = g.expected - len({h.key() for h in _seeds(g)})
        # the residue run, then one transform per (mirror, generator)
        assert len(calls) == new + g.expected * len(g.generators)
        assert (text, perms) == _reference_closure(g)


# ---- orbit-built levels against the plain lattice builder ----

def _reference_orbits(level, perms) -> tuple:
    """(least mask, size) of each orbit of the level under the
    permutations, by breadth-first search over the level alone, which
    must hold every image."""
    unseen = set(level)
    out = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for mask in frontier:
                for perm in perms:
                    img = _permute_mask(mask, perm)
                    if img not in orbit:
                        assert img in unseen
                        orbit.add(img)
                        fresh.append(img)
            frontier = fresh
        unseen -= orbit
        out.append((start, len(orbit)))
    return tuple(out)


def _check_orbit_levels(groups):
    """The orbit levels up to codim 3 against the plain builder and the
    reference orbits; through the module, so that a mutant stands in."""
    for name, g in groups.items():
        arr = reflection_arrangement(g)
        ref = _build_levels(arr, 3)
        for codim in (1, 2, 3):
            g._orbits = None
            levels, orbits = catalog._orbit_levels(g, codim)
            assert levels == ref[:codim + 1], (name, codim)
            assert orbits == tuple(_reference_orbits(lv, g._permutations)
                                   for lv in levels), (name, codim)
        # a deeper request resumes from the slot
        fresh = g._orbits
        g._orbits = None
        catalog._orbit_levels(g, 2)
        assert catalog._orbit_levels(g, 3) == (fresh[0][:4], fresh[1][:4]), \
            name
        assert g._orbits == fresh, name


def test_orbit_levels_match_the_plain_builder():
    _check_orbit_levels(_fresh_groups())


def test_orbit_levels_match_the_plain_builder_on_exact_keys(monkeypatch):
    monkeypatch.setattr(arrangement, "_certified", lambda covs, s: False)
    groups = _fresh_groups()
    groups = {name: groups[name]
              for name in ("G24", "G25", "G26", "G28", "G29", "G32")}
    groups["G(3,3,3)"] = g333()
    _check_orbit_levels(groups)


def test_orbit_levels_start_from_the_atoms(monkeypatch):
    # rank 1 is the atoms with their orbits, and no flat is keyed over an
    # empty basis, mod P or exactly
    keyed = []
    for name in ("_mod_keys", "_exact_keys"):
        kernel = getattr(arrangement, name)

        def recording(rows, pivots, vecs, rest, kernel=kernel, name=name):
            keyed.append((name, pivots))
            return kernel(rows, pivots, vecs, rest)

        monkeypatch.setattr(arrangement, name, recording)
    groups = _fresh_groups()
    _check_orbit_levels({name: groups[name] for name in ("G25", "G28")})
    with monkeypatch.context() as mp:
        mp.setattr(arrangement, "_certified", lambda covs, s: False)
        _check_orbit_levels({"G(3,3,3)": g333()})
    assert {name for name, _ in keyed} == {"_mod_keys", "_exact_keys"}
    assert all(pivots for _, pivots in keyed)


def _label_digest(labels) -> str:
    """sha256 of the labels' tags, codims, counts, orbit sizes and
    representative rows, as `test_golden.orbit_digests` takes it."""
    text = repr([(lab.tag, lab.codim, lab.count, lab.orbit_size,
                  [[str(c) for c in row] for row in lab.representative.rows])
                 for lab in labels])
    return hashlib.sha256(text.encode()).hexdigest()


# G34's labels past codim 3, recorded when the centre's label still read
# the ambient characteristic polynomial (about 36 s)
G34_DEEP_LABELS = {
    4: "1e8b1a0a2b9c372173c2016298f147f4fb57f77975fa2e702841998e303177c4",
    5: "bbe2a9bca9fb97c6e5279d3ccdb4842da1bf96461a33ffe370df95683be83f6f",
    6: "d5daab5c285d3025896293b0c4eab8acf9af3dd54c7e79e1f2d841d166a9b681",
}


def test_g34_orbit_levels_down_to_the_centre(monkeypatch):
    # recorded with the per-orbit BFS that peeled each image bit by bit;
    # its name puts it under CI's hash-seed runs of "-k orbit"
    g = _fresh_groups()["G34"]
    levels, orbits = _orbit_levels(g, 6)
    assert tuple(map(len, levels)) == \
        (1, 126, 4515, 53480, 180411, 99960, 1)
    sizes = [sorted(size for _, size in rank) for rank in orbits]
    assert sizes[2:6] == [
        [1680, 2835],
        [560, 11340, 11340, 30240],
        [1680, 2835, 5040, 27216, 30240, 45360, 68040],
        [126, 672, 3402, 5040, 9072, 9072, 27216, 45360],
    ]
    assert list(map(sum, sizes)) == list(map(len, levels))
    # the type table names no codim above 3, so no label there reads a
    # localization, the centre's whole lattice least of all
    monkeypatch.setattr(catalog, "_localization_roots", None)
    for codim, digest in G34_DEEP_LABELS.items():
        assert _label_digest(flat_orbits(g, codim)) == digest, codim


def _swap(g, rng):
    """Swap two entries of one generator's permutation of the mirrors."""
    perms = [list(p) for p in g._permutations]
    perm = rng.choice(perms)
    i, j = rng.sample(range(len(perm)), 2)
    perm[i], perm[j] = perm[j], perm[i]
    g._permutations = tuple(map(tuple, perms))


def _refused(g, match):
    for call in (lambda: flat_orbits(g, 3),
                 lambda: restriction_by_type(g, "A1^3")):
        start = time.perf_counter()
        with pytest.raises(CatalogDataError, match=match):
            call()
        # the cover-pair bound stops the closure near the true level size
        assert time.perf_counter() - start < 1.0
        assert g._orbits is None


def test_orbit_build_refuses_a_swapped_permutation():
    # a single transposition already outgrows the cover-pair bound at
    # rank 2, so a closure under wrong data never runs away
    groups = _fresh_groups()
    for seed, name in enumerate(("G25", "G26", "G27", "G28", "G29", "G30",
                                 "G31", "G32", "G33", "G34")):
        g = groups[name]
        reflection_arrangement(g)
        _swap(g, random.Random(seed))
        _refused(g, "orbits of rank 2 exceed")


def test_orbit_build_refuses_a_representative_that_is_no_flat():
    # in B3, a swap of two mirrors in the last generator keeps the
    # closure within the bound, but the least mask of one rank-2 orbit is
    # no line: a third mirror lies in its span; under residue keys (zeta=1)
    # and exact ones (zeta=41, no root mod P)
    for order in (1, 41):
        g = load_groups(B3_ZETA41_TEXT.replace("zeta=41", f"zeta={order}"))["B3"]
        reflection_arrangement(g)
        perms = [list(p) for p in g._permutations]
        perms[2][1], perms[2][3] = perms[2][3], perms[2][1]
        g._permutations = tuple(map(tuple, perms))
        _refused(g, "rank 2 holds a set of mirrors that is not a flat")


A1_B2_TEXT = """
group A1xB2 dim=3 zeta=1 hyperplanes=5
-1, 0, 0
0, 1, 0
0, 0, 1

1, 0, 0
0, -1, 0
0, 0, 1

1, 0, 0
0, 0, 1
0, 1, 0
"""


def _matching_reps(g, tag) -> list:
    """(least mask, size) of each orbit of flats with the tag's codim,
    hyperplane count and localization roots, by the scan over the whole
    orbit levels that `restriction_by_type` ran before it read
    `flat_orbits`' labels."""
    roots = _TYPE_TABLE[tag]
    codim = len(roots)
    levels, orbits = _orbit_levels(g, codim)
    return [(rep, size) for rep, size in orbits[codim]
            if rep.bit_count() == sum(roots)
            and _localization_roots(levels, rep, g.dim) == roots]


def _matching_orbits(g, tag) -> list:
    """Sizes of the orbits of flats whose localization has the tag's type."""
    return [size for _, size in _matching_reps(g, tag)]


def test_restriction_by_type_across_orbits():
    # types that match two orbits whose restrictions are lattice
    # isomorphic name one restriction: -> (orbit sizes, its hyperplanes)
    shared = {
        ("G26", "A1"): ([12, 9], 8),
        ("G27", "A2"): ([60, 60], 1),
        ("G28", "A1"): ([12, 12], 13),
        ("G28", "A2"): ([16, 16], 6),
        ("G28", "A1A2"): ([48, 48], 1),
        ("G28", "B3"): ([12, 12], 1),
        ("G29", "A3"): ([80, 80], 1),
    }
    for (name, tag), (sizes, count) in shared.items():
        g = group(name)
        assert _matching_orbits(g, tag) == sizes, (name, tag)
        assert len(restriction_by_type(g, tag)) == count, (name, tag)
    # the benchmark's restrictions match one orbit each
    for name, tag in (("G31", "A1"), ("G33", "A1"), ("G33", "A1^2"),
                      ("G33", "A2"), ("G34", "A1"), ("G34", "A1^2"),
                      ("G34", "A2")):
        assert len(_matching_orbits(group(name), tag)) == 1, (name, tag)
    # A1 x B2: the mirror x1 restricts to the four lines of B2, a mirror
    # of B2 to two lines
    g = load_groups(A1_B2_TEXT)["A1xB2"]
    assert sorted(_matching_orbits(g, "A1")) == [1, 2, 2]
    with pytest.raises(AmbiguousType, match="A1xB2 has 3 orbits"):
        restriction_by_type(g, "A1")
    assert len(restriction_by_type(g, "A1^2")) == 1


# ---- labels and restrictions against the scan they replaced ----

def _flat_of(arr, mask) -> Flat:
    """The flat of the mask, spanned by all of its atoms."""
    return Flat.from_covectors([arr.hyperplanes[j] for j in _bits(mask)],
                               arr.dim, arr.order)


def _picked_flats(g, tag, monkeypatch) -> list:
    """The flats that `restriction_by_type` restricts to, all taken to
    have isomorphic restrictions; none when it finds no flat.  The
    restriction stands in as the subarrangement it was called on, which
    differs between orbits, so a mutant run under its own copy of the
    module's names may still raise `AmbiguousType` after the flats are
    picked."""
    picked = []
    with monkeypatch.context() as mp:
        mp.setattr(Arrangement, "restricted",
                   lambda arr, flat: picked.append(flat) or arr)
        mp.setattr(catalog, "lattice_isomorphic", lambda a, b: True)
        try:
            catalog.restriction_by_type(g, tag)
        except (NoSuchType, AmbiguousType):
            pass
    return picked


def _check_labels(groups, monkeypatch):
    """Every tag picks the flats of the count-and-roots scan, in its
    order, and each label at codim 1-3 is its orbit's: the rref of all
    of its atoms, its count and its size."""
    for name, g in groups.items():
        arr = reflection_arrangement(g)
        for tag in _TYPE_TABLE:
            assert _picked_flats(g, tag, monkeypatch) == [
                _flat_of(arr, rep) for rep, _ in _matching_reps(g, tag)], \
                (name, tag)
        for codim in (1, 2, 3):
            _, orbits = _orbit_levels(g, codim)
            labels = catalog.flat_orbits(g, codim)
            assert [(lab.representative, lab.count, lab.orbit_size)
                    for lab in labels] == [
                (_flat_of(arr, rep), rep.bit_count(), size)
                for rep, size in orbits[codim]], (name, codim)


def test_restriction_labels_match_the_orbit_scan(monkeypatch):
    groups = {name: group(name) for name in group_names()}
    _check_labels(groups, monkeypatch)
    # a count filter in place of the tag filter: G30's codim-3 orbits A3
    # and unclassified(codim=3,count=6) both have 6 hyperplanes; a basis
    # stopped one rank short; a localization walk without the
    # representative's own level
    mutants = (
        (catalog.restriction_by_type, "if lab.tag == t",
         "if lab.count == sum(_TYPE_TABLE[t])", ("G30",)),
        (catalog.flat_orbits, "_bits(rep)), codim)",
         "_bits(rep)), codim - 1)", group_names()),
        (catalog.flat_orbits, "(*levels[:codim], (rep,))", "levels[:codim]",
         group_names()),
    )
    for fn, old, new, names in mutants:
        src = inspect.getsource(fn)
        assert src.count(old) == 1, old
        namespace = dict(vars(catalog))
        exec(src.replace(old, new), namespace)
        with monkeypatch.context() as mp:
            mp.setattr(catalog, fn.__name__, namespace[fn.__name__])
            with pytest.raises(AssertionError):
                _check_labels({name: groups[name] for name in names},
                              monkeypatch)


def test_flat_orbits_past_codim_3_cover_their_level(monkeypatch):
    # every orbit of every codim up to the rank, G34 aside: the sizes sum
    # to the flats of that rank and each representative has codim rows;
    # no type has codim 4 or more, so no localization is read there
    monkeypatch.setattr(catalog, "_localization_roots", None)
    for name in group_names():
        g = group(name)
        if name == "G34":
            continue
        for codim in range(4, g.dim + 1):
            levels, _ = _orbit_levels(g, codim)
            labels = flat_orbits(g, codim)
            assert sum(lab.orbit_size for lab in labels) == \
                len(levels[codim]), (name, codim)
            assert all(lab.representative.rank == codim for lab in labels)
        assert flat_orbits(g, g.dim + 1) == []


# ---- restrictions by type against the whole arrangement's ----

def _whole_restriction(g, tag) -> Arrangement:
    """The restriction by type as the whole arrangement restricted at
    each flat of `flat_orbits`' labels with the tag, and its errors."""
    arr = reflection_arrangement(g)
    flats = [lab.representative
             for lab in flat_orbits(g, len(_TYPE_TABLE[tag]))
             if lab.tag == tag]
    if not flats:
        raise NoSuchType(tag)
    first, *others = (arr.restricted(flat) for flat in flats)
    if not all(lattice_isomorphic(first, other) for other in others):
        raise AmbiguousType(tag)
    return first


def _outcome(call) -> str:
    """The text of the arrangement that call returns, or the name of the
    error it raises."""
    try:
        return call().to_text()
    except ArrfreeError as exc:
        return type(exc).__name__


def _restriction_groups() -> dict:
    """Every shipped group, fresh, with G(3,3,3), whose centre matches a
    tag, and A1 x B2, whose A1 orbits restrict differently."""
    groups = _fresh_groups()
    groups["G(3,3,3)"] = g333()
    groups["A1xB2"] = load_groups(A1_B2_TEXT)["A1xB2"]
    return groups


def _check_restrictions(groups, want, monkeypatch):
    """`restriction_by_type` gives want[name, tag] for every group and
    tag, restricting a subarrangement with one mirror per restricted
    hyperplane next to the flat's own mirrors, on residue and exact key
    tables alike."""
    restricted = Arrangement.restricted
    calls = []

    def spy(arr, flat):
        out = restricted(arr, flat)
        through = sum(map(flat.contains_flat_of, arr))
        calls.append((len(arr), len(out), through))
        return out

    for name, g in groups.items():
        for tag in _TYPE_TABLE:
            del calls[:]
            with monkeypatch.context() as mp:
                mp.setattr(Arrangement, "restricted", spy)
                got = _outcome(lambda: catalog.restriction_by_type(g, tag))
            assert got == want[name, tag], (name, tag)
            assert all(size == out + through
                       for size, out, through in calls), (name, tag)


def test_restriction_by_type_matches_the_whole_restriction(monkeypatch):
    groups = _restriction_groups()
    want = {(name, tag): _outcome(lambda: _whole_restriction(g, tag))
            for name, g in groups.items() for tag in _TYPE_TABLE}
    assert {"NoSuchType", "AmbiguousType", "ZeroDimensional"} < \
        set(want.values())
    _check_restrictions(groups, want, monkeypatch)
    # G27 alone has an exact key table among these; every group has one
    # once `_certified` fails
    assert [name for name, g in groups.items()
            if not catalog._group_keys(g)[1]] == ["G27"]
    monkeypatch.setattr(arrangement, "_certified", lambda covs, s: False)
    for g in groups.values():
        g._keys = None
    _check_restrictions(groups, want, monkeypatch)
    assert not any(catalog._group_keys(g)[1] for g in groups.values())


def test_one_key_table_per_group_across_orbits_and_restrictions(monkeypatch):
    # the mirrors are keyed once per group, at s = dim, for the orbit
    # levels of every codim and every restriction
    calls = []
    key_vectors = catalog._key_vectors

    def counted(covs, order, s):
        calls.append(s)
        return key_vectors(covs, order, s)

    monkeypatch.setattr(catalog, "_key_vectors", counted)
    for name, g in _fresh_groups().items():
        del calls[:]
        for codim in (1, 2, 3):
            flat_orbits(g, codim)
        for tag in _TYPE_TABLE:
            try:
                restriction_by_type(g, tag)
            except NoSuchType:
                pass
        assert calls == [g.dim], name


def test_orbit_and_restriction_mutants_are_caught(monkeypatch):
    # fields one bit narrower than a mask, which overlap; a shifts range
    # one generator short; a subarrangement without the flat's own
    # mirrors; classes keyed one rank below the flat
    orbit_groups = ("G25", "G26", "G28", "G29")
    restriction_groups = ("G25", "G28", "G29", "G33")
    mutants = (
        (catalog._orbit_levels, "range(0, len(perms) * m, m)",
         "range(0, len(perms) * (m - 1), m - 1)", orbit_groups),
        (catalog._orbit_levels, "range(0, len(perms) * m, m)",
         "range(0, (len(perms) - 1) * m, m)", orbit_groups),
        (catalog.restriction_by_type, "_bits(rep | lowest)",
         "_bits(lowest)", restriction_groups),
        (catalog.restriction_by_type, "rep, codim, full & ~rep",
         "rep, codim - 1, full & ~rep", restriction_groups),
    )
    groups = _fresh_groups()
    want = {(name, tag): _outcome(lambda: _whole_restriction(groups[name],
                                                             tag))
            for name in restriction_groups for tag in _TYPE_TABLE}
    for fn, old, new, names in mutants:
        src = inspect.getsource(fn)
        assert src.count(old) == 1, old
        namespace = dict(vars(catalog))
        exec(src.replace(old, new), namespace)
        picked = {name: groups[name] for name in names}
        check = (_check_orbit_levels if fn is catalog._orbit_levels else
                 lambda gs: _check_restrictions(gs, want, monkeypatch))
        with monkeypatch.context() as mp:
            mp.setattr(catalog, fn.__name__, namespace[fn.__name__])
            with pytest.raises((AssertionError, CatalogDataError)):
                check(picked)
        for g in picked.values():
            g._orbits = None
