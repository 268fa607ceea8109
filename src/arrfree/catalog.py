"""Builders for the arrangement families shipped with the package.

The intermediate family places k coordinate hyperplanes next to every
ker(x_i - z^m x_j) and interpolates between the monomial reflection
arrangements G(r,r,l) (k = 0) and G(r,1,l) (k = l).  Exceptional
reflection arrangements are built from generator matrices shipped in
data/groups.dat: the mirrors of the generators that act as reflections
are closed under the generator action, and the closure is gated by the
expected mirror count, so wrong generator data cannot pass silently.
The closure keys each mirror by its covector mod a fixed prime P: an
image's key is its mirror's residue times the generator's residue
matrix, and only a new key costs an exact image, so each mirror's exact
covector is computed once.  The keys stand when a norm bound over the
mirrors and their images shows that covectors differing exactly differ
mod P; otherwise the closure runs again on exact keys.

A group's flats are built one orbit at a time (`_orbit_levels`): only
the least flat of each orbit of rank k - 1 is keyed, and rank k is the
closure of its covers under the generators' permutations of the
mirrors, read as tables of bits, which also sorts it into orbits.
Wrong permutations are refused by two checks: an orbit's least mask
must be a flat, and a rank may not outgrow the bound that its cover
pairs give.

Restrictions of a reflection arrangement are addressed by a type tag
naming the localization at a flat by the nonzero roots of its
characteristic polynomial, which also fix its rank and its size.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from operator import mul
from typing import NamedTuple

from arrfree.arrangement import (
    _P,
    Arrangement,
    Flat,
    Hyperplane,
    _bits,
    _key_vectors,
    _keys_over,
    _l1,
    _mod_root,
    _mod_span,
    _mod_vector,
    _norm_bound,
    _rref,
    _sub_exponents,
    lattice_isomorphic,
)
from arrfree.cyclotomic import (
    ArrfreeError,
    Cyc,
    MAX_DIM,
    MAX_ORDER,
    FormatError,
    InvalidParameter,
    _coerce,
    _dot,
    _parse_row,
    _read_int,
    check_header,
    root_of_unity,
)


class CatalogDataError(ArrfreeError, ValueError):
    """Raised when shipped generator data fails its integrity gates."""


class NoSuchType(ArrfreeError, LookupError):
    """Raised when an arrangement has no flat of the requested type."""


class AmbiguousType(ArrfreeError, LookupError):
    """Raised when flats of one type tag have restrictions that differ."""


# -- intermediate arrangements -------------------------------------------------

def intermediate(r: int, ell: int, k: int) -> Arrangement:
    """k coordinate hyperplanes plus all ker(x_i - z^m x_j), z = zeta_r."""
    if not (2 <= r <= MAX_ORDER and 2 <= ell <= MAX_DIM and 0 <= k <= ell):
        raise InvalidParameter(
            f"need 2 <= r <= {MAX_ORDER}, 2 <= ell <= {MAX_DIM} and"
            f" 0 <= k <= ell, got r={r}, ell={ell}, k={k}")
    covs = []
    for i in range(k):
        v = [0] * ell
        v[i] = 1
        covs.append(v)
    for i in range(ell):
        for j in range(i + 1, ell):
            for m in range(r):
                v = [0] * ell
                v[i] = 1
                v[j] = -root_of_unity(r, m)
                covs.append(v)
    return Arrangement(ell, covs, r)


def intermediate_exponents(r: int, ell: int, k: int) -> tuple[int, ...]:
    """Closed-form exponents of the intermediate arrangement."""
    if r < 2 or ell < 2 or not 0 <= k <= ell:
        raise InvalidParameter(
            f"need r >= 2, ell >= 2 and 0 <= k <= ell, got r={r}, ell={ell}, k={k}")
    exps = [i * r + 1 for i in range(ell - 1)]
    exps.append((ell - 1) * r - ell + k + 1)
    return tuple(sorted(exps))


def monomial_arrangement(r: int, p: int, ell: int) -> Arrangement:
    """Reflection arrangement of the monomial group G(r,p,ell), p | r."""
    if r < 2 or ell < 2 or p < 1 or r % p != 0:
        raise InvalidParameter(
            f"need r >= 2, ell >= 2 and p | r, got r={r}, p={p}, ell={ell}")
    # every proper divisor p gives the same mirrors as p = 1
    return intermediate(r, ell, 0 if p == r else ell)


# -- shipped group presentations -------------------------------------------------

class GroupPresentation:
    """Named generator matrices for a finite reflection group."""

    __slots__ = ("name", "dim", "order", "expected", "generators",
                 "_arrangement", "_permutations", "_orbits")

    def __init__(self, name: str, dim: int, order: int, expected: int,
                 generators):
        gens = []
        for mat in generators:
            # _coerce gives None for an entry that is not a number
            rows = tuple(
                tuple(c.promote(order) if isinstance(c, Cyc)
                      else _coerce(c, order) for c in row)
                for row in mat)
            if len(rows) != dim or any(len(r) != dim or None in r for r in rows):
                raise CatalogDataError(
                    f"{name}: generator is not a {dim}x{dim} matrix of numbers")
            span, _ = _rref(rows)
            if len(span) != dim:
                raise CatalogDataError(f"{name}: singular generator matrix")
            gens.append(rows)
        if not gens:
            raise CatalogDataError(f"{name}: no generators")
        self.name = name
        self.dim = dim
        self.order = order
        self.expected = expected
        self.generators = tuple(gens)
        self._arrangement = None
        self._permutations = None
        self._orbits = None

    def __repr__(self):
        return (f"GroupPresentation({self.name}, dim={self.dim}, "
                f"generators={len(self.generators)})")


_HEADER_RE = re.compile(
    r"group\s+(\S+)\s+dim=(\d+)\s+zeta=(\d+)\s+hyperplanes=(\d+)\s*$")


def load_groups(text: str) -> dict[str, GroupPresentation]:
    """Parse group presentations from the groups.dat block format."""
    groups: dict[str, GroupPresentation] = {}
    name = None
    dim = order = expected = 0
    matrices: list[list[list[Cyc]]] = []
    rows: list[list[Cyc]] = []
    memo: dict = {}

    def close_matrix():
        nonlocal rows
        if rows:
            matrices.append(rows)
            rows = []

    def close_group():
        nonlocal matrices
        if name is None:
            return
        close_matrix()
        if not matrices:
            raise CatalogDataError(f"{name}: no generator matrices")
        groups[name] = GroupPresentation(name, dim, order, expected, matrices)
        matrices = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            close_matrix()
            continue
        m = _HEADER_RE.match(line)
        if m:
            close_group()
            name = m.group(1)
            if name in groups:
                raise CatalogDataError(f"{name} line {lineno}: repeated group")
            try:
                dim, order = check_header(m.group(2), m.group(3))
                expected = _read_int(m.group(4))
            except FormatError as exc:
                raise CatalogDataError(f"{name} line {lineno}: {exc}") from exc
            if expected < 1:
                raise CatalogDataError(
                    f"{name} line {lineno}: hyperplanes must be positive")
            continue
        if name is None:
            raise CatalogDataError(
                f"groups.dat line {lineno}: matrix row before any group header")
        entries = [e.strip() for e in line.split(",")]
        if len(entries) != dim:
            raise CatalogDataError(
                f"{name} line {lineno}: expected {dim} entries, got {len(entries)}")
        try:
            rows.append(_parse_row(entries, order, memo))
        except FormatError as exc:
            raise CatalogDataError(f"{name} line {lineno}: {exc}") from exc
        if len(rows) == dim:
            close_matrix()
    close_group()
    return groups


@lru_cache(maxsize=None)
def _shipped_catalog() -> dict[str, GroupPresentation]:
    text = resources.files("arrfree").joinpath("data/groups.dat").read_text()
    return load_groups(text)


def group(name: str) -> GroupPresentation:
    """Look up a shipped group presentation by name."""
    cat = _shipped_catalog()
    g = cat.get(name)
    if g is None:
        raise InvalidParameter(
            f"unknown group {name!r}; shipped: {', '.join(sorted(cat))}")
    return g


def group_names() -> tuple[str, ...]:
    return tuple(sorted(_shipped_catalog()))


# -- reflection arrangements by orbit closure ------------------------------------

def _mirror_covector(mat, dim: int):
    """Nonzero row of (mat - id) when the matrix is a reflection, else None."""
    diff = []
    for i in range(dim):
        row = list(mat[i])
        row[i] = row[i] - 1
        diff.append(row)
    # a second pivot already rules out a reflection
    span, _ = _rref(diff, 2)
    if len(span) != 1:
        return None
    return span[0]


def _transform(h: Hyperplane, mat, order: int) -> Hyperplane:
    """Image hyperplane under the generator: covector times matrix, each
    entry one exact dot product with a column; h and the matrix are over
    Q(zeta_order), as a presentation's mirrors and generators are."""
    return Hyperplane([_dot(order, h.coeffs, col) for col in zip(*mat)],
                      order)


def _residues(g, seeds):
    """The generators' columns and the seed mirrors mod P, or None when the
    order has no root mod P, or an entry's denominator is divisible by P,
    or a generator is singular mod P.  A nonsingular generator sends a
    nonzero residue to a nonzero one, so every image has a key."""
    root = _mod_root(g.order)
    if not root:
        return None
    mats = [[_mod_vector(row, root) for row in mat] for mat in g.generators]
    vecs = [_mod_vector(h.coeffs, root) for h in seeds]
    full = (1 << g.dim) - 1
    if None in vecs or any(None in m or len(_mod_span(m, full, g.dim)[1])
                           < g.dim for m in mats):
        return None
    return [list(zip(*m)) for m in mats], [tuple(v) for v in vecs]


def _image_key(vec, cols) -> tuple:
    """The key of a mirror's image: its residue vec times the generator's
    residue matrix, given by its columns, scaled to lead with 1."""
    vals = [sum(map(mul, vec, col)) % _P for col in cols]
    inv = pow(next(filter(None, vals)), -1, _P)
    return tuple(v * inv % _P for v in vals)


def _close(g, seeds, residues):
    """The mirrors in the order found, and for each generator the index of
    the image of each mirror.  A mirror's key is its covector mod P from
    `_residues`, or with residues None the exact `Hyperplane.key`; only a
    new key costs an exact `_transform`.  Distinct keys are distinct
    mirrors in both modes, so the count gate can refuse an excess here."""
    cols, vecs = residues or ((None,) * len(g.generators),
                              [h.key() for h in seeds])
    mirrors: list = []
    keys: list = []
    index: dict = {}
    images = [[] for _ in g.generators]

    def add(key, h) -> int:
        if len(index) >= g.expected:
            raise CatalogDataError(
                f"{g.name}: mirror closure exceeds the expected {g.expected}")
        index[key] = len(mirrors)
        mirrors.append(h)
        keys.append(key)
        return index[key]

    for key, h in zip(vecs, seeds):
        if key not in index:
            add(key, h)
    # breadth first: mirror a's images are taken after those of 0 .. a-1
    a = 0
    while a < len(mirrors):
        for mat, col, image in zip(g.generators, cols, images):
            if residues:
                img, key = None, _image_key(keys[a], col)
            else:
                img = _transform(mirrors[a], mat, g.order)
                key = img.key()
            b = index.get(key)
            if b is None:
                b = add(key, img or _transform(mirrors[a], mat, g.order))
            image.append(b)
        a += 1
    return mirrors, images


def _closure_certified(mirrors, generators) -> bool:
    """`_certified` at s = 2 over the mirrors and all their generator
    images: then covectors that differ exactly differ mod P.  An image's
    entries are bounded without computing it: with denominators cleared,
    entry j of h times g is at most sum_i l1(h_i) l1(g_ij)."""
    sizes = [_l1(h.coeffs) for h in mirrors]
    bounds = list(sizes)
    for mat in generators:
        flat = _l1([c for row in mat for c in row])
        cols = [flat[j::len(mat)] for j in range(len(mat))]
        bounds += [[sum(map(mul, a, col)) for col in cols] for a in sizes]
    return _norm_bound(bounds, 2 * len(mirrors[0].coeffs[0].num))


def reflection_arrangement(g) -> Arrangement:
    """Mirrors of the group: orbit closure of the generator mirrors; also
    records each generator as a permutation of them in g._permutations.

    The closure runs on keys mod P when `_residues` has them, and stands
    when `_closure_certified` holds: then the key lookups are the exact
    images.  Otherwise it runs again on the exact keys (G24, G27)."""
    if isinstance(g, str):
        g = group(g)
    if g._arrangement is not None:
        return g._arrangement
    seeds = []
    for mat in g.generators:
        cov = _mirror_covector(mat, g.dim)
        if cov is not None:
            seeds.append(Hyperplane(cov, g.order))
    if not seeds:
        raise CatalogDataError(f"{g.name}: no generator acts as a reflection")
    residues = _residues(g, seeds)
    mirrors, images = _close(g, seeds, residues)
    if residues and not _closure_certified(mirrors, g.generators):
        mirrors, images = _close(g, seeds, None)
    if len(mirrors) != g.expected:
        raise CatalogDataError(
            f"{g.name}: mirror closure stopped at {len(mirrors)}, expected "
            f"{g.expected}")
    arr = Arrangement(g.dim, mirrors, g.order)
    pos = [arr.index_of(h) for h in mirrors]
    g._permutations = tuple(tuple(pos[b] for _, b in sorted(zip(pos, image)))
                            for image in images)
    g._arrangement = arr
    return arr


# -- flats one orbit at a time --------------------------------------------------

def _orbit_levels(g, codim: int):
    """g's flat masks by rank up to codim, and each rank's orbits under
    the group as sorted (least mask, size) pairs; kept in g._orbits, from
    which a deeper request resumes.

    Only each orbit's least flat X of rank k - 1 is keyed: its covers are
    X | c for the classes c of `_keys_over`, the keys chosen once per
    call as in `_build_levels`, and rank k is their closure under
    g._permutations, found breadth first with its orbits.  A generator's
    table holds bit[a] = 1 << perm[a], so an image is the sum of the table
    over the flat's atoms, read once per flat; an image found by an
    involutive generator skips it, as its image there is the parent.

    This is sound: the permutations are read off the mirror closure's
    exact key lookups, so each is a generator's action on the mirrors, a
    linear automorphism that maps flats to flats; a rank-k flat Y covers
    some w X, so w^-1 Y is a cover of X and Y lies in the orbit of a
    cover found.

    Two checks refuse wrong permutations, in time bounded by the true
    levels: (a) a hyperplane outside X whose residue over X is zero lies
    in X's span, so X is no flat; (b) every rank-k flat covers at least k
    flats, so rank k holds at most sum_O |O| c(O) / k flats, c(O) the
    number of covers of orbit O's least flat."""
    arr = reflection_arrangement(g)
    levels, orbits = g._orbits or (((0,),), (((0, 1),),))
    full = (1 << len(arr)) - 1
    if len(levels) > codim or levels[-1] == (full,):
        return levels[:codim + 1], orbits[:codim + 1]
    vecs, mod = _key_vectors([h.coeffs for h in arr.hyperplanes], arr.order,
                             min(codim + 1, arr.dim))
    tables = [([1 << p for p in perm],
               all(perm[p] == a for a, p in enumerate(perm)))
              for perm in g._permutations]
    levels, orbits = list(levels), list(orbits)
    while len(levels) <= codim and levels[-1] != (full,):
        k = len(levels)
        covers, pairs = [], 0
        for rep, size in orbits[-1]:
            try:
                classes = _keys_over(vecs, mod, rep, k - 1, full & ~rep)
            except StopIteration:
                raise CatalogDataError(
                    f"{g.name}: an orbit of rank {k - 1} holds a set of"
                    f" mirrors that is not a flat; generator data is"
                    f" inconsistent") from None
            pairs += size * len(classes)
            covers += [rep | c for c in classes.values()]
        bound = pairs // k
        seen: set = set()
        reps = []
        for start in covers:
            if start in seen:
                continue
            seen.add(start)
            least, size, frontier = start, 1, [(start, None)]
            while frontier:
                fresh = []
                for mask, parent in frontier:
                    atoms = []
                    while mask:
                        low = mask & -mask
                        atoms.append(low.bit_length() - 1)
                        mask ^= low
                    for gen, (bit, involutive) in enumerate(tables):
                        if gen == parent:
                            continue
                        img = sum(map(bit.__getitem__, atoms))
                        if img not in seen:
                            seen.add(img)
                            fresh.append((img, gen if involutive else None))
                            if img < least:
                                least = img
                    if len(seen) > bound:
                        raise CatalogDataError(
                            f"{g.name}: the orbits of rank {k} exceed the"
                            f" {bound} flats their covers allow; generator"
                            f" data is inconsistent")
                size += len(fresh)
                frontier = fresh
            reps.append((least, size))
        levels.append(tuple(sorted(seen)))
        orbits.append(tuple(sorted(reps)))
    g._orbits = tuple(levels), tuple(orbits)
    return g._orbits[0][:codim + 1], g._orbits[1][:codim + 1]


# -- restrictions addressed by localization type ---------------------------------

# tag -> nonzero roots of the localization's characteristic polynomial;
# their number is the flat's codimension, their sum its hyperplane count
_TYPE_TABLE: dict[str, tuple[int, ...]] = {
    "A1": (1,),
    "A1^2": (1, 1),
    "A2": (1, 2),
    "A1^3": (1, 1, 1),
    "A1A2": (1, 1, 2),
    "A3": (1, 2, 3),
    "G(3,3,3)": (1, 4, 4),
    "B3": (1, 3, 5),
}

_TYPE_ALIASES = {
    "G333": "G(3,3,3)",
    "A2A1": "A1A2",
}


def normalize_type(tag: str) -> str:
    t = tag.strip().upper().replace(" ", "")
    t = t.replace("²", "^2").replace("³", "^3")
    t = _TYPE_ALIASES.get(t, t)
    if t not in _TYPE_TABLE:
        raise NoSuchType(
            f"unknown restriction type {tag!r}; known: "
            f"{', '.join(sorted(_TYPE_TABLE))}")
    return t


def _localization_roots(levels, mask: int, dim: int):
    """Nonzero roots of the localization at the flat mask, or None."""
    exps = _sub_exponents(levels, mask, dim)
    return None if exps is None else tuple(e for e in exps if e)


class FlatOrbitLabel(NamedTuple):
    """One orbit of flats, labeled by the type of its localization."""

    tag: str
    representative: Flat
    codim: int
    count: int
    orbit_size: int


def flat_orbits(g, codim: int) -> list[FlatOrbitLabel]:
    """Orbits of the codim-flats under the group, one label per orbit,
    in the order of their representatives (`_orbit_levels`); none when
    codim exceeds the rank.  A label's tag names its representative's
    localization, whose flats are those below it: the flats of lower
    rank and the representative itself.  Its flat is the rref of its
    atoms, which span rank codim."""
    if codim < 0:
        raise InvalidParameter(f"codim must be nonnegative, got {codim}")
    if isinstance(g, str):
        g = group(g)
    arr = reflection_arrangement(g)
    covs = [h.coeffs for h in arr.hyperplanes]
    levels, orbits = _orbit_levels(g, codim)
    labels = []
    for rep, size in orbits[codim] if len(orbits) > codim else ():
        count = rep.bit_count()
        roots = _localization_roots((*levels[:codim], (rep,)), rep, arr.dim)
        tag = "empty" if not codim else next(
            (t for t, r in _TYPE_TABLE.items() if r == roots),
            f"unclassified(codim={codim},count={count})")
        flat = Flat(*_rref((covs[j] for j in _bits(rep)), codim), arr.dim,
                    arr.order)
        labels.append(FlatOrbitLabel(tag, flat, codim, count, size))
    return labels


def restriction_by_type(g, tag: str) -> Arrangement:
    """Restrict the reflection arrangement at the canonically smallest flat
    whose localization matches the tag: the first of `flat_orbits`'
    labels with that tag, as the type is constant on an orbit.  Raises
    `AmbiguousType` when orbits of that type have restrictions whose
    lattices differ, so the tag names no one restriction."""
    if isinstance(g, str):
        g = group(g)
    t = normalize_type(tag)
    reps = [lab.representative for lab in flat_orbits(g, len(_TYPE_TABLE[t]))
            if lab.tag == t]
    if not reps:
        raise NoSuchType(f"{g.name} has no flat of type {t}")
    arr = reflection_arrangement(g)
    first, *others = (arr.restricted(flat) for flat in reps)
    for other in others:
        if not lattice_isomorphic(first, other):
            raise AmbiguousType(
                f"{g.name} has {len(reps)} orbits of flats of type {t}"
                f" whose restrictions differ")
    return first


# -- canonical induction order ----------------------------------------------------

def canonical_induction_order(r: int, ell: int) -> list[Hyperplane]:
    """Hyperplanes of intermediate(r, ell, ell-2) in a certifying order.

    The list starts with the lifted order for intermediate(r, ell-1, ell-3),
    then ker(x_{ell-2}), then ker(x_k - z^j x_ell) with k ascending and j
    ascending inside each k."""
    if not 2 <= r <= MAX_ORDER or not 3 <= ell <= MAX_DIM:
        raise InvalidParameter(
            f"need 2 <= r <= {MAX_ORDER} and 3 <= ell <= {MAX_DIM},"
            f" got r={r}, ell={ell}")
    return [Hyperplane(v, r) for v in _ordered_covectors(r, ell)]


def _ordered_covectors(r: int, ell: int) -> list[list]:
    if ell == 3:
        rows = [[1, -root_of_unity(r, m)] for m in range(r)]
    else:
        rows = _ordered_covectors(r, ell - 1)
    rows = [row + [0] for row in rows]
    coord = [0] * ell
    coord[ell - 3] = 1
    rows.append(coord)
    for k in range(1, ell):
        for j in range(r):
            v = [0] * ell
            v[k - 1] = 1
            v[ell - 1] = -root_of_unity(r, j)
            rows.append(v)
    return rows
