"""Builders for the arrangement families shipped with the package.

The intermediate family places k coordinate hyperplanes next to every
ker(x_i - z^m x_j) and interpolates between the monomial reflection
arrangements G(r,r,l) (k = 0) and G(r,1,l) (k = l).  Exceptional
reflection arrangements are built from generator matrices shipped in
data/groups.dat: the mirrors of the generators that act as reflections
are closed under the generator action, and the closure is gated by the
expected mirror count, so wrong generator data cannot pass silently.

Restrictions of a reflection arrangement are addressed by a type tag
describing the localization at a flat: its rank, its size and, where
rank and size collide, the roots of its characteristic polynomial.
"""

from __future__ import annotations

import math
import re
from importlib import resources

from arrfree.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    RankLimit,
    _bits,
    _rref,
)
from arrfree.cyclotomic import (
    Cyc,
    FormatError,
    _coerce,
    parse_scalar,
    root_of_unity,
)


class InvalidParameter(ValueError):
    """Raised when a constructor parameter is outside its documented range."""


class CatalogDataError(ValueError):
    """Raised when shipped generator data fails its integrity gates."""


class NoSuchType(LookupError):
    """Raised when an arrangement has no flat of the requested type."""


class AmbiguousType(LookupError):
    """Raised when a type tag cannot be told apart from another tag."""


# -- intermediate arrangements -------------------------------------------------

def intermediate(r: int, ell: int, k: int) -> Arrangement:
    """k coordinate hyperplanes plus all ker(x_i - z^m x_j), z = zeta_r."""
    if r < 2 or ell < 2 or not 0 <= k <= ell:
        raise InvalidParameter(
            f"need r >= 2, ell >= 2 and 0 <= k <= ell, got r={r}, ell={ell}, k={k}")
    z = root_of_unity(r)
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
                v[j] = -(z ** m)
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
                 "_arrangement")

    def __init__(self, name: str, dim: int, order: int, expected: int,
                 generators):
        gens = []
        for mat in generators:
            rows = tuple(
                tuple((c if isinstance(c, Cyc) else _coerce(c, order))
                      .promote(order) for c in row)
                for row in mat)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise CatalogDataError(
                    f"{name}: generator is not a {dim}x{dim} matrix")
            span, _ = _rref([list(r) for r in rows])
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

    def __repr__(self):
        return (f"GroupPresentation({self.name}, dim={self.dim}, "
                f"generators={len(self.generators)})")


_HEADER_RE = re.compile(
    r"group\s+(\S+)\s+dim=(\d+)\s+zeta=(\d+)\s+hyperplanes=(\d+)\s*$")

_catalog_cache: dict[str, GroupPresentation] | None = None


def load_groups(text: str) -> dict[str, GroupPresentation]:
    """Parse group presentations from the groups.dat block format."""
    groups: dict[str, GroupPresentation] = {}
    name = None
    dim = order = expected = 0
    matrices: list[list[list[Cyc]]] = []
    rows: list[list[Cyc]] = []

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
            dim, order, expected = (int(m.group(i)) for i in (2, 3, 4))
            continue
        if name is None:
            raise CatalogDataError(
                f"groups.dat line {lineno}: matrix row before any group header")
        entries = [e.strip() for e in line.split(",")]
        if len(entries) != dim:
            raise CatalogDataError(
                f"{name} line {lineno}: expected {dim} entries, got {len(entries)}")
        try:
            rows.append([parse_scalar(e, order) for e in entries])
        except FormatError as exc:
            raise CatalogDataError(f"{name} line {lineno}: {exc}") from exc
        if len(rows) == dim:
            close_matrix()
    close_group()
    return groups


def _shipped_catalog() -> dict[str, GroupPresentation]:
    global _catalog_cache
    if _catalog_cache is None:
        text = resources.files("arrfree").joinpath("data/groups.dat").read_text()
        _catalog_cache = load_groups(text)
    return _catalog_cache


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
    span, _ = _rref(diff)
    if len(span) != 1:
        return None
    return span[0]


def _transform(h: Hyperplane, mat, order: int) -> Hyperplane:
    """Image hyperplane under the generator: covector times matrix."""
    dim = h.dim
    out = []
    for j in range(dim):
        acc = None
        for i in range(dim):
            c = h.coeffs[i]
            if c:
                term = c * mat[i][j]
                acc = term if acc is None else acc + term
        out.append(acc if acc is not None else 0)
    return Hyperplane(out, order)


def reflection_arrangement(g) -> Arrangement:
    """Mirrors of the group: orbit closure of the generator mirrors."""
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
    seen = {h.key(): h for h in seeds}
    frontier = list(seen.values())
    while frontier:
        fresh = []
        for h in frontier:
            for mat in g.generators:
                img = _transform(h, mat, g.order)
                key = img.key()
                if key not in seen:
                    if len(seen) >= g.expected:
                        raise CatalogDataError(
                            f"{g.name}: mirror closure exceeds the expected "
                            f"{g.expected}")
                    seen[key] = img
                    fresh.append(img)
        frontier = fresh
    if len(seen) != g.expected:
        raise CatalogDataError(
            f"{g.name}: mirror closure stopped at {len(seen)}, expected "
            f"{g.expected}")
    arr = Arrangement(g.dim, seen.values(), g.order)
    g._arrangement = arr
    return arr


def _generator_permutations(g: GroupPresentation,
                            arr: Arrangement) -> list[tuple[int, ...]]:
    """Each generator as a permutation of the hyperplane indices."""
    perms = []
    for mat in g.generators:
        perm = tuple(arr.index_of(_transform(h, mat, arr.order))
                     for h in arr.hyperplanes)
        perms.append(perm)
    return perms


# -- restrictions addressed by localization type ---------------------------------

# tag -> (codim of the flat, hyperplanes through it, nonzero roots of the
# localization's characteristic polynomial where rank and size collide)
_TYPE_TABLE: dict[str, tuple[int, int, tuple[int, ...] | None]] = {
    "A1": (1, 1, None),
    "A1^2": (2, 2, None),
    "A2": (2, 3, None),
    "A1^3": (3, 3, None),
    "A1A2": (3, 4, None),
    "A3": (3, 6, None),
    "G(3,3,3)": (3, 9, (1, 4, 4)),
    "B3": (3, 9, (1, 3, 5)),
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


def _localization_roots(arr: Arrangement, mask: int) -> tuple[int, ...] | None:
    keep = [arr.hyperplanes[i] for i in _bits(mask)]
    loc = Arrangement(arr.dim, keep, arr.order)
    exps = loc.candidate_exponents()
    if exps is None:
        return None
    return tuple(e for e in exps if e)


def _flats_of_codim(arr: Arrangement, codim: int):
    levels, bases = arr.partial_levels(codim)
    masks = levels[codim] if len(levels) > codim else ()
    return masks, bases


def restriction_by_type(g, tag: str) -> Arrangement:
    """Restrict the reflection arrangement at the canonically smallest flat
    whose localization matches the tag."""
    t = normalize_type(tag)
    codim, count, roots = _TYPE_TABLE[t]
    clashes = [u for u, (c, n, _) in _TYPE_TABLE.items()
               if u != t and (c, n) == (codim, count)]
    if clashes and roots is None:
        raise AmbiguousType(
            f"type {t} shares rank and size with {', '.join(clashes)} and "
            f"carries no discriminator")
    arr = reflection_arrangement(g)
    masks, bases = _flats_of_codim(arr, codim)
    matches = []
    for mask in masks:
        if mask.bit_count() != count:
            continue
        if roots is not None and _localization_roots(arr, mask) != roots:
            continue
        matches.append(mask)
    if not matches:
        name = g if isinstance(g, str) else g.name
        raise NoSuchType(f"{name} has no flat of type {t}")
    best = min(matches)
    rows, pivots = bases[best]
    flat = Flat(rows, pivots, arr.dim, arr.order)
    return arr.restricted(flat)


class FlatOrbitLabel:
    """One orbit of flats, labeled by the type of its localization."""

    __slots__ = ("tag", "representative", "codim", "count", "orbit_size")

    def __init__(self, tag: str, representative: Flat, codim: int, count: int,
                 orbit_size: int):
        self.tag = tag
        self.representative = representative
        self.codim = codim
        self.count = count
        self.orbit_size = orbit_size

    def __repr__(self):
        return (f"FlatOrbitLabel({self.tag}, codim={self.codim}, "
                f"count={self.count}, orbit_size={self.orbit_size})")


def _identify_type(arr: Arrangement, mask: int, codim: int,
                   count: int) -> str:
    candidates = [t for t, (c, n, _) in _TYPE_TABLE.items()
                  if (c, n) == (codim, count)]
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        roots = _localization_roots(arr, mask)
        hits = [t for t in candidates if _TYPE_TABLE[t][2] == roots]
        if len(hits) == 1:
            return hits[0]
    return f"unclassified(codim={codim},count={count})"


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i in _bits(mask):
        out |= 1 << perm[i]
    return out


def flat_orbits(g, codim: int) -> list[FlatOrbitLabel]:
    """Orbits of the codim-flats under the group, one label per orbit."""
    if isinstance(g, str):
        g = group(g)
    arr = reflection_arrangement(g)
    if codim == 0:
        top = Flat((), (), arr.dim, arr.order)
        return [FlatOrbitLabel("empty", top, 0, 0, 1)]
    if codim > 3:
        raise RankLimit(f"flat orbits are computed up to codimension 3, "
                        f"got {codim}")
    masks, bases = _flats_of_codim(arr, codim)
    perms = _generator_permutations(g, arr)
    unseen = set(masks)
    labels = []
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
                        if img not in unseen:
                            raise CatalogDataError(
                                f"{g.name}: orbit left the flat level; "
                                f"generator data is inconsistent")
                        orbit.add(img)
                        fresh.append(img)
            frontier = fresh
        unseen -= orbit
        rep = min(orbit)
        count = rep.bit_count()
        tag = _identify_type(arr, rep, codim, count)
        rows, pivots = bases[rep]
        flat = Flat(rows, pivots, arr.dim, arr.order)
        labels.append(FlatOrbitLabel(tag, flat, codim, count, len(orbit)))
    return labels


# -- canonical induction order ----------------------------------------------------

def canonical_induction_order(r: int, ell: int) -> list[Hyperplane]:
    """Hyperplanes of intermediate(r, ell, ell-2) in a certifying order.

    The list starts with the lifted order for intermediate(r, ell-1, ell-3),
    then ker(x_{ell-2}), then ker(x_k - z^j x_ell) with k ascending and j
    ascending inside each k."""
    if r < 2 or ell < 3:
        raise InvalidParameter(
            f"need r >= 2 and ell >= 3, got r={r}, ell={ell}")
    return [Hyperplane(v, r) for v in _ordered_covectors(r, ell)]


def _ordered_covectors(r: int, ell: int) -> list[list]:
    z = root_of_unity(r)
    if ell == 3:
        rows = [[1, -(z ** m)] for m in range(r)]
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
            v[ell - 1] = -(z ** j)
            rows.append(v)
    return rows
