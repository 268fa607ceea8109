"""Central hyperplane arrangements over Q(zeta_n) and their lattices.

Hyperplanes are normalized covectors (first nonzero entry 1).  The
intersection lattice is built level by level; every flat is identified by
the bitmask of the hyperplanes containing it, which is a complete
invariant for central arrangements.  All linear algebra is exact; a
fixed-prime modular image is used only as a sound filter (a rejection
mod p is always a true rejection, and every acceptance is confirmed
exactly before use).
"""

from __future__ import annotations

import math
import re
from itertools import combinations

from arrfree.cyclotomic import (
    Cyc,
    FormatError,
    _coerce,
    format_linear,
    parse_linear,
    parse_scalar,
    zero,
)


class NonSplitting(ValueError):
    """Raised when a characteristic polynomial does not factor into
    nonnegative integer roots."""


class NotMember(ValueError):
    """Raised when a hyperplane expected in an arrangement is absent."""


class NotAFlat(ValueError):
    """Raised when a restriction target is not a flat of the arrangement."""


class ZeroDimensional(ValueError):
    """Raised when a restriction would land in a zero-dimensional space."""


class RankLimit(ValueError):
    """Raised when a computation exceeds its guaranteed-tractable rank."""


# Modular filter prime: P = 439 * lcm(1..40) + 1, so every root order up
# to 40 embeds into F_P, compatibly across orders, via the primitive
# root 53.  Arrangements at other orders use the pure exact path.
_P = 2345546909650744801
_PRIMITIVE = 53

_mod_root_cache: dict[int, int | None] = {}


def _mod_root(order: int):
    r = _mod_root_cache.get(order, 0)
    if r == 0:
        r = (pow(_PRIMITIVE, (_P - 1) // order, _P)
             if (_P - 1) % order == 0 else None)
        _mod_root_cache[order] = r
    return r


def _mod_value(c: Cyc, root: int):
    if c.den % _P == 0:
        return None
    acc = 0
    w = 1
    for a in c.num:
        if a:
            acc = (acc + a * w) % _P
        w = w * root % _P
    return acc * pow(c.den, -1, _P) % _P


def _mod_rows(rows, root):
    """Images of exact rref rows in F_P, or None when not representable."""
    if root is None:
        return None
    out = []
    for r in rows:
        mr = []
        for c in r:
            v = _mod_value(c, root)
            if v is None:
                return None
            mr.append(v)
        out.append(tuple(mr))
    return tuple(out)


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


# -- exact linear algebra over Cyc -------------------------------------------

def _reduce(vec: list, rows, pivots) -> list:
    """Subtract from vec its projection onto the span of the rref rows."""
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def _in_span(vec, rows, pivots) -> bool:
    return not any(_reduce(list(vec), rows, pivots))


def _rref_extend(rows, pivots, vec):
    """Insert vec into an rref basis; None if vec is already in the span."""
    red = _reduce(list(vec), rows, pivots)
    p = next((i for i, v in enumerate(red) if v), None)
    if p is None:
        return None
    inv = red[p].inverse()
    red = tuple(v * inv for v in red)
    new_rows = []
    new_pivots = []
    placed = False
    for row, q in zip(rows, pivots):
        if not placed and p < q:
            new_rows.append(red)
            new_pivots.append(p)
            placed = True
        c = row[p]
        if c:
            row = tuple(a - c * b for a, b in zip(row, red))
        new_rows.append(row)
        new_pivots.append(q)
    if not placed:
        new_rows.append(red)
        new_pivots.append(p)
    return new_rows, new_pivots


def _rref(vectors):
    rows: list = []
    pivots: list = []
    for vec in vectors:
        ext = _rref_extend(rows, pivots, vec)
        if ext is not None:
            rows, pivots = ext
    return rows, pivots


# -- hyperplanes and flats ----------------------------------------------------

class Hyperplane:
    """A linear hyperplane, stored as a normalized covector."""

    __slots__ = ("coeffs", "order", "_key", "_hash")

    def __init__(self, coeffs, order: int = 1):
        vals = []
        for c in coeffs:
            if not isinstance(c, Cyc):
                cc = _coerce(c, 1)
                if cc is None:
                    raise TypeError(f"cannot use {c!r} as a covector entry")
                c = cc
            vals.append(c)
        if not vals:
            raise ValueError("a hyperplane needs at least one coordinate")
        order = math.lcm(order, *(c.order for c in vals))
        vals = [c.promote(order) for c in vals]
        lead = next((c for c in vals if c), None)
        if lead is None:
            raise ValueError("the zero covector does not define a hyperplane")
        if lead != 1:
            inv = lead.inverse()
            vals = [c * inv for c in vals]
        self.coeffs = tuple(vals)
        self.order = order
        self._key = None
        self._hash = None

    @classmethod
    def parse(cls, text: str, order: int, dim: int) -> "Hyperplane":
        coeffs = parse_linear(text, order, dim)
        if not any(coeffs):
            raise FormatError(
                f"the zero form {text!r} does not define a hyperplane")
        return cls(coeffs, order)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def form(self) -> str:
        """Render as a linear form in the coordinates a, b, c, ..."""
        return format_linear(self.coeffs)

    def promoted(self, order: int) -> "Hyperplane":
        if order == self.order:
            return self
        return Hyperplane(self.coeffs, order)

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(str(c) for c in self.coeffs)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        return f"Hyperplane({self.form()!r})"


class Flat:
    """A subspace, stored as the canonical rref basis of its annihilator."""

    __slots__ = ("rows", "pivots", "dim", "order")

    def __init__(self, rows, pivots, dim: int, order: int):
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        self.dim = dim
        self.order = order

    @classmethod
    def from_covectors(cls, covectors, dim: int, order: int = 1) -> "Flat":
        hs = []
        for v in covectors:
            h = v if isinstance(v, Hyperplane) else Hyperplane(v, order)
            if h.dim != dim:
                raise ValueError("covector length does not match dimension")
            order = math.lcm(order, h.order)
            hs.append(h)
        vecs = [[c.promote(order) for c in h.coeffs] for h in hs]
        rows, pivots = _rref(vecs)
        return cls(rows, pivots, dim, order)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains_flat_of(self, h: Hyperplane) -> bool:
        """True when this subspace lies inside the hyperplane."""
        n = math.lcm(self.order, h.order)
        vec = [c.promote(n) for c in h.coeffs]
        rows = self.rows if n == self.order else \
            [[c.promote(n) for c in r] for r in self.rows]
        return _in_span(vec, rows, self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Flat):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.dim, self.rows))

    def __repr__(self):
        return f"Flat(rank={self.rank}, dim={self.dim})"


# -- the arrangement -----------------------------------------------------------

class Arrangement:
    """A finite set of linear hyperplanes in a fixed dimension over Q(zeta_n)."""

    __slots__ = ("dim", "order", "hyperplanes", "_index", "_lattice",
                 "_lines", "_rank", "_hash", "_partial")

    def __init__(self, dim: int, hyperplanes=(), order: int = 1):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        hs = []
        for h in hyperplanes:
            if isinstance(h, str):
                h = Hyperplane.parse(h, order, dim)
            elif not isinstance(h, Hyperplane):
                h = Hyperplane(h, order)
            if h.dim != dim:
                raise ValueError(
                    f"hyperplane of dimension {h.dim} in a dimension-{dim} arrangement")
            hs.append(h)
        order = math.lcm(order, *(h.order for h in hs)) if hs else order
        hs = [h.promoted(order) for h in hs]
        dedup = {h.key(): h for h in hs}
        self.hyperplanes = tuple(dedup[k] for k in sorted(dedup))
        self._index = {h.key(): i for i, h in enumerate(self.hyperplanes)}
        self.dim = dim
        self.order = order
        self._lattice = None
        self._lines = None
        self._rank = None
        self._hash = None
        self._partial = {}

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def __contains__(self, h) -> bool:
        if not isinstance(h, Hyperplane):
            h = Hyperplane(h, self.order)
        if h.order == self.order:
            return h.key() in self._index
        return any(h == g for g in self.hyperplanes)

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        if self.dim != other.dim or len(self) != len(other):
            return False
        if self.order == other.order:
            return self.hyperplanes == other.hyperplanes
        n = math.lcm(self.order, other.order)
        a = sorted(h.promoted(n).key() for h in self.hyperplanes)
        b = sorted(h.promoted(n).key() for h in other.hyperplanes)
        return a == b

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.hyperplanes)))
        return self._hash

    def __repr__(self):
        return (f"Arrangement(dim={self.dim}, order={self.order}, "
                f"hyperplanes={len(self)})")

    def index_of(self, h) -> int:
        if not isinstance(h, Hyperplane):
            h = Hyperplane(h, self.order)
        if h.order == self.order:
            i = self._index.get(h.key())
            if i is not None:
                return i
        else:
            for i, g in enumerate(self.hyperplanes):
                if g == h:
                    return i
        raise NotMember(f"{h!r} is not in the arrangement")

    def rank(self) -> int:
        if self._rank is None:
            rows, _ = _rref([list(h.coeffs) for h in self.hyperplanes])
            self._rank = len(rows)
        return self._rank

    # -- construction steps -------------------------------------------------

    def with_hyperplane(self, h) -> "Arrangement":
        return Arrangement(self.dim, (*self.hyperplanes, h), self.order)

    def without_hyperplane(self, h) -> "Arrangement":
        i = self.index_of(h)
        rest = self.hyperplanes[:i] + self.hyperplanes[i + 1:]
        return Arrangement(self.dim, rest, self.order)

    def restricted(self, target) -> "Arrangement":
        """The arrangement induced on a hyperplane or on a flat."""
        known_flat = False
        if isinstance(target, Flat):
            flat = target
        else:
            if not isinstance(target, Hyperplane):
                target = Hyperplane(target, self.order)
            known_flat = target in self
            flat = Flat.from_covectors([target], self.dim, self.order)
        if flat.dim != self.dim:
            raise NotAFlat("flat dimension does not match the arrangement")
        if flat.rank == 0:
            return self
        if not known_flat:
            # membership in the lattice: the hyperplanes through the flat
            # must span its full annihilator
            through = [list(h.coeffs) for h in self.hyperplanes
                       if flat.contains_flat_of(h)]
            span, _ = _rref(through)
            if len(span) != flat.rank:
                raise NotAFlat("target is not an intersection of hyperplanes"
                               " of the arrangement")
        new_dim = self.dim - flat.rank
        if new_dim < 1:
            raise ZeroDimensional("restriction would have dimension zero")
        order = math.lcm(self.order, flat.order)
        rows = [[c.promote(order) for c in r] for r in flat.rows] \
            if order != flat.order else flat.rows
        taken = set(flat.pivots)
        free = [c for c in range(self.dim) if c not in taken]
        covs = []
        for h in self.hyperplanes:
            vec = _reduce([c.promote(order) for c in h.coeffs],
                          rows, flat.pivots)
            sub = [vec[c] for c in free]
            if any(sub):
                covs.append(sub)
        return Arrangement(new_dim, covs, order)

    def localized(self, flat: Flat) -> "Arrangement":
        """The subarrangement of hyperplanes containing the flat."""
        keep = [h for h in self.hyperplanes if flat.contains_flat_of(h)]
        return Arrangement(self.dim, keep, self.order)

    def product(self, other: "Arrangement") -> "Arrangement":
        order = math.lcm(self.order, other.order)
        za = zero(order)
        covs = []
        for h in self.hyperplanes:
            covs.append(list(h.coeffs) + [za] * other.dim)
        for h in other.hyperplanes:
            covs.append([za] * self.dim + list(h.coeffs))
        return Arrangement(self.dim + other.dim, covs, order)

    __mul__ = product

    # -- lattice invariants ---------------------------------------------------

    def intersection_lattice(self) -> "Lattice":
        if self._lattice is None:
            self._lattice = Lattice(self)
        return self._lattice

    def line_masks(self) -> tuple[int, ...]:
        """Bitmasks of the rank-2 flats, without building the full lattice."""
        if self._lines is None:
            levels, _ = self.partial_levels(2)
            self._lines = tuple(levels[2]) if len(levels) > 2 else ()
        return self._lines

    def partial_levels(self, max_rank: int):
        """Flat masks by rank up to max_rank, with their annihilator bases.

        Cached; served from the full lattice when that has been built."""
        if self._lattice is not None:
            lat = self._lattice
            return lat.levels[:max_rank + 1], lat._bases
        for depth in sorted(self._partial):
            if depth >= max_rank:
                levels, bases = self._partial[depth]
                return levels[:max_rank + 1], bases
        levels, bases = _build_levels(self, max_rank=max_rank)
        levels = tuple(tuple(lv) for lv in levels)
        self._partial[max_rank] = (levels, bases)
        return levels, bases

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of the characteristic polynomial, constant first."""
        return self.intersection_lattice().characteristic_polynomial()

    def candidate_exponents(self):
        """Sorted root multiset when the characteristic polynomial splits
        over the nonnegative integers, else None."""
        return _integer_roots(self.characteristic_polynomial(), len(self))

    def exponents(self) -> tuple[int, ...]:
        exps = self.candidate_exponents()
        if exps is None:
            raise NonSplitting(
                "characteristic polynomial has no nonnegative integer splitting")
        return exps

    def lattice_isomorphic(self, other: "Arrangement") -> bool:
        return lattice_isomorphic(self, other)

    # -- text form --------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"arr v1 dim={self.dim} zeta={self.order}"]
        for h in self.hyperplanes:
            lines.append(", ".join(str(c) for c in h.coeffs))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Arrangement":
        header = None
        covs = []
        dim = order = 0
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                m = re.fullmatch(r"arr v1 dim=(\d+) zeta=(\d+)", line)
                if not m:
                    raise FormatError(f"bad arrangement header: {raw.strip()!r}")
                header = line
                dim, order = int(m.group(1)), int(m.group(2))
                if dim < 1 or order < 1:
                    raise FormatError("dimension and zeta order must be positive")
                continue
            entries = [e.strip() for e in line.split(",")]
            if len(entries) != dim:
                raise FormatError(
                    f"expected {dim} covector entries, got {len(entries)}: {raw.strip()!r}")
            cov = [parse_scalar(e, order) for e in entries]
            if not any(cov):
                raise FormatError(
                    f"the zero covector does not define a hyperplane: {raw.strip()!r}")
            covs.append(cov)
        if header is None:
            raise FormatError("missing 'arr v1' header")
        return cls(dim, covs, order)


# -- lattice construction -------------------------------------------------------

class _FlatRec:
    __slots__ = ("mask", "rows", "pivots", "mrows")

    def __init__(self, mask, rows, pivots, mrows):
        self.mask = mask
        self.rows = rows
        self.pivots = pivots
        self.mrows = mrows


def _flat_mask(rows, pivots, known_mask, covs, mcovs, mrows):
    """Exact mask of the flat spanned by rows; modular filter plus exact
    confirmation."""
    mask = known_mask
    m = len(covs)
    for j in range(m):
        if mask >> j & 1:
            continue
        if mcovs is not None and mrows is not None:
            if not _mod_reduce_zero(list(mcovs[j]), mrows, pivots):
                continue
        if _in_span(covs[j], rows, pivots):
            mask |= 1 << j
    return mask


def _build_levels(arr: Arrangement, max_rank=None):
    """Flat masks per rank with their rref bases, level by level."""
    m = len(arr)
    dim = arr.dim
    covs = [list(h.coeffs) for h in arr.hyperplanes]
    root = _mod_root(arr.order)
    mcovs = None
    if root is not None:
        mcovs = []
        for v in covs:
            mv = [_mod_value(c, root) for c in v]
            if any(x is None for x in mv):
                mcovs = None
                break
            mcovs.append(tuple(mv))
    top = _FlatRec(0, (), (), () if mcovs is not None else None)
    levels = [[0]]
    bases = {0: ((), ())}
    current = [top]
    k = 0
    limit = max_rank if max_rank is not None else dim
    while current and k < limit:
        k += 1
        found: dict[int, _FlatRec] = {}
        buckets: dict[tuple, list[int]] = {}
        for X in current:
            skip = X.mask
            for i in range(m):
                if skip >> i & 1:
                    continue
                cand_mask = X.mask | (1 << i)
                rec = None
                key = None
                if mcovs is not None and X.mrows is not None:
                    key = _mod_rref_key(list(X.mrows) + [mcovs[i]], dim)
                    for mk in buckets.get(key, ()):
                        if cand_mask & ~mk == 0:
                            rec = found[mk]
                            break
                if rec is None:
                    rows, pivots = _rref_extend(list(X.rows), list(X.pivots),
                                                covs[i])
                    mrows = _mod_rows(rows, root) if mcovs is not None else None
                    mask = _flat_mask(rows, pivots, cand_mask, covs, mcovs,
                                      mrows)
                    rec = found.get(mask)
                    if rec is None:
                        rec = _FlatRec(mask, tuple(rows), tuple(pivots), mrows)
                        found[mask] = rec
                        bases[mask] = (rec.rows, rec.pivots)
                    if key is not None:
                        buckets.setdefault(key, []).append(rec.mask)
                skip |= rec.mask
        masks = sorted(found)
        levels.append(masks)
        current = [found[mask] for mask in masks]
    if not levels[-1]:
        levels.pop()
    return levels, bases


class Lattice:
    """Intersection lattice of a central arrangement; flats are bitmasks."""

    __slots__ = ("arrangement", "levels", "_bases", "_mobius", "_charpoly")

    def __init__(self, arrangement: Arrangement):
        levels, bases = _build_levels(arrangement)
        self.arrangement = arrangement
        self.levels = tuple(tuple(lv) for lv in levels)
        self._bases = bases
        self._mobius = None
        self._charpoly = None

    @property
    def rank(self) -> int:
        return len(self.levels) - 1

    def flats(self, rank: int) -> tuple[int, ...]:
        if 0 <= rank < len(self.levels):
            return self.levels[rank]
        return ()

    def flat(self, mask: int) -> Flat:
        rows, pivots = self._bases[mask]
        return Flat(rows, pivots, self.arrangement.dim, self.arrangement.order)

    def mobius(self) -> dict[int, int]:
        if self._mobius is None:
            mob = {0: 1}
            lower = [(0, 1)]
            for level in self.levels[1:]:
                new = []
                for mask in level:
                    s = 0
                    for m2, mu in lower:
                        if m2 & mask == m2:
                            s += mu
                    mob[mask] = -s
                    new.append((mask, -s))
                lower.extend(new)
            self._mobius = mob
        return self._mobius

    def characteristic_polynomial(self) -> tuple[int, ...]:
        if self._charpoly is None:
            dim = self.arrangement.dim
            coeffs = [0] * (dim + 1)
            mob = self.mobius()
            for k, level in enumerate(self.levels):
                for mask in level:
                    coeffs[dim - k] += mob[mask]
            self._charpoly = tuple(coeffs)
        return self._charpoly


def _divide_out(poly, r):
    d = len(poly) - 1
    q = [0] * d
    acc = poly[d]
    for i in range(d - 1, -1, -1):
        q[i] = acc
        acc = poly[i] + r * acc
    return q, acc


def _integer_roots(coeffs, bound: int):
    poly = list(coeffs)
    roots = []
    for r in range(bound + 1):
        while len(poly) > 1:
            q, rem = _divide_out(poly, r)
            if rem:
                break
            poly = q
            roots.append(r)
    if len(poly) == 1:
        return tuple(roots)
    return None


# -- lattice isomorphism ---------------------------------------------------------

def _wl_colors(m: int, levels):
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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _line_size_matrix(m: int, line_masks):
    mat = [[0] * m for _ in range(m)]
    for mask in line_masks:
        atoms = list(_bits(mask))
        s = len(atoms)
        for i, j in combinations(atoms, 2):
            mat[i][j] = s
            mat[j][i] = s
    return mat


def lattice_isomorphic(a: Arrangement, b: Arrangement) -> bool:
    """Exact combinatorial isomorphism of the two intersection lattices."""
    m = len(a)
    if len(b) != m:
        return False
    if m == 0:
        return True
    la = a.intersection_lattice()
    lb = b.intersection_lattice()
    if la.rank != lb.rank:
        return False
    if [len(lv) for lv in la.levels] != [len(lv) for lv in lb.levels]:
        return False
    if la.rank < 2:
        return True
    for k in range(2, la.rank + 1):
        pa = sorted(bin(x).count("1") for x in la.levels[k])
        pb = sorted(bin(x).count("1") for x in lb.levels[k])
        if pa != pb:
            return False
    cola = _wl_colors(m, la.levels)
    colb = _wl_colors(m, lb.levels)
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
            for k in range(2, la.rank + 1):
                mapped = set()
                for mask in la.levels[k]:
                    img = 0
                    for i in _bits(mask):
                        img |= 1 << sigma[i]
                    mapped.add(img)
                if mapped != target_sets[k]:
                    return False
            return True
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
