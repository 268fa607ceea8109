"""Central hyperplane arrangements over Q(zeta_n) and their lattices.

Hyperplanes are normalized covectors (first nonzero entry 1).  The
intersection lattice is built level by level; every flat is identified by
the bitmask of the hyperplanes containing it, which is a complete
invariant for central arrangements.  Each flat is found once: the atoms
are the hyperplanes, and the flats just above a flat X of rank >= 1 are
the classes of the hyperplanes outside X under one key each, the
covector modulo X's rref basis, scaled to lead with 1.
The keys are read modulo a fixed prime P when a norm bound, checked once
per build, shows that ranks mod P are the exact ranks, and are computed
exactly otherwise.  Only the levels carry over from one rank to the next.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from operator import mul

from arrfree.cyclotomic import (
    ArrfreeError,
    Cyc,
    FormatError,
    InvalidParameter,
    NotAScalar,
    _coerce,
    _parse_row,
    check_header,
    format_linear,
    parse_linear,
    zero,
)


class NonSplitting(ArrfreeError, ValueError):
    """Raised when a characteristic polynomial does not factor into
    nonnegative integer roots."""


class NotMember(ArrfreeError, ValueError):
    """Raised when a hyperplane expected in an arrangement is absent."""


class NotAFlat(ArrfreeError, ValueError):
    """Raised when a restriction target is not a flat of the arrangement."""


class ZeroDimensional(ArrfreeError, ValueError):
    """Raised when a restriction would land in a zero-dimensional space."""


class RankLimit(ArrfreeError, ValueError):
    """Raised when a computation exceeds its guaranteed-tractable rank."""


# The key prime: P = 439 * lcm(1..40) + 1, so every root order up to 40
# embeds into F_P, compatibly across orders, via the primitive root 53.
# Arrangements at other orders take the exact keys.
_P = 2345546909650744801
_PRIMITIVE = 53


@lru_cache(maxsize=None)
def _mod_root(order: int):
    if (_P - 1) % order:
        return None
    return pow(_PRIMITIVE, (_P - 1) // order, _P)


def _mod_vector(vec, root: int):
    """The image of an exact vector in F_P, or None when not representable."""
    out = []
    for c in vec:
        if c.den % _P == 0:
            return None
        acc = 0
        for a in reversed(c.num):
            acc = (acc * root + a) % _P
        out.append(acc * pow(c.den, -1, _P) % _P)
    return out


# -- exact linear algebra over Cyc -------------------------------------------

def _reduce(vec, rows, pivots):
    """Subtract from vec its projection onto the span of the rref rows;
    vec is any sequence and is left unchanged."""
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    return vec


def _rref_insert(rows, pivots, red, p):
    """Insert a vector already reduced by the rref basis; p is its first
    nonzero coordinate."""
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


def _exact_insert(rows, pivots, vec):
    """Insert vec into an rref basis over Q(zeta_n); None when vec lies in
    its span."""
    red = _reduce(vec, rows, pivots)
    p = next((i for i, v in enumerate(red) if v), None)
    return None if p is None else _rref_insert(rows, pivots, red, p)


def _rref(vectors, rank=None):
    """The rref basis (rows, pivots) of the span of the vectors.  It is
    unique, so it does not depend on their order; rank, when known, stops
    the scan once that many rows are found."""
    rows, pivots = (), ()
    for vec in vectors:
        if len(rows) == rank:
            break
        rows, pivots = _exact_insert(rows, pivots, vec) or (rows, pivots)
    return tuple(rows), tuple(pivots)


# -- hyperplanes and flats ----------------------------------------------------

class Hyperplane:
    """A linear hyperplane, stored as a normalized covector."""

    __slots__ = ("coeffs", "order", "_key")

    def __init__(self, coeffs, order: int = 1):
        vals = []
        for c in coeffs:
            if not isinstance(c, Cyc):
                cc = _coerce(c, 1)
                if cc is None:
                    raise NotAScalar(f"cannot use {c!r} as a covector entry")
                c = cc
            vals.append(c)
        if not vals:
            raise InvalidParameter(
                "a hyperplane needs at least one coordinate")
        order = math.lcm(order, *(c.order for c in vals))
        vals = [c.promote(order) for c in vals]
        lead = next((c for c in vals if c), None)
        if lead is None:
            raise InvalidParameter(
                "the zero covector does not define a hyperplane")
        if lead != 1:
            inv = lead.inverse()
            vals = [c * inv for c in vals]
        self.coeffs = tuple(vals)
        self.order = order
        self._key = None

    @classmethod
    def parse(cls, text: str, order: int, dim: int,
              memo=None) -> "Hyperplane":
        coeffs = parse_linear(text, order, dim, memo)
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
        return hash(self.coeffs)

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
                raise InvalidParameter(
                    "covector length does not match dimension")
            order = math.lcm(order, h.order)
            hs.append(h)
        vecs = ([c.promote(order) for c in h.coeffs] for h in hs)
        return cls(*_rref(vecs), dim, order)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains_flat_of(self, h: Hyperplane) -> bool:
        """True when this subspace lies inside the hyperplane."""
        n = math.lcm(self.order, h.order)
        vec = [c.promote(n) for c in h.coeffs]
        rows = self.rows if n == self.order else \
            [[c.promote(n) for c in r] for r in self.rows]
        return not any(_reduce(vec, rows, self.pivots))

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
                 "_rank", "_partial")

    def __init__(self, dim: int, hyperplanes=(), order: int = 1):
        if dim < 1:
            raise InvalidParameter("dimension must be at least 1")
        hs = []
        for h in hyperplanes:
            if isinstance(h, str):
                h = Hyperplane.parse(h, order, dim)
            elif not isinstance(h, Hyperplane):
                h = Hyperplane(h, order)
            if h.dim != dim:
                raise InvalidParameter(
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
        self._rank = None
        self._partial = ((0,),)

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def _find(self, h):
        """The index of h, or None.  A hyperplane over a subfield is looked
        up by key; any other is compared with each member."""
        if not isinstance(h, Hyperplane):
            h = Hyperplane(h, self.order)
        if self.order % h.order == 0:
            return self._index.get(h.promoted(self.order).key())
        return next((i for i, g in enumerate(self.hyperplanes) if g == h), None)

    def __contains__(self, h) -> bool:
        return self._find(h) is not None

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        if self.dim != other.dim or len(self) != len(other):
            return False
        n = math.lcm(self.order, other.order)
        a = sorted(h.promoted(n).key() for h in self.hyperplanes)
        b = sorted(h.promoted(n).key() for h in other.hyperplanes)
        return a == b

    def __hash__(self):
        return hash((self.dim, frozenset(self.hyperplanes)))

    def __repr__(self):
        return (f"Arrangement(dim={self.dim}, order={self.order}, "
                f"hyperplanes={len(self)})")

    def index_of(self, h) -> int:
        i = self._find(h)
        if i is None:
            raise NotMember(f"{h!r} is not in the arrangement")
        return i

    def rank(self) -> int:
        if self._rank is None:
            rows, _ = _rref((h.coeffs for h in self.hyperplanes), self.dim)
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
        if isinstance(target, Flat):
            flat = target
        else:
            flat = Flat.from_covectors([target], self.dim, self.order)
        if flat.dim != self.dim:
            raise NotAFlat("flat dimension does not match the arrangement")
        if flat.rank == 0:
            return self
        order = math.lcm(self.order, flat.order)
        rows = [[c.promote(order) for c in r] for r in flat.rows]
        free = [c for c in range(self.dim) if c not in flat.pivots]
        covs, through = [], []
        for h in self.hyperplanes:
            vec = [c.promote(order) for c in h.coeffs]
            red = _reduce(vec, rows, flat.pivots)
            sub = [red[c] for c in free]
            if any(sub):
                covs.append(sub)
            else:
                through.append(vec)
        # membership in the lattice: the hyperplanes through the flat must
        # span its annihilator, which one of them does at rank 1; so a
        # hyperplane target passes exactly when it is a member
        if not through or (flat.rank > 1
                           and len(_rref(through)[0]) != flat.rank):
            raise NotAFlat("target is not an intersection of hyperplanes"
                           " of the arrangement")
        if flat.rank == self.dim:
            raise ZeroDimensional("restriction would have dimension zero")
        return Arrangement(self.dim - flat.rank, covs, order)

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
        """Every flat by rank, up to the centre, which lies in every
        hyperplane (`_grow_levels`).  The levels are kept as the partial
        levels too."""
        if self._lattice is None:
            if self._partial[-1] != ((1 << len(self)) - 1,):
                self._partial = _build_levels(self, None, self._partial)
            self._lattice = Lattice(self, self._partial)
        return self._lattice

    def line_masks(self) -> tuple[int, ...]:
        """Bitmasks of the rank-2 flats, without building the full lattice."""
        levels, _ = self.partial_levels(2)
        return levels[2] if len(levels) > 2 else ()

    def partial_levels(self, max_rank: int):
        """Flat masks by rank up to max_rank, and bases[mask], the rref basis
        of a flat's annihilator, computed when read.

        Cached: the deepest levels built (the full lattice's once built),
        extended only when they hold too few and do not end at the centre."""
        if (len(self._partial) <= max_rank
                and self._partial[-1] != ((1 << len(self)) - 1,)):
            self._partial = _build_levels(self, max_rank, self._partial)
        return self._partial[:max_rank + 1], _Bases(self)

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
            lines.append(", ".join(h.key()))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Arrangement":
        header = None
        covs = []
        memo = {}
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
                dim, order = check_header(m.group(1), m.group(2))
                continue
            entries = [e.strip() for e in line.split(",")]
            if len(entries) != dim:
                raise FormatError(
                    f"expected {dim} covector entries, got {len(entries)}: {raw.strip()!r}")
            cov = _parse_row(entries, order, memo)
            if not any(cov):
                raise FormatError(
                    f"the zero covector does not define a hyperplane: {raw.strip()!r}")
            covs.append(cov)
        if header is None:
            raise FormatError("missing 'arr v1' header")
        return cls(dim, covs, order)


# -- lattice construction -------------------------------------------------------

class _Bases:
    """bases[mask]: the rref basis of the flat mask, computed when read."""

    __slots__ = ("covs",)

    def __init__(self, arr: Arrangement):
        self.covs = [h.coeffs for h in arr.hyperplanes]

    def __getitem__(self, mask: int):
        return _rref(self.covs[j] for j in _bits(mask))


def _mod_insert(rows, pivots, vec):
    """Insert vec into an rref basis over F_P; None when vec lies in its
    span mod P."""
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            vec = [(a - c * b) % _P for a, b in zip(vec, row)]
    q = next((c for c, v in enumerate(vec) if v), None)
    if q is None:
        return None
    inv = pow(vec[q], -1, _P)
    vec = [v * inv % _P for v in vec]
    rows = [[(a - row[q] * b) % _P for a, b in zip(row, vec)] if row[q]
            else row for row in rows]
    pairs = sorted(zip((*pivots, q), (*rows, vec)))
    return tuple(r for _, r in pairs), tuple(p for p, _ in pairs)


def _mod_span(mcovs, x: int, k: int):
    """The rref basis over F_P of the rank-k flat x, from its atoms, which
    span rank k mod P under `_certified`.  At rank 1 it is x's atom,
    unscaled: a normalised covector leads with 1 mod P as well."""
    if k == 1:
        vec = mcovs[(x & -x).bit_length() - 1]
        return (vec,), (next(c for c, v in enumerate(vec) if v),)
    basis = ((), ())
    for j in _bits(x):
        if len(basis[1]) == k:
            break
        basis = _mod_insert(*basis, mcovs[j]) or basis
    return basis


def _certified(covs, s: int) -> bool:
    """True when ranks of up to s covectors are the same mod P as over
    Q(zeta_n).  Cleared of denominators, the covectors lie in Z[zeta]^dim,
    and every embedding sends an entry c to a number of modulus at most
    l1(c), the sum of its |power-basis coefficients|.  With w the largest
    sum of l1(c)^2 over a covector, Hadamard's bound puts the norm of a
    minor of at most s rows below w^(s phi(n)/2).  Reduction mod P has a
    prime of norm P as its kernel, and a nonzero algebraic integer in it
    has norm at least P; so w^(s phi(n)) < P^2 keeps every nonzero such
    minor nonzero mod P.  A covector leads with 1, so its denominators
    stay below P too."""
    return _norm_bound(map(_l1, covs), s * len(covs[0][0].num) if covs else 0)


def _l1(vec) -> list[int]:
    """The l1 size of each entry of vec with its denominators cleared: an
    entry's sum of |power-basis coefficients| times lcm(dens) / den."""
    scale = math.lcm(*(c.den for c in vec))
    return [sum(map(abs, c.num)) * (scale // c.den) for c in vec]


def _norm_bound(sizes, e: int) -> bool:
    """w^e < P^2, for w the largest sum of squares of the `_l1` sizes."""
    w = max([1, *(sum(a * a for a in v) for v in sizes)])
    # w^e >= 2^(e (bits(w) - 1)), so this first test bounds the power
    return e * (w.bit_length() - 1) < 2 * _P.bit_length() and w ** e < _P ** 2


def _mod_keys(rows, pivots, mcovs, rest: int) -> dict:
    """The hyperplanes j in rest by key, over the flat X with the given rref
    basis over F_P: cov_j modulo the rows, read on X's free coordinates,
    scaled so that its first nonzero entry is 1, and encoded as one int
    sum r_t P^t.  Rows in rref vanish on each other's pivots, so the
    residue at a free coordinate f is cov_j[f] - sum_p cov_j[p] row_p[f];
    over a rank-1 flat, which most keys are read over, it is
    cov_j[f] - cov_j[p] row[f] for its one row.
    The leading entries are inverted together (Montgomery's trick): one
    inverse of their product, and each one's inverse from it and the
    products of the leads before and after it."""
    free = [c for c in range(len(mcovs[0])) if c not in pivots]
    if len(rows) == 1:
        (p,), (row,) = pivots, rows
        line = [(f, row[f]) for f in free]
    else:
        cols = [[row[f] for row in rows] for f in free]
    residues = []
    total = 1
    while rest:
        low = rest & -rest
        rest ^= low
        vec = mcovs[low.bit_length() - 1]
        if len(rows) == 1:
            c = vec[p]
            vals = [(vec[f] - c * r) % _P for f, r in line]
        else:
            head = [vec[p] for p in pivots]
            vals = [(vec[f] - sum(map(mul, head, col))) % _P
                    for f, col in zip(free, cols)]
        lead = next(filter(None, vals))
        residues.append((low, vals, lead, total))
        total = total * lead % _P
    inv = pow(total, -1, _P)
    groups: dict = {}
    for low, vals, lead, before in reversed(residues):
        scale = inv * before % _P
        inv = inv * lead % _P
        key = 0
        for v in vals:
            key = key * _P + v * scale % _P
        groups[key] = groups.get(key, 0) | low
    return groups


def _exact_keys(rows, pivots, covs, rest: int) -> dict:
    """The same classes over Q(zeta_n), from X's exact rref basis; a key
    is the scaled residue as a tuple of (num, den) pairs."""
    free = [c for c in range(len(covs[0])) if c not in pivots]
    groups: dict = {}
    for j in _bits(rest):
        red = _reduce(covs[j], rows, pivots)
        vals = [red[f] for f in free]
        inv = next(filter(None, vals)).inverse()
        key = tuple((c.num, c.den) for c in (v * inv for v in vals))
        groups[key] = groups.get(key, 0) | 1 << j
    return groups


def _key_vectors(covs, order: int, s: int):
    """The covectors mod P, and True, when order has a root there and
    `_certified` holds at s; else the covectors, and False."""
    root = _mod_root(order)
    if root and _certified(covs, s):
        return [_mod_vector(v, root) for v in covs], True
    return covs, False


def _keys_over(vecs, mod: bool, x: int, k: int, rest: int) -> dict:
    """The hyperplanes j in rest by their key over the rank-k flat x; over
    the empty flat, each on its own, with no keys: the covectors are
    distinct, exactly and, under `_certified` at s >= 2, mod P too."""
    if not x:
        return {1 << j: 1 << j for j in _bits(rest)}
    if mod:
        return _mod_keys(*_mod_span(vecs, x, k), vecs, rest)
    return _exact_keys(*_rref((vecs[j] for j in _bits(x)), k), vecs, rest)


def _build_levels(arr: Arrangement, max_rank=None, levels=((0,),)):
    """`_grow_levels` on arr up to max_rank (every rank when None), keyed
    mod P when `_certified` holds for ranks up to max_rank + 1."""
    limit = arr.dim if max_rank is None else max_rank
    vecs, mod = _key_vectors([h.coeffs for h in arr.hyperplanes], arr.order,
                             min(limit + 1, arr.dim))
    return _grow_levels(vecs, mod, limit, levels)


def _grow_levels(vecs, mod: bool, limit: int, levels):
    """Flat masks by rank up to limit, resumed from the given lower levels,
    of the hyperplanes with the given covectors, keyed mod P or exactly.

    Each flat is found once.  The rank-(k+1) flats above a rank-k flat X
    are X v H_j for the hyperplanes j outside X, and X v H_i = X v H_j
    exactly when cov_i and cov_j are proportional modulo X's annihilator.
    So the flats above X found earlier are skipped: has[a] is the bitset
    of the indices of the found flats through atom a, and the AND of
    has[a] over X's atoms, below the sentinel, marks those above X.
    Every other hyperplane gets one key, its residue modulo X's rref
    basis scaled to lead with 1, and each class of equal keys is a new
    flat X v H_j.  The choice of keys is made once per build, by the
    caller; mod P, X's basis is spanned from its atoms.  Only the levels
    carry over from one rank to the next, so a resumed build runs as a
    fresh one.  Rank 1, the atoms, takes no keys (see `_keys_over`), and
    neither does rank dim - 1: a flat of rank dim - 1 that is not the
    centre lies only under the centre, of rank dim, which a build up to
    rank dim or more appends.  The levels end at the centre."""
    m = len(vecs)
    levels = list(levels)
    k = len(levels) - 1
    full = (1 << m) - 1
    while k < limit and levels[-1] != (full,):
        k += 1
        if k == len(vecs[0]):
            levels.append((full,))
            break
        found: list = []
        # a sentinel bit above every index in use keeps has[a] from growing
        # one bit at a time, through every size class of the allocator
        cap = 2 * m
        has = [1 << cap] * m
        for x in levels[k - 1]:
            if len(found) + m > cap:
                has = [h ^ 1 << cap | 1 << 2 * cap for h in has]
                cap *= 2
            above = (1 << len(found)) - 1
            for a in _bits(x):
                above &= has[a]
            # OR in the flats above x, read off the binary digits of above:
            # str.find is much faster than stripping bits off a long int
            digits = f"{above:b}"
            top = len(digits) - 1
            skip = x
            i = digits.find("1")
            while i >= 0:
                skip |= found[top - i]
                i = digits.find("1", i + 1)
            rest = full & ~skip
            if not rest:
                continue
            start = len(found)
            for g in _keys_over(vecs, mod, x, k - 1, rest).values():
                bit = 1 << len(found)
                found.append(x | g)
                for a in _bits(g):
                    has[a] |= bit
            span = (1 << len(found)) - (1 << start)
            for a in _bits(x):
                has[a] |= span
        levels.append(tuple(sorted(found)))
    return tuple(levels)


def _keys_charpoly(keys, mod: bool, dim: int, order: int, over=None):
    """The characteristic polynomial of the hyperplanes with the given
    keys of `_keys_over` in dim coordinates (mod P a key's digits base P,
    else its (num, den) pairs), or, when over is one of the keys, of
    their restriction to it, whose hyperplanes are the keys of the
    others over it in dim - 1 coordinates.  In key order, leading zeros
    first as in `Arrangement`, the builder keys far fewer flats than in
    hash order."""
    keys = sorted(keys)
    vecs = []
    for key in keys:
        if mod:
            vec = [0] * dim
            for t in range(dim - 1, -1, -1):
                key, vec[t] = divmod(key, _P)
        else:
            vec = [Cyc._make(order, num, den) for num, den in key]
        vecs.append(vec)
    full = (1 << len(vecs)) - 1
    if over is not None:
        x = 1 << keys.index(over)
        return _keys_charpoly(_keys_over(vecs, mod, x, 1, full ^ x), mod,
                              dim - 1, order)
    return _charpoly(_grow_levels(vecs, mod, dim, ((0,),)), dim)


class Lattice:
    """Intersection lattice of a central arrangement; flats are bitmasks."""

    __slots__ = ("arrangement", "levels")

    def __init__(self, arrangement: Arrangement, levels):
        self.arrangement = arrangement
        self.levels = levels

    @property
    def rank(self) -> int:
        return len(self.levels) - 1

    def characteristic_polynomial(self) -> tuple[int, ...]:
        return _charpoly(self.levels, self.arrangement.dim)


# -- subarrangements and restrictions on flat masks (levels[k]: rank k) -----

def _charpoly(levels, dim: int) -> tuple[int, ...]:
    """Characteristic polynomial, constant first, from the Moebius values
    of the flats of a whole lattice, whose last level is its centre; dim
    is the dimension of the ambient space.

    mu(X) is 1, -1 and |X| - 1 at ranks 0, 1 and 2.  At a higher rank k,
    Weisner's theorem with X's lowest atom a gives mu(X) = -sum mu(Y) over
    the rank-(k-1) flats Y inside X that miss a: the flats of level k-1
    whose lowest atom is another atom of X.  At the coatoms only the sum
    of mu is needed (`_coatom_sum`).  The centre takes the value that
    makes chi(1) = 0."""
    coeffs = [0] * (dim + 1)
    coeffs[dim] = 1
    top = len(levels) - 1
    mus: list = []
    for k in range(1, top):
        level = levels[k]
        if k < 3:
            mus = [(x, x.bit_count() - 1 if k == 2 else -1) for x in level]
        elif k == top - 1:
            coeffs[dim - k] = _coatom_sum(level, mus)
            break
        else:
            by_low: dict = {}
            for y, mu in mus:
                by_low.setdefault(y & -y, []).append((y, mu))
            mus = []
            for x in level:
                total = 0
                rest = x & (x - 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    for y, mu in by_low.get(low, ()):
                        if y & x == y:
                            total += mu
                mus.append((x, -total))
        coeffs[dim - k] = sum(mu for _, mu in mus)
    if top:
        coeffs[dim - top] = -sum(coeffs)
    return tuple(coeffs)


def _coatom_sum(coatoms, mus) -> int:
    """The sum of mu over the coatoms, from mus, the (Y, mu(Y)) one rank
    below.  Weisner at each coatom X's lowest atom makes it
    -sum_Y mu(Y) #{X above Y: min X < min Y}.  has[a] is the bitset of
    the coatoms through atom a, starts[b] that of the coatoms whose
    lowest atom is below b, so each Y costs one popcount."""
    n = max(coatoms).bit_length()
    has = [0] * n
    starts = [0] * (n + 1)
    for i, x in enumerate(coatoms):
        bit = 1 << i
        starts[(x & -x).bit_length()] |= bit
        for a in _bits(x):
            has[a] |= bit
    for b in range(1, n + 1):
        starts[b] |= starts[b - 1]
    total = 0
    for y, mu in mus:
        over = starts[(y & -y).bit_length() - 1]
        for a in _bits(y):
            over &= has[a]
        total += mu * over.bit_count()
    return -total


def _sub_levels(levels, mask: int) -> list:
    """Flats of the subarrangement mask by rank, as masks of the whole:
    X & mask for every flat X, ranked by the first X (its closure)."""
    seen: set = set()
    out = []
    for level in levels:
        new = {x & mask for x in level} - seen
        if not new:
            break
        seen |= new
        out.append(new)
    return out


def _sub_exponents(levels, mask: int, dim: int):
    """Roots of the characteristic polynomial of the subarrangement mask
    when it splits over the nonnegative integers, else None."""
    poly = _charpoly(_sub_levels(levels, mask), dim)
    return _integer_roots(poly, mask.bit_count())


def _contract(levels, x: int, k: int) -> list:
    """Flats of the restriction to the rank-k flat x by rank: the flats
    above x, as sets of hyperplanes j, the j-th rank-(k+1) flat above x."""
    above = levels[k + 1] if len(levels) > k + 1 else ()
    atoms = [y for y in above if y & x == x]
    out = []
    for level in levels[k:]:
        out.append([sum(1 << j for j, y in enumerate(atoms) if y & z == y)
                    for z in level if z & x == x])
    return out


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

def _atom_colors(m: int, levels):
    """Each atom's sorted (rank, size) of the flats of rank >= 2 through it."""
    colors = [[] for _ in range(m)]
    for k in range(2, len(levels)):
        for mask in levels[k]:
            s = mask.bit_count()
            for i in _bits(mask):
                colors[i].append((k, s))
    return [tuple(sorted(c)) for c in colors]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _permute_mask(mask: int, perm) -> int:
    """The image of a set of hyperplanes under an index permutation."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _line_table(m: int, lines):
    """table[a][b]: the mask of the line through atoms a != b."""
    table = [[0] * m for _ in range(m)]
    for line in lines:
        atoms = list(_bits(line))
        for a in atoms:
            row = table[a]
            for b in atoms:
                row[b] = line
    return table


def lattice_isomorphic(a: Arrangement, b: Arrangement) -> bool:
    """Exact combinatorial isomorphism of the two intersection lattices."""
    m = len(a)
    if len(b) != m:
        return False
    if m == 0:
        return True
    la = a.intersection_lattice()
    lb = b.intersection_lattice()
    # a flat of rank k >= 2 and size s gives s atoms the colour entry
    # (k, s), so equal colour multisets mean equal levels
    cola = _atom_colors(m, la.levels)
    colb = _atom_colors(m, lb.levels)
    if sorted(cola) != sorted(colb):
        return False
    if la.rank < 2:
        return True
    # two atoms are compared by the size of the line through them
    lsa = _line_table(m, la.levels[2])
    lsb = _line_table(m, lb.levels[2])
    by_color: dict[tuple, list[int]] = {}
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
                if lsa[i][j].bit_count() != lsb[x][sigma[j]].bit_count():
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
