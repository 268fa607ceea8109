"""Inductive-freeness certification for hyperplane arrangements.

The decision routine peels hyperplanes one at a time: an arrangement is
certified by an addition chain that starts at the empty arrangement and,
at every step, keeps the exponents of the restriction inside the
exponents of the smaller arrangement.  Such chains depend only on the
intersection lattice, so the search builds L(A) once, exactly, and then
works on bitmasks of its flats.  Certificates carry all intermediate
exponent multisets with them; only replaying a chain, the independent
check, recomputes each restriction's characteristic polynomial, from
the chain's covectors, mod P under the chain's certificate and exactly
otherwise: from the chain's own chi when the row raises the rank, from
its size in dimension 3, else from the row before's by
deletion-restriction.
The module keeps no state between calls: every memo lives inside the
call that fills it.

Refutations of rank-four arrangements report the level at which the
breadth-first necessary-condition scan dies; rank-three refutations
report how many subarrangements the exhaustive search visited.
"""

import math
import re as _re
from numbers import Real
from typing import NamedTuple

from .arrangement import (Arrangement, Hyperplane, RankLimit, _bits,
                          _contract, _exact_insert, _integer_roots,
                          _key_vectors, _keys_charpoly, _keys_over,
                          _mod_insert, _sub_exponents)
from .cyclotomic import (ArrfreeError, FormatError, InvalidParameter,
                         check_header)


class ShapeError(ArrfreeError, ValueError):
    """Raised when exponent multisets have incompatible lengths."""


class NonFreeInput(ArrfreeError, ValueError):
    """Raised when an operation needs exponents but none are available."""


class StaleCertificate(ArrfreeError, ValueError):
    """Raised when a certificate does not replay to the arrangement at hand."""


# -- exponent multisets ------------------------------------------------------

def _exps(values) -> tuple:
    values = tuple(values)
    if not all(isinstance(v, Real) and v % 1 == 0 for v in values):
        raise ShapeError(f"exponents must be integers, got {values}")
    out = tuple(sorted(int(v) for v in values))
    if out and out[0] < 0:
        raise ShapeError("exponents must be nonnegative")
    return out


def _render_exps(exps) -> str:
    return ",".join(str(e) for e in exps)


def _read_exps(text: str) -> tuple:
    """The inverse of _render_exps, so '' is the empty list."""
    return tuple(sorted(int(p) for p in text.split(","))) if text else ()


def check_triple(exp_whole, exp_deleted, exp_restriction) -> bool:
    """Whether three exponent multisets fit an addition-deletion step.

    True when the deleted arrangement's exponents are the whole ones
    with a single entry decremented, and the restriction's exponents
    are the remaining entries.
    """
    whole = _exps(exp_whole)
    deleted = _exps(exp_deleted)
    restriction = _exps(exp_restriction)
    if not len(whole) == len(deleted) == len(restriction) + 1:
        raise ShapeError(
            f"need lengths n, n, n-1; got {len(whole)}, {len(deleted)},"
            f" {len(restriction)}")
    return _chain_step(whole, restriction, -1) == deleted


def _chain_step(exps, restriction_exps, delta=1):
    """Exponents after adding (delta 1) or removing (delta -1) a hyperplane
    whose restriction, taken in the larger arrangement, has the given
    exponents; None when the shapes do not mesh.

    Terao's rule: the restriction's exponents are exps less one entry v,
    v = sum(exps) - sum(restriction_exps), and that entry moves by delta."""
    v = sum(exps) - sum(restriction_exps)
    if v + delta < 0 or sorted(restriction_exps + (v,)) != sorted(exps):
        return None
    return tuple(sorted(restriction_exps + (v + delta,)))


def _removal_moves(ms):
    """{restriction count: next multiset} for every removal ms allows.

    Removing a hyperplane whose restriction count is rc is allowed when
    v = sum(ms) - rc is a positive entry of ms; that entry drops by one.
    This is _chain_step's rule at delta -1, keyed by count, so the census
    and the chain search prune on the same table.
    """
    total = sum(ms)
    out = {}
    for v in set(ms):
        if v >= 1:
            pos = ms.index(v)
            out[total - v] = tuple(sorted(ms[:pos] + ms[pos + 1:] + (v - 1,)))
    return out


# -- certificates ------------------------------------------------------------

class InductionStep(NamedTuple):
    hyperplane: Hyperplane
    exps_before: tuple
    restriction_exps: tuple


class InductionCertificate:
    """A verified addition chain; exponents travel with the chain."""

    __slots__ = ("base", "steps", "exponents")

    def __init__(self, base: Arrangement, steps, exponents):
        self.base = base
        self.steps = tuple(steps)
        self.exponents = tuple(exponents)

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self) -> Arrangement:
        """The base with every step's hyperplane added.  Each step is
        checked against the ones before it on one key set at the chain's
        lcm order, and one arrangement is built at the end."""
        base = self.base
        hs = [step.hyperplane for step in self.steps]
        order = math.lcm(base.order, *(h.order for h in hs))
        keys = {h.promoted(order).key() for h in base}
        for h in hs:
            if h.dim != base.dim:
                raise InvalidParameter(
                    f"hyperplane of dimension {h.dim} in a"
                    f" dimension-{base.dim} arrangement")
            key = h.promoted(order).key()
            if key in keys:
                raise StaleCertificate(
                    f"chain repeats the hyperplane {h.form()}")
            keys.add(key)
        return Arrangement(base.dim, (*base.hyperplanes, *hs), base.order)

    def __repr__(self):
        return (f"InductionCertificate(steps={len(self.steps)},"
                f" exponents={self.exponents})")


class NotIF:
    """A refutation of inductive freeness.  Falsy."""

    __slots__ = ("arrangement", "reason", "level", "explored")

    def __init__(self, arrangement, reason, level=None, explored=0):
        self.arrangement = arrangement
        self.reason = reason
        self.level = level
        self.explored = explored

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        if self.reason == "non-splitting":
            return ("characteristic polynomial has no nonnegative integer"
                    " splitting")
        if self.level is not None:
            return (f"necessary-condition scan dies after removing"
                    f" {self.level} hyperplanes")
        return (f"exhausted all addition chains"
                f" ({self.explored} subarrangements examined)")

    def __repr__(self):
        return f"NotIF({self.describe()})"


# -- the decision procedure --------------------------------------------------

_MISSING = object()


def _split(m: int, lines):
    """(pairs, longer): pairs[i], the mask of i's partners on two-member
    lines; longer[i], i's longer lines without i.  _counts gives each
    atom of mask the lines through it that keep another member of mask,
    and -1 (asked for by no removal rule) to other atoms; _drop updates
    them after removing i: each partner of i left loses one, as does j
    for each longer line left with j alone."""
    pairs = [0] * m
    longer = [[] for _ in range(m)]
    for line in lines:
        if line.bit_count() == 2:
            low = line & -line
            pairs[low.bit_length() - 1] |= line ^ low
            pairs[line.bit_length() - 1] |= low
        else:
            r = line
            while r:
                i = r.bit_length() - 1
                r ^= 1 << i
                longer[i].append(line ^ 1 << i)
    return pairs, longer


def _counts(mask, split) -> list:
    return [(p & mask).bit_count() + sum(1 for line in ls if line & mask)
            if mask >> i & 1 else -1 for i, (p, ls) in enumerate(zip(*split))]


def _drop(counts, i, left, split) -> list:
    pairs, longer = split
    child = counts.copy()
    child[i] = -1
    r = pairs[i] & left
    while r:
        j = r.bit_length() - 1
        child[j] -= 1
        r ^= 1 << j
    for line in longer[i]:
        r = line & left
        if r.bit_count() == 1:
            child[r.bit_length() - 1] -= 1
    return child


def _low_rank_chain(dim, atoms):
    # any order certifies a rank <= 2 arrangement: every hyperplane
    # contains the common center, so each restriction is empty (first
    # step) or that center alone
    steps = []
    exps = (0,) * dim
    for n, i in enumerate(atoms):
        rexp = (0,) * (dim - 1) if n == 0 else (0,) * (dim - 2) + (1,)
        steps.append((i, exps, rexp))
        exps = _chain_step(exps, rexp)
    return tuple(steps)


def _plane_exps(c):
    # c lines in a plane are inductively free (rank <= 2), with
    # chi = (t - 1)(t - (c - 1)) (Orlik-Terao) for c >= 1 and t^2 for c = 0
    return tuple(sorted((min(c, 1), max(c - 1, 0))))


class _ChainSearch:
    """Memoised addition-chain search on the subarrangements (masks of
    atoms) of one lattice.  decide(mask, cand, parent), cand being the
    (split) roots of the subarrangement's characteristic polynomial,
    gives the steps (atom, exponents before, restriction exponents) of a
    chain that ends at cand, or None.  The restriction to atom i is, in
    the lattice contracted at i, the lines through i that keep a second
    member of the mask; a node's counts are made only on a memo miss,
    by _counts at a root or by _drop from parent, its parent's (counts,
    i).  In dimension 3 that restriction is counts[i] lines in a plane and
    is read off its count; above, it gets a search of its own, kept with
    the lines through i in order, which number its atoms (_contract), and
    exps memoises a mask's roots for the restriction searches."""

    __slots__ = ("levels", "dim", "memo", "exps", "split", "restrictions")

    def __init__(self, levels, dim):
        self.levels = levels
        self.dim = dim
        self.memo = {}
        self.exps = {}
        # the center, the last flat, holds every atom
        self.split = _split(levels[-1][0].bit_length(),
                            levels[2] if len(levels) > 2 else ())
        self.restrictions = {}

    def decide(self, mask, cand, parent=None):
        hit = self.memo.get(mask, _MISSING)
        if hit is _MISSING:
            counts = (_counts(mask, self.split) if parent is None
                      else _drop(*parent, mask, self.split))
            hit = self.memo[mask] = self._search(mask, cand, counts)
        return hit

    def _search(self, mask, cand, counts):
        if cand.count(0) >= self.dim - 2:
            # dim - rank roots are 0: rank <= 2, which always splits
            return _low_rank_chain(self.dim, _bits(mask))
        moves = _removal_moves(cand)
        for _, i in sorted((c, i) for i, c in enumerate(counts) if c in moves):
            bit = 1 << i
            left = mask & ~bit
            if self.dim == 3:
                restr, rexp = None, _plane_exps(counts[i])
            else:
                hit = self.restrictions.get(i)
                if hit is None:
                    contracted, through = _contract(self.levels, bit, 1)
                    hit = self.restrictions[i] = (
                        through, _ChainSearch(contracted, self.dim - 1))
                through, restr = hit
                rmask = sum(1 << j for j, line in enumerate(through)
                            if line & left)
                rexp = restr.exps.get(rmask, _MISSING)
                if rexp is _MISSING:
                    rexp = restr.exps[rmask] = _sub_exponents(
                        restr.levels, rmask, restr.dim)
                if rexp is None:
                    continue
            # deletion-restriction: chi(B - H) = chi(B) + chi(B''), so the
            # deletion's roots are cand with the entry left by rexp lowered
            dexp = _chain_step(cand, rexp, -1)
            if dexp is None or (restr is not None
                                and restr.decide(rmask, rexp) is None):
                continue
            sub = self.decide(left, dexp, (counts, i))
            if sub is not None:
                return sub + ((i, dexp, rexp),)
        return None


def _check_rank(arr: Arrangement, force: bool) -> None:
    # rank <= dim, so only dimension 5 and up is ranked, by exact rref
    if arr.dim > 4 and not force and arr.rank() > 4:
        raise RankLimit(
            f"rank {arr.rank()} decision is not guaranteed tractable;"
            " pass force=True to run it anyway")


def is_inductively_free(arr: Arrangement, force: bool = False):
    """Decide inductive freeness.

    Returns an InductionCertificate (truthy) or a NotIF refutation
    (falsy).  Arrangements of rank above four are refused unless force
    is set; the exhaustive search there can be very slow.
    """
    _check_rank(arr, force)
    return _decide(arr)


def _decide(arr: Arrangement):
    top = arr.candidate_exponents()
    if top is None:
        return NotIF(arr, "non-splitting")
    lattice = arr.intersection_lattice()
    search = _ChainSearch(lattice.levels, arr.dim)
    res = search.decide((1 << len(arr)) - 1, top)
    if res is not None:
        steps = [InductionStep(arr.hyperplanes[i], b, r) for i, b, r in res]
        return InductionCertificate(Arrangement(arr.dim, (), arr.order),
                                    steps, top)
    level = None
    if lattice.rank >= 4:
        level = necessary_condition_counts(arr, exponents=top).death_level
    return NotIF(arr, "exhausted", level, len(search.memo))


# -- induction tables --------------------------------------------------------

class TableRow(NamedTuple):
    exps_before: tuple
    form: str
    restriction_exps: tuple


class InductionTable:
    """Text form of an addition chain with claimed exponents."""

    __slots__ = ("dim", "order", "rows", "final")

    def __init__(self, dim, order, rows, final):
        self.dim = dim
        self.order = order
        self.rows = tuple(rows)
        self.final = tuple(final)

    @classmethod
    def parse(cls, text: str) -> "InductionTable":
        dim = order = None
        rows = []
        final = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if dim is None:
                m = _re.fullmatch(r"table v1 dim=(\d+) zeta=(\d+)", line)
                if not m:
                    raise FormatError(f"line {ln}: expected a 'table v1' header")
                dim, order = check_header(m.group(1), m.group(2))
                continue
            if final is not None:
                raise FormatError(f"line {ln}: content after the final row")
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise FormatError(f"line {ln}: expected three '|' columns")
            if not parts[1] and parts[2]:
                raise FormatError(
                    f"line {ln}: the final row carries only exponents")
            try:
                before, after = (_read_exps(p) for p in parts[::2])
            except ValueError:
                raise FormatError(
                    f"line {ln}: bad exponent list in {line!r}") from None
            if parts[1]:
                rows.append(TableRow(before, parts[1], after))
            else:
                final = before
        if dim is None:
            raise FormatError("missing 'table v1' header")
        if final is None:
            raise FormatError("missing final exponent row")
        return cls(dim, order, rows, final)

    def to_text(self) -> str:
        out = [f"table v1 dim={self.dim} zeta={self.order}"]
        for row in self.rows:
            out.append(f"{_render_exps(row.exps_before)} | {row.form} |"
                       f" {_render_exps(row.restriction_exps)}")
        out.append(f"{_render_exps(self.final)} | |")
        return "\n".join(out) + "\n"


class RowFailure(NamedTuple):
    row: int
    message: str


class TableReport:
    """Outcome of replaying an addition chain, with the certificate on
    success."""

    __slots__ = ("ok", "failures", "certificate")

    def __init__(self, ok, failures, certificate):
        self.ok = ok
        self.failures = tuple(failures)
        self.certificate = certificate

    def __bool__(self) -> bool:
        return self.ok

    @property
    def exponents(self):
        return self.certificate.exponents if self.certificate else None

    def describe(self) -> str:
        if self.ok:
            return f"chain verified; exponents {_render_exps(self.exponents)}"
        return "; ".join(f"row {f.row}: {f.message}" for f in self.failures)


def _check_step(h, exps, rexp, delta, claim=None):
    """Check adding (delta 1) or removing (delta -1) h, whose restriction
    has the exponents rexp, None when they do not split.  Returns the
    exponents after the step, or the message of the first failed check."""
    if rexp is None:
        return (f"restriction of {h.form()} has a non-splitting"
                " characteristic polynomial")
    if claim is not None and claim != rexp:
        return (f"claims restriction exponents {_render_exps(claim)}"
                f" but recomputation gives {_render_exps(rexp)}")
    nxt = _chain_step(exps, rexp, delta)
    if nxt is None:
        return (f"restriction exponents {_render_exps(rexp)} do not sit"
                f" inside {_render_exps(exps)} leaving one entry")
    return nxt


def _chain_restrictions(dim, order, covs):
    """The exponents of each row's restriction, when asked for: for the
    first n covectors, distinct and at one root order, restricted to the
    n-th, H, whose hyperplanes are the keys of the others over H
    (`_keys_over`).  Mod P when `_certified` holds for the whole chain at
    s = dim, so for every subset, else exactly; a set S of residues has
    rank rank(S u {H}) - 1 both ways, so the lattice mod P is the exact
    one, and so is the rank of every prefix.

    The chi of the prefix A', whole, is carried down the chain: it starts
    at t^dim, and each row subtracts its restriction's chi (Orlik-Terao,
    Thm 2.56: chi(A' + H) = chi(A') - chi(A'^H)), exact whether or not
    the chain is free.  So is an rref basis of the prefix's covectors.
    A row's chi follows one of three rules:

    1. When H's covector is outside that span, H misses the centre T of
       A'; for v in T but not in H, every flat X of A' is (X n H) + <v>,
       so X -> X n H is an isomorphism from L(A') onto L(A'^H) that
       lowers each dimension by one (Orlik-Terao, Sec. 2.3), and the
       row's chi is chi(A') / t, whole[1:], with no lattice built.
    2. At dim 3 the restriction is c = |S| lines in a plane, with chi =
       (t - min(c, 1))(t - max(c - 1, 0)).
    3. Otherwise chi of S comes from that of the previous row's keys S'
       by deletion and restriction (`_deletion_restriction`), from
       restrictions one dimension lower, however far apart S and S' are;
       equal sets are an empty difference and keep chi as it is.  That
       identity holds over any field, and every chi on the way is that
       of a set of key vectors in dim - 1 coordinates, over F_P or over
       Q(zeta_n) as the keys are; so it gives chi of S's own lattice over
       that field, which the chain's one `_certified` check equates with
       the exact restriction's.

    The exponents are recomputed only when chi changes: equal chis have
    equal sizes, the bound of their roots."""
    vecs, mod = _key_vectors(covs, order, dim)
    insert = _mod_insert if mod else _exact_insert
    whole, basis = (0,) * dim + (1,), ((), ())
    last, chi, exps = set(), whole[1:], (0,) * (dim - 1)
    for n, vec in enumerate(vecs):
        keys = set(_keys_over(vecs, mod, 1 << n, 1, (1 << n) - 1))
        wider = insert(*basis, vec)
        before = chi
        if wider:
            basis, chi = wider, whole[1:]
        elif dim == 3:
            lo, hi = _plane_exps(len(keys))
            chi = (lo * hi, -lo - hi, 1)
        else:
            chi = _deletion_restriction(last, chi, keys, mod, dim - 1, order)
        if chi != before:
            exps = _integer_roots(chi, len(keys))
        whole = tuple(a - b for a, b in zip(whole, (*chi, 0)))
        last = keys
        yield exps


def _deletion_restriction(last, chi, keys, mod, dim, order):
    """chi of the keys from chi of the keys last, one key at a time in
    key order (Orlik-Terao, Thm 2.56: chi(T) = chi(T - H) - chi(T^H)):
    each g in last but not in keys leaves, chi(T - g) = chi(T) +
    chi(T^g), then each h in keys but not in last joins, chi(T + h) =
    chi(T) - chi((T + h)^h).  A restriction's chi, one degree lower, is
    aligned at the constant term."""
    t = set(last)
    for g in sorted(last - keys):
        sub = _keys_charpoly(t, mod, dim, order, g)
        t.remove(g)
        chi = [a + b for a, b in zip(chi, (*sub, 0))]
    for h in sorted(keys - last):
        t.add(h)
        sub = _keys_charpoly(t, mod, dim, order, h)
        chi = [a - b for a, b in zip(chi, (*sub, 0))]
    return tuple(chi)


def _replay_chain(dim, order, hyperplanes, claimed=None, final=None):
    base = Arrangement(dim, (), order)
    order = math.lcm(order, *(h.order for h in hyperplanes))
    covs = [h.promoted(order).coeffs for h in hyperplanes]
    rexps = _chain_restrictions(dim, order, covs)
    exps = (0,) * dim
    seen = set()
    steps = []
    failures = []
    for n, h in enumerate(hyperplanes, start=1):
        claim_before, claim_restr = claimed[n - 1] if claimed else (exps, None)
        if claim_before != exps:
            failures.append(RowFailure(
                n, f"claims exponents {_render_exps(claim_before)} but the"
                   f" chain reaches {_render_exps(exps)}"))
            break
        if h.dim != dim:
            raise InvalidParameter(f"hyperplane of dimension {h.dim} in a"
                                   f" dimension-{dim} arrangement")
        # normalized covectors at one order are equal when their
        # (num, den) pairs are
        key = tuple((c.num, c.den) for c in covs[n - 1])
        if key in seen:
            failures.append(RowFailure(n, f"hyperplane {h.form()} repeated"))
            break
        seen.add(key)
        rexp = next(rexps)
        nxt = _check_step(h, exps, rexp, 1, claim_restr)
        if isinstance(nxt, str):
            failures.append(RowFailure(n, nxt))
            break
        steps.append(InductionStep(h, exps, rexp))
        exps = nxt
    if not failures and final is not None and tuple(final) != exps:
        failures.append(RowFailure(
            len(steps) + 1,
            f"final exponents {_render_exps(final)} but the chain reaches"
            f" {_render_exps(exps)}"))
    if failures:
        return TableReport(False, failures, None)
    return TableReport(True, (), InductionCertificate(base, steps, exps))


def certify_chain(dim, order, hyperplanes) -> TableReport:
    """Replay an explicit addition order from the empty arrangement; it
    proves what a verified table does (see verify_induction_table)."""
    return _replay_chain(dim, order, list(hyperplanes))


def verify_induction_table(table) -> TableReport:
    """Replay a claimed addition chain, recomputing every restriction.

    Each restriction's exponents are recomputed from its characteristic
    polynomial, exact mod P under the chain's certificate
    (`_chain_restrictions`): chi of the chain so far divided by t when
    the row raises its rank, read off its size in dimension 3, and
    otherwise derived from the previous row's by deletion-restriction.
    Whether the restriction is itself free is not decided, so by Terao's
    addition theorem a verified chain certifies inductive freeness only
    when the restrictions have rank <= 2, that is for dim <= 3.  A
    certificate from is_inductively_free decides every restriction.

    The rows' forms share one parse memo, which lives in this call, so
    each distinct signed term of the table is parsed once.
    """
    if isinstance(table, str):
        table = InductionTable.parse(table)
    hyps = []
    memo = {}
    for n, row in enumerate(table.rows, start=1):
        try:
            hyps.append(Hyperplane.parse(row.form, table.order, table.dim,
                                         memo))
        except FormatError as e:
            raise FormatError(f"row {n}: {e}") from None
    claimed = [(row.exps_before, row.restriction_exps) for row in table.rows]
    return _replay_chain(table.dim, table.order, hyps, claimed, table.final)


def emit_induction_table(arr: Arrangement, cert: InductionCertificate) -> str:
    """Render a certificate as table text; it must replay to arr."""
    if cert.replay() != arr:
        raise StaleCertificate(
            "certificate does not replay to this arrangement")
    rows = [TableRow(s.exps_before, s.hyperplane.form(), s.restriction_exps)
            for s in cert.steps]
    return InductionTable(arr.dim, arr.order, rows, cert.exponents).to_text()


# -- necessary-condition scan ------------------------------------------------

class NecLevel(NamedTuple):
    n: int
    count: int
    multisets: tuple


class NecCondReport:
    """Level-by-level census of the removal scan."""

    __slots__ = ("exponents", "levels")

    def __init__(self, exponents, levels):
        self.exponents = tuple(exponents)
        self.levels = tuple(levels)

    @property
    def death_level(self):
        """Level at which no subset survives, or None when some removal
        order reaches the empty arrangement."""
        last = self.levels[-1] if self.levels else None
        if last is None or last.count or last.n > sum(self.exponents):
            return None
        return last.n

    def to_lines(self) -> list:
        out = []
        for lv in self.levels:
            ms = ";".join(_render_exps(m) for m in lv.multisets)
            out.append(f"n={lv.n} N={lv.count} exps={ms}")
        return out

    def payload(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "levels": [{"n": lv.n, "N": lv.count,
                        "exps": [list(m) for m in lv.multisets]}
                       for lv in self.levels],
        }


def necessary_condition_counts(arr: Arrangement, exponents=None):
    """Count, level by level, the subsets that survive the removal test.

    At level n the scan holds every n-subset that can be removed one
    hyperplane at a time so that, at each step, the restriction count of
    the hyperplane being removed equals the sum of all but one of the
    current exponents; the left-out entry then drops by one.  A final
    count of zero means every removal order eventually violates the
    condition.
    """
    if exponents is None:
        exponents = arr.candidate_exponents()
        if exponents is None:
            raise NonFreeInput(
                "characteristic polynomial does not split; supply exponents")
    exps = _exps(exponents)
    if len(exps) != arr.dim:
        raise ShapeError(f"need {arr.dim} exponents, got {len(exps)}")
    if sum(exps) != len(arr):
        raise ShapeError(
            f"exponents {exps} are not a nonnegative splitting of the"
            f" cardinality {len(arr)}")
    full = (1 << len(arr)) - 1
    split = _split(len(arr), arr.line_masks())
    # a state, the mask of its remaining hyperplanes, has its restriction
    # counts (_counts, then _drop) and the frozenset of multisets reaching it
    counts, msets = {full: _counts(full, split)}, {full: frozenset({exps})}
    # no count exceeds a hyperplane's first one, its number of lines
    cap = max(counts[full], default=0)
    levels = []
    while counts:
        # tables: per set of multisets, which most states of a level share,
        # {restriction count: the multisets that removal leads to}
        nxt_counts, nxt_msets, tables = {}, {}, {}
        for remaining, cs in counts.items():
            key = msets[remaining]
            table = tables.get(key)
            if table is None:
                table = tables[key] = {}
                for ms in key:
                    for rc, new in _removal_moves(ms).items():
                        if rc <= cap:
                            table[rc] = table.get(rc, frozenset()) | {new}
            # most hyperplanes fail the test, so look up the ones that
            # pass by their count instead of walking every remaining one
            for rc, news in table.items():
                i = -1
                for _ in range(cs.count(rc)):
                    i = cs.index(rc, i + 1)
                    left = remaining ^ (1 << i)
                    have = nxt_msets.get(left)
                    if have is None:
                        nxt_counts[left] = _drop(cs, i, left, split)
                        nxt_msets[left] = news
                    elif have is not news and not news <= have:
                        nxt_msets[left] = have | news
        union = sorted(set().union(*set(nxt_msets.values())))
        levels.append(NecLevel(len(levels) + 1, len(nxt_counts), tuple(union)))
        counts, msets = nxt_counts, nxt_msets
    return NecCondReport(exps, levels)


# -- add/remove witnesses ----------------------------------------------------

class RecursionMove(NamedTuple):
    kind: str
    hyperplane: Hyperplane


class RecursionWitness:
    """A certified base arrangement plus a sequence of add/remove moves."""

    __slots__ = ("base", "moves")

    def __init__(self, base: Arrangement, moves):
        self.base = base
        coerced = []
        for mv in moves:
            if not isinstance(mv, RecursionMove):
                mv = RecursionMove(*mv)
            if mv.kind not in ("add", "remove"):
                raise InvalidParameter(f"unknown move kind {mv.kind!r}")
            coerced.append(mv)
        self.moves = tuple(coerced)


class MoveFailure(NamedTuple):
    move: int
    message: str


class WitnessReport:
    __slots__ = ("ok", "failures", "arrangement", "exponents")

    def __init__(self, ok, failures, arrangement, exponents):
        self.ok = ok
        self.failures = tuple(failures)
        self.arrangement = arrangement
        self.exponents = exponents

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return (f"witness verified; final exponents"
                    f" {_render_exps(self.exponents)}")
        return "; ".join(f"move {f.move}: {f.message}" for f in self.failures)


def _move_fail(k, message):
    return WitnessReport(False, (MoveFailure(k, message),), None, None)


def verify_recursion_witness(witness: RecursionWitness,
                             force: bool = False) -> WitnessReport:
    """Check an add/remove chain move by move.

    The base must be certified inductively free; every move must keep
    the restriction exponents inside the current exponents leaving one
    entry, and each restriction must itself be certified.  Acceptance
    is sound; rejection only means this particular witness does not
    establish freeness.
    """
    base_res = is_inductively_free(witness.base, force=force)
    if not base_res:
        return _move_fail(0, "base arrangement is not inductively free")
    arr = witness.base
    exps = base_res.exponents
    for k, mv in enumerate(witness.moves, start=1):
        h = mv.hyperplane
        if mv.kind == "add":
            if h in arr:
                return _move_fail(k, f"{h.form()} is already present")
            larger = nxt_arr = arr.with_hyperplane(h)
            delta = 1
        else:
            if h not in arr:
                return _move_fail(k, f"{h.form()} is not present")
            larger, nxt_arr = arr, arr.without_hyperplane(h)
            delta = -1
        if len(larger) == 1:
            restr, rexp = None, (0,) * (larger.dim - 1)
        else:
            restr = larger.restricted(h)
            rexp = restr.candidate_exponents()
        nxt_exps = _check_step(h, exps, rexp, delta)
        if isinstance(nxt_exps, str):
            return _move_fail(k, nxt_exps)
        try:
            certified = restr is None or is_inductively_free(restr, force)
        except RankLimit:
            return _move_fail(
                k, f"restriction of {h.form()} exceeds the certified rank"
                   " range")
        if not certified:
            return _move_fail(
                k, f"restriction of {h.form()} could not be certified")
        arr, exps = nxt_arr, nxt_exps
    return WitnessReport(True, (), arr, exps)


# -- hereditary variant --------------------------------------------------------

class HereditaryReport:
    __slots__ = ("ok", "verdicts", "arrangement")

    def __init__(self, ok, verdicts, arrangement):
        self.ok = ok
        self.verdicts = verdicts
        self.arrangement = arrangement

    def __bool__(self) -> bool:
        return self.ok


def hereditarily_inductively_free(arr: Arrangement,
                                  force: bool = False) -> HereditaryReport:
    """Decide inductive freeness of every restriction to a flat of
    positive dimension.

    Restrictions of dimension at most two are free for trivial reasons
    and are recorded as passing without a search.  The verdict map is
    keyed by flat bitmask.  Arrangements of rank above four are refused
    unless force is set, as by is_inductively_free.
    """
    _check_rank(arr, force)
    levels = arr.intersection_lattice().levels
    verdicts = {}
    for rk, level in enumerate(levels[:arr.dim]):
        rest_dim = arr.dim - rk
        for mask in level:
            if rest_dim <= 2:
                verdicts[mask] = True
                continue
            # the center, the last flat, holds every hyperplane
            contracted, _ = _contract(levels, mask, rk)
            search = _ChainSearch(contracted, rest_dim)
            center = contracted[-1][0]
            cand = _sub_exponents(contracted, center, rest_dim)
            verdicts[mask] = (cand is not None
                              and search.decide(center, cand) is not None)
    return HereditaryReport(all(verdicts.values()), verdicts, arr)
