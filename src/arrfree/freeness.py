"""Inductive-freeness certification for hyperplane arrangements.

The decision routine peels hyperplanes one at a time: an arrangement is
certified by an addition chain that starts at the empty arrangement and,
at every step, keeps the exponents of the restriction inside the
exponents of the smaller arrangement.  Such chains depend only on the
intersection lattice, so the search builds L(A) once, exactly, and then
works on bitmasks of its flats.  Certificates carry all intermediate
exponent multisets with them; only replaying a chain, the independent
check, recomputes restrictions with exact arithmetic.  The module keeps
no state between calls: every memo lives inside the call that fills it.

Refutations of rank-four arrangements report the level at which the
breadth-first necessary-condition scan dies; rank-three refutations
report how many subarrangements the exhaustive search visited.
"""

import re as _re
from numbers import Real
from typing import NamedTuple

from .arrangement import (Arrangement, Hyperplane, RankLimit, _bits,
                          _contract, _sub_exponents)
from .cyclotomic import ArrfreeError, FormatError, check_header


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
        arr = self.base
        for step in self.steps:
            if step.hyperplane in arr:
                raise StaleCertificate(
                    f"chain repeats the hyperplane {step.hyperplane.form()}")
            arr = arr.with_hyperplane(step.hyperplane)
        return arr

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


def _lines_through(m: int, lines) -> list:
    """through[i]: the lines through atom i, in the order of lines, which
    numbers the atoms of the restriction to i (``_contract``).  _counts
    gives each atom of mask the lines through it that keep another member
    of mask, and -1 (asked for by no removal rule) to other atoms; _drop
    updates them after removing i: j loses each line left with j alone."""
    through = [[] for _ in range(m)]
    for line in lines:
        for i in _bits(line):
            through[i].append(line)
    return through


def _counts(mask, through) -> list:
    return [sum(1 for line in t if line & mask & ~(1 << i))
            if mask >> i & 1 else -1 for i, t in enumerate(through)]


def _drop(counts, i, left, through) -> list:
    child = counts.copy()
    child[i] = -1
    for line in through[i]:
        r = line & left
        if r and not r & (r - 1):
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


class _ChainSearch:
    """Memoised addition-chain search on the subarrangements (masks of
    atoms) of one lattice.  decide(mask, cand, parent), cand being the
    (split) roots of the subarrangement's characteristic polynomial,
    gives the steps (atom, exponents before, restriction exponents) of a
    chain that ends at cand, or None.  The restriction to atom i is, in
    the lattice contracted at i, the lines through i that keep a second
    member of the mask; a node's counts are made only on a memo miss,
    by _counts at a root or by _drop from parent, its parent's (counts,
    i).  exps memoises a mask's roots for the restriction searches."""

    __slots__ = ("levels", "dim", "memo", "exps", "through", "restrictions")

    def __init__(self, levels, dim):
        self.levels = levels
        self.dim = dim
        self.memo = {}
        self.exps = {}
        # the center, the last flat, holds every atom
        self.through = _lines_through(levels[-1][0].bit_length(),
                                      levels[2] if len(levels) > 2 else ())
        self.restrictions = {}

    def decide(self, mask, cand, parent=None):
        hit = self.memo.get(mask, _MISSING)
        if hit is _MISSING:
            counts = (_counts(mask, self.through) if parent is None
                      else _drop(*parent, mask, self.through))
            hit = self.memo[mask] = self._search(mask, cand, counts)
        return hit

    def _search(self, mask, cand, counts):
        if cand.count(0) >= self.dim - 2:
            # dim - rank roots are 0: rank <= 2, which always splits
            return _low_rank_chain(self.dim, _bits(mask))
        moves = _removal_moves(cand)
        for _, i in sorted((c, i) for i, c in enumerate(counts) if c in moves):
            left = mask & ~(1 << i)
            rmask = sum(1 << j for j, line in enumerate(self.through[i])
                        if line & left)
            restr = self.restrictions.get(i)
            if restr is None:
                restr = self.restrictions[i] = _ChainSearch(
                    _contract(self.levels, 1 << i, 1), self.dim - 1)
            rexp = restr.exps.get(rmask, _MISSING)
            if rexp is _MISSING:
                rexp = restr.exps[rmask] = _sub_exponents(
                    restr.levels, rmask, restr.dim)
            if rexp is None:
                continue
            # deletion-restriction: chi(B - H) = chi(B) + chi(B''), so the
            # deletion's roots are cand with the entry left by rexp lowered
            dexp = _chain_step(cand, rexp, -1)
            if dexp is None or restr.decide(rmask, rexp) is None:
                continue
            sub = self.decide(left, dexp, (counts, i))
            if sub is not None:
                return sub + ((i, dexp, rexp),)
        return None


def _check_rank(arr: Arrangement, force: bool) -> None:
    if arr.rank() > 4 and not force:
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
    search = _ChainSearch(arr.intersection_lattice().levels, arr.dim)
    res = search.decide((1 << len(arr)) - 1, top)
    if res is not None:
        steps = [InductionStep(arr.hyperplanes[i], b, r) for i, b, r in res]
        return InductionCertificate(Arrangement(arr.dim, (), arr.order),
                                    steps, top)
    level = None
    if arr.rank() >= 4:
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


def _exact_step(larger, h, exps, delta, memo, claim=None):
    """Check adding (delta 1) or removing (delta -1) h, a member of larger,
    exactly.  Returns (restriction, its exponents, the exponents after the
    step), the restriction None when h is alone in larger, or the message
    of the first failed check.  memo, made for one chain, maps a
    restriction's root order and hyperplane keys to its exponents, so no
    Cyc is hashed."""
    if len(larger) == 1:
        restr, rexp = None, (0,) * (larger.dim - 1)
    else:
        restr = larger.restricted(h)
        key = (restr.order, tuple(g.key() for g in restr))
        rexp = memo.get(key, _MISSING)
        if rexp is _MISSING:
            rexp = memo[key] = restr.candidate_exponents()
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
    return restr, rexp, nxt


def _replay_chain(dim, order, hyperplanes, claimed=None, final=None):
    exps = (0,) * dim
    arr = Arrangement(dim, (), order)
    steps = []
    failures = []
    memo = {}
    for n, h in enumerate(hyperplanes, start=1):
        claim_before, claim_restr = claimed[n - 1] if claimed else (exps, None)
        if claim_before != exps:
            failures.append(RowFailure(
                n, f"claims exponents {_render_exps(claim_before)} but the"
                   f" chain reaches {_render_exps(exps)}"))
            break
        if h in arr:
            failures.append(RowFailure(n, f"hyperplane {h.form()} repeated"))
            break
        bigger = arr.with_hyperplane(h)
        step = _exact_step(bigger, h, exps, 1, memo, claim_restr)
        if isinstance(step, str):
            failures.append(RowFailure(n, step))
            break
        _, rexp, nxt = step
        steps.append(InductionStep(h, exps, rexp))
        exps = nxt
        arr = bigger
    if not failures and final is not None and tuple(final) != exps:
        failures.append(RowFailure(
            len(steps) + 1,
            f"final exponents {_render_exps(final)} but the chain reaches"
            f" {_render_exps(exps)}"))
    if failures:
        return TableReport(False, failures, None)
    cert = InductionCertificate(Arrangement(dim, (), order), steps, exps)
    return TableReport(True, (), cert)


def certify_chain(dim, order, hyperplanes) -> TableReport:
    """Replay an explicit addition order from the empty arrangement; it
    proves what a verified table does (see verify_induction_table)."""
    return _replay_chain(dim, order, list(hyperplanes))


def verify_induction_table(table) -> TableReport:
    """Replay a claimed addition chain, recomputing every restriction.

    Each restriction's exponents are recomputed exactly, but whether the
    restriction is itself free is not decided, so by Terao's addition
    theorem a verified chain certifies inductive freeness only when the
    restrictions have rank <= 2, that is for dim <= 3.  A certificate
    from is_inductively_free decides every restriction.
    """
    if isinstance(table, str):
        table = InductionTable.parse(table)
    hyps = []
    for n, row in enumerate(table.rows, start=1):
        try:
            hyps.append(Hyperplane.parse(row.form, table.order, table.dim))
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
    m = len(arr)
    through = _lines_through(m, arr.line_masks())
    moves: dict = {}
    # a state is keyed by the mask of its remaining hyperplanes and holds
    # its restriction counts (_counts, then _drop) and the multisets
    # that reach it
    states = {(1 << m) - 1: (_counts((1 << m) - 1, through), {exps})}
    levels = []
    n = 0
    while states:
        n += 1
        nxt: dict = {}
        for remaining, (counts, msets) in states.items():
            by_rc: dict = {}
            for ms in msets:
                table = moves.get(ms)
                if table is None:
                    table = moves[ms] = _removal_moves(ms)
                for rc, new in table.items():
                    by_rc.setdefault(rc, []).append(new)
            # most hyperplanes fail the test, so look up the ones that
            # pass by their count instead of walking every remaining one
            for rc, news in by_rc.items():
                i = -1
                for _ in range(counts.count(rc)):
                    i = counts.index(rc, i + 1)
                    left = remaining ^ (1 << i)
                    if left in nxt:
                        nxt[left][1].update(news)
                    else:
                        nxt[left] = _drop(counts, i, left, through), set(news)
        union = sorted({ms for _, msets in nxt.values() for ms in msets})
        levels.append(NecLevel(n, len(nxt), tuple(union)))
        states = nxt
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
                raise ValueError(f"unknown move kind {mv.kind!r}")
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
    memo = {}
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
        step = _exact_step(larger, h, exps, delta, memo)
        if isinstance(step, str):
            return _move_fail(k, step)
        restr, _, nxt_exps = step
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
            contracted = _contract(levels, mask, rk)
            search = _ChainSearch(contracted, rest_dim)
            center = contracted[-1][0]
            cand = _sub_exponents(contracted, center, rest_dim)
            verdicts[mask] = (cand is not None
                              and search.decide(center, cand) is not None)
    return HereditaryReport(all(verdicts.values()), verdicts, arr)
