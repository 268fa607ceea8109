"""Inductive-freeness certification for hyperplane arrangements.

The decision routine peels hyperplanes one at a time: an arrangement is
certified by an addition chain that starts at the empty arrangement and,
at every step, keeps the exponents of the restriction inside the
exponents of the smaller arrangement.  Certificates carry all
intermediate exponent multisets with them, so replaying or printing a
certificate never refactors a characteristic polynomial for the
arrangements along the chain; only the restrictions are recomputed when
a chain is checked.

Refutations of rank-four arrangements report the level at which the
breadth-first necessary-condition scan dies; rank-three refutations
report how many subarrangements the exhaustive search visited.
"""

import re as _re
from collections import Counter
from typing import NamedTuple

from .arrangement import Arrangement, Hyperplane, RankLimit, _bits
from .cyclotomic import FormatError


class ShapeError(ValueError):
    """Raised when exponent multisets have incompatible lengths."""


class NonFreeInput(ValueError):
    """Raised when an operation needs exponents but none are available."""


class StaleCertificate(ValueError):
    """Raised when a certificate does not replay to the arrangement at hand."""


# -- exponent multisets ------------------------------------------------------

def _exps(values) -> tuple:
    out = tuple(sorted(int(v) for v in values))
    if out and out[0] < 0:
        raise ShapeError("exponents must be nonnegative")
    return out


def _render_exps(exps) -> str:
    return ",".join(str(e) for e in exps)


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
    gone = Counter(whole) - Counter(deleted)
    came = Counter(deleted) - Counter(whole)
    if sum(gone.values()) != 1 or sum(came.values()) != 1:
        return False
    (b,) = gone
    if came != Counter({b - 1: 1}):
        return False
    rest = Counter(whole)
    rest[b] -= 1
    return +rest == Counter(restriction)


def _without_submultiset(exps, sub):
    """What is left of exps after removing sub, or None if sub is not inside."""
    left = Counter(exps)
    for v in sub:
        if left[v] <= 0:
            return None
        left[v] -= 1
    return tuple(sorted((+left).elements()))


def _chain_step(exps, restriction_exps):
    """Exponents after adding a hyperplane whose restriction has the given
    exponents, or None when the shapes do not mesh."""
    if len(restriction_exps) + 1 != len(exps):
        return None
    rest = _without_submultiset(exps, restriction_exps)
    if rest is None or len(rest) != 1:
        return None
    return tuple(sorted(restriction_exps + (rest[0] + 1,)))


def _removal_step(exps, restriction_exps):
    """Exponents after removing a hyperplane whose restriction (taken before
    the removal) has the given exponents, or None when the shapes do not
    mesh."""
    if len(restriction_exps) + 1 != len(exps):
        return None
    rest = _without_submultiset(exps, restriction_exps)
    if rest is None or len(rest) != 1 or rest[0] < 1:
        return None
    return tuple(sorted(restriction_exps + (rest[0] - 1,)))


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
_VERDICTS: dict = {}
_CAND_CACHE: dict = {}


def clear_caches() -> None:
    """Drop memoized verdicts and exponent candidates."""
    _VERDICTS.clear()
    _CAND_CACHE.clear()


def _candidate_exponents_cached(arr: Arrangement):
    hit = _CAND_CACHE.get(arr, _MISSING)
    if hit is _MISSING:
        hit = arr.candidate_exponents()
        _CAND_CACHE[arr] = hit
    return hit


def _low_rank_chain(dim, hyperplanes):
    # any order certifies a rank <= 2 arrangement: every hyperplane
    # contains the common center, so each restriction is empty (first
    # step) or that center alone
    steps = []
    exps = (0,) * dim
    for n, h in enumerate(hyperplanes):
        rexp = (0,) * (dim - 1) if n == 0 else (0,) * (dim - 2) + (1,)
        steps.append(InductionStep(h, exps, rexp))
        exps = _chain_step(exps, rexp)
    return tuple(steps), exps


def is_inductively_free(arr: Arrangement, force: bool = False):
    """Decide inductive freeness.

    Returns an InductionCertificate (truthy) or a NotIF refutation
    (falsy).  Arrangements of rank above four are refused unless force
    is set; the exhaustive search there can be very slow.
    """
    hit = _VERDICTS.get(arr)
    if hit is not None:
        return hit
    if arr.rank() > 4 and not force:
        raise RankLimit(
            f"rank {arr.rank()} decision is not guaranteed tractable;"
            " pass force=True to run it anyway")
    res = _decide(arr, force)
    _VERDICTS[arr] = res
    return res


def _decide(arr: Arrangement, force: bool):
    dim, order = arr.dim, arr.order
    empty = Arrangement(dim, (), order)
    if arr.rank() <= 2:
        steps, exps = _low_rank_chain(dim, arr.hyperplanes)
        return InductionCertificate(empty, steps, exps)
    top = arr.candidate_exponents()
    if top is None:
        return NotIF(arr, "non-splitting")
    hyps = arr.hyperplanes
    m = len(hyps)
    lines = arr.line_masks()
    through = [tuple(L for L in lines if L >> i & 1) for i in range(m)]
    memo: dict = {}

    def decide(mask, sub):
        hit = memo.get(mask, _MISSING)
        if hit is not _MISSING:
            return hit
        if sub is None:
            sub = Arrangement(dim, tuple(hyps[i] for i in _bits(mask)), order)
        if sub.rank() <= 2:
            res = _low_rank_chain(dim, sub.hyperplanes)
            memo[mask] = res
            return res
        cand = sub.candidate_exponents()
        if cand is None:
            memo[mask] = None
            return None
        size = len(sub)
        admissible = {size - b for b in set(cand) if b >= 1}
        options = []
        for i in _bits(mask):
            rc = sum(1 for L in through[i] if (L & mask).bit_count() >= 2)
            if rc not in admissible:
                continue
            restr = sub.restricted(hyps[i])
            rexp = _candidate_exponents_cached(restr)
            if rexp is None:
                continue
            left = _without_submultiset(cand, rexp)
            if left is None or len(left) != 1 or left[0] < 1:
                continue
            options.append((rc, i, restr, rexp))
        options.sort(key=lambda t: t[:2])
        for rc, i, restr, rexp in options:
            if not is_inductively_free(restr, force):
                continue
            child = decide(mask & ~(1 << i), None)
            if child is None:
                continue
            csteps, cexps = child
            nxt = _chain_step(cexps, rexp)
            if nxt is None:
                continue
            res = (csteps + (InductionStep(hyps[i], cexps, rexp),), nxt)
            memo[mask] = res
            return res
        memo[mask] = None
        return None

    res = decide((1 << m) - 1, arr)
    if res is not None:
        steps, exps = res
        return InductionCertificate(empty, steps, exps)
    level = None
    if arr.rank() >= 4:
        level = necessary_condition_counts(arr, exponents=top).death_level
    return NotIF(arr, "exhausted", level, len(memo))


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

    @staticmethod
    def _parse_exps(text, ln):
        try:
            return tuple(sorted(int(p) for p in text.split(",")))
        except ValueError:
            raise FormatError(f"line {ln}: bad exponent list {text!r}") from None

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
                dim, order = int(m.group(1)), int(m.group(2))
                continue
            if final is not None:
                raise FormatError(f"line {ln}: content after the final row")
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise FormatError(f"line {ln}: expected three '|' columns")
            if parts[1]:
                rows.append(TableRow(cls._parse_exps(parts[0], ln), parts[1],
                                     cls._parse_exps(parts[2], ln)))
            else:
                if parts[2]:
                    raise FormatError(
                        f"line {ln}: the final row carries only exponents")
                final = cls._parse_exps(parts[0], ln)
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


def _replay_chain(dim, order, hyperplanes, claimed=None, final=None):
    exps = (0,) * dim
    arr = Arrangement(dim, (), order)
    steps = []
    failures = []
    for n, h in enumerate(hyperplanes, start=1):
        if claimed is not None:
            claim_before, claim_restr = claimed[n - 1]
            if claim_before != exps:
                failures.append(RowFailure(
                    n, f"claims exponents {_render_exps(claim_before)} but the"
                       f" chain reaches {_render_exps(exps)}"))
                break
        if h in arr:
            failures.append(RowFailure(n, f"hyperplane {h.form()} repeated"))
            break
        bigger = arr.with_hyperplane(h)
        if len(bigger) == 1:
            rexp = (0,) * (dim - 1)
        else:
            rexp = _candidate_exponents_cached(bigger.restricted(h))
        if rexp is None:
            failures.append(RowFailure(
                n, f"restriction of {h.form()} has a non-splitting"
                   " characteristic polynomial"))
            break
        if claimed is not None and claim_restr != rexp:
            failures.append(RowFailure(
                n, f"claims restriction exponents {_render_exps(claim_restr)}"
                   f" but recomputation gives {_render_exps(rexp)}"))
            break
        nxt = _chain_step(exps, rexp)
        if nxt is None:
            failures.append(RowFailure(
                n, f"restriction exponents {_render_exps(rexp)} do not sit"
                   f" inside {_render_exps(exps)} leaving one entry"))
            break
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
    """Replay an explicit addition order from the empty arrangement."""
    return _replay_chain(dim, order, list(hyperplanes))


def verify_induction_table(table) -> TableReport:
    """Replay a claimed addition chain, recomputing every restriction."""
    if isinstance(table, str):
        table = InductionTable.parse(table)
    hyps = [Hyperplane.parse(row.form, table.order, table.dim)
            for row in table.rows]
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
        last = self.levels[-1] if self.levels else None
        return last.n if last is not None and last.count == 0 else None

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


def _removal_moves(ms):
    """{restriction count: next multiset} for every removal ms allows.

    Removing a hyperplane whose restriction count is rc is allowed when
    v = sum(ms) - rc is a positive entry of ms; that entry drops by one.
    """
    total = sum(ms)
    out = {}
    for v in set(ms):
        if v >= 1:
            pos = ms.index(v)
            out[total - v] = tuple(sorted(ms[:pos] + ms[pos + 1:] + (v - 1,)))
    return out


def necessary_condition_counts(arr: Arrangement, exponents=None, threads=None):
    """Count, level by level, the subsets that survive the removal test.

    At level n the scan holds every n-subset that can be removed one
    hyperplane at a time so that, at each step, the restriction count of
    the hyperplane being removed equals the sum of all but one of the
    current exponents; the left-out entry then drops by one.  A final
    count of zero means every removal order eventually violates the
    condition.

    The scan is sequential; threads is accepted for compatibility and
    has no effect.
    """
    if exponents is None:
        exponents = arr.candidate_exponents()
        if exponents is None:
            raise NonFreeInput(
                "characteristic polynomial does not split; supply exponents")
    exps = _exps(exponents)
    if len(exps) != arr.dim:
        raise ShapeError(f"need {arr.dim} exponents, got {len(exps)}")
    if sum(exps) != len(arr) or min(exps, default=0) < 0:
        raise ShapeError(
            f"exponents {exps} are not a nonnegative splitting of the"
            f" cardinality {len(arr)}")
    m = len(arr)
    through = [[] for _ in range(m)]
    for line in arr.line_masks():
        for i in _bits(line):
            through[i].append(line)
    moves: dict = {}
    # a state is keyed by the mask of its remaining hyperplanes and holds
    # the multisets that reach it and the restriction count of every
    # hyperplane, -1 for a removed one (no removal rule asks for -1)
    states = {(1 << m) - 1: ([len(t) for t in through], {exps})}
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
                    hit = nxt.get(left)
                    if hit is not None:
                        hit[1].update(news)
                        continue
                    # only lines through i change: one whose last two
                    # remaining members were i and j stops counting for j
                    child = counts.copy()
                    child[i] = -1
                    for line in through[i]:
                        r = line & left
                        if r and not r & (r - 1):
                            child[r.bit_length() - 1] -= 1
                    nxt[left] = (child, set(news))
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
    for k, mv in enumerate(witness.moves, start=1):
        h = mv.hyperplane
        if mv.kind == "add":
            if h in arr:
                return _move_fail(k, f"{h.form()} is already present")
            nxt_arr = arr.with_hyperplane(h)
            restr = nxt_arr.restricted(h)
            stepper = _chain_step
        else:
            if h not in arr:
                return _move_fail(k, f"{h.form()} is not present")
            restr = arr.restricted(h)
            nxt_arr = arr.without_hyperplane(h)
            stepper = _removal_step
        rexp = _candidate_exponents_cached(restr)
        if rexp is None:
            return _move_fail(
                k, f"restriction of {h.form()} has a non-splitting"
                   " characteristic polynomial")
        nxt_exps = stepper(exps, rexp)
        if nxt_exps is None:
            return _move_fail(
                k, f"restriction exponents {_render_exps(rexp)} do not sit"
                   f" inside {_render_exps(exps)} leaving one entry")
        try:
            certified = is_inductively_free(restr, force=force)
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
    keyed by flat bitmask.
    """
    lat = arr.intersection_lattice()
    verdicts = {}
    ok = True
    top = min(arr.rank(), arr.dim - 1)
    for rk in range(top + 1):
        rest_dim = arr.dim - rk
        for mask in lat.flats(rk):
            if rest_dim <= 2:
                verdicts[mask] = True
                continue
            sub = arr if rk == 0 else arr.restricted(lat.flat(mask))
            res = is_inductively_free(sub, force=force)
            verdicts[mask] = bool(res)
            ok = ok and bool(res)
    return HereditaryReport(ok, verdicts, arr)
