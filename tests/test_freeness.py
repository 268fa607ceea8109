import json
import random
from collections import Counter

import pytest

from arrfree.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    RankLimit,
    _bits,
    _charpoly,
    _contract,
    _sub_exponents,
    _sub_levels,
)
from arrfree.catalog import (
    canonical_induction_order,
    group,
    intermediate,
    restriction_by_type,
)
from arrfree import freeness
from arrfree.cyclotomic import FormatError
from arrfree.freeness import (
    InductionCertificate,
    InductionStep,
    InductionTable,
    NecCondReport,
    NecLevel,
    NonFreeInput,
    NotIF,
    RecursionWitness,
    ShapeError,
    StaleCertificate,
    _ChainSearch,
    _chain_step,
    _decide,
    _removal_moves,
    certify_chain,
    check_triple,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    necessary_condition_counts,
    verify_induction_table,
    verify_recursion_witness,
)


def boolean(dim):
    covs = []
    for i in range(dim):
        v = [0] * dim
        v[i] = 1
        covs.append(v)
    return Arrangement(dim, covs)


def test_check_triple():
    assert check_triple((1, 4, 6), (1, 4, 5), (1, 4))
    assert check_triple((1, 7, 9, 11), (1, 7, 9, 10), (1, 7, 9))
    assert not check_triple((1, 4, 6), (1, 4, 4), (1, 4))
    assert not check_triple((1, 4, 6), (1, 3, 6), (1, 4))
    assert not check_triple((1, 4, 6), (1, 4, 5), (1, 5))
    assert not check_triple((1, 4, 6), (1, 4, 6), (1, 4))
    assert check_triple((1,), (0,), ())
    with pytest.raises(ShapeError):
        check_triple((1, 4, 6), (1, 4), (1, 4))
    with pytest.raises(ShapeError):
        check_triple((1, 4, 6), (1, 4, 5), (1, 4, 5))
    # an entry that is not an integer is refused, not truncated; an
    # integral float reads as its integer, and a generator is read once
    with pytest.raises(ShapeError, match="integers"):
        check_triple([1, 4, 5.7], [1, 4, 4], [1, 4])
    with pytest.raises(ShapeError, match="integers"):
        check_triple([1, 4, "6"], [1, 4, 5], [1, 4])
    assert check_triple([1, 4, 6.0], (e for e in (1, 4, 5)), [1, 4])


def _without_submultiset(exps, sub):
    """What is left of exps after removing sub, or None if sub is not inside."""
    left = Counter(exps)
    for v in sub:
        if left[v] <= 0:
            return None
        left[v] -= 1
    return tuple(sorted((+left).elements()))


def _reference_chain_step(exps, restriction_exps, delta=1):
    """The addition-deletion step by multiset difference, as it was coded
    before the rule was reduced to one sum and one sorted comparison."""
    if len(restriction_exps) + 1 != len(exps):
        return None
    rest = _without_submultiset(exps, restriction_exps)
    if rest is None or len(rest) != 1 or rest[0] + delta < 0:
        return None
    return tuple(sorted(restriction_exps + (rest[0] + delta,)))


def _chain_step_cases():
    """Seeded (exps, restriction exps, delta) triples: true sub-multisets
    less one entry, zeros among the entries, an entry swapped for another
    value, wrong lengths, and both deltas."""
    rng = random.Random(20261018)
    cases = []
    for _ in range(600):
        size = rng.randint(1, 5)
        exps = tuple(sorted(rng.randint(0, 4) for _ in range(size)))
        rexp = list(exps)
        del rexp[rng.randrange(len(rexp))]
        kind = rng.randrange(4)
        if kind == 1 and rexp:
            rexp[rng.randrange(len(rexp))] = rng.randint(0, 5)
        elif kind == 2:
            rexp.append(rng.randint(0, 4))
        elif kind == 3 and rexp:
            del rexp[rng.randrange(len(rexp))]
        cases.append((exps, tuple(sorted(rexp)), rng.choice((1, -1))))
    return cases


def _check_chain_step(step):
    outcomes = Counter()
    for exps, rexp, delta in _chain_step_cases():
        want = _reference_chain_step(exps, rexp, delta)
        assert step(exps, rexp, delta) == want, (exps, rexp, delta)
        outcomes[want is None] += 1
    # the cases reach both answers
    assert outcomes[True] and outcomes[False]


def test_chain_step_matches_multiset_difference():
    _check_chain_step(_chain_step)


def test_chain_step_agrees_with_removal_moves():
    # removing entry v of E is the census move for restriction count
    # sum(E) - v, and no other count has a move
    for exps, _, _ in _chain_step_cases():
        moves = _removal_moves(exps)
        for pos, v in enumerate(exps):
            rexp = exps[:pos] + exps[pos + 1:]
            step = _chain_step(exps, rexp, -1)
            assert step == moves.get(sum(exps) - v), (exps, v)
        assert set(moves) == {sum(exps) - v for v in exps if v >= 1}


def test_broken_chain_steps_are_caught():
    def unguarded(exps, rexp, delta=1):
        v = sum(exps) - sum(rexp)
        if sorted(rexp + (v,)) != sorted(exps):
            return None
        return tuple(sorted(rexp + (v + delta,)))

    def sums_only(exps, rexp, delta=1):
        v = sum(exps) - sum(rexp)
        if v + delta < 0:
            return None
        return tuple(sorted(rexp + (v + delta,)))

    for broken in (unguarded, sums_only):
        with pytest.raises(AssertionError):
            _check_chain_step(broken)


def test_trivial_arrangements():
    empty = Arrangement(3, ())
    cert = is_inductively_free(empty)
    assert cert and cert.exponents == (0, 0, 0) and not cert.steps

    single = Arrangement(3, ["a"])
    cert = is_inductively_free(single)
    assert cert and cert.exponents == (0, 0, 1)

    pencil = Arrangement(2, ["a", "b", "a - b", "a + b"])
    cert = is_inductively_free(pencil)
    assert cert.exponents == (1, 3)
    assert cert.replay() == pencil


def test_intermediate_rank3_certificate():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    assert cert
    assert cert.exponents == (1, 4, 5)
    assert cert.replay() == arr
    # every step feeds the next one
    exps = (0, 0, 0)
    for step in cert.steps:
        assert step.exps_before == exps
        nxt = sorted(exps)
        assert Counter(step.restriction_exps) <= Counter(exps)
        exps = step.exps_before
        left = Counter(exps) - Counter(step.restriction_exps)
        (d,) = left.elements()
        exps = tuple(sorted(step.restriction_exps + (d + 1,)))
    assert exps == cert.exponents


def test_monomial_rank3_refuted():
    arr = intermediate(3, 3, 0)
    res = is_inductively_free(arr)
    assert not res
    assert res.reason == "exhausted"
    assert res.level is None
    assert res.explored > 0
    # the characteristic polynomial still splits
    assert arr.candidate_exponents() == (1, 4, 4)


def test_nonsplitting_refutation():
    arr = Arrangement(3, ["a", "b", "c", "a + b + c"])
    res = is_inductively_free(arr)
    assert not res and res.reason == "non-splitting"


def test_half_integer_family_rank4():
    for k in range(5):
        arr = intermediate(2, 4, k)
        cert = is_inductively_free(arr)
        assert cert, f"k={k}"
        assert cert.exponents == arr.candidate_exponents()


def test_rank_limit():
    arr = boolean(5)
    with pytest.raises(RankLimit):
        is_inductively_free(arr)
    cert = is_inductively_free(arr, force=True)
    assert cert and cert.exponents == (1, 1, 1, 1, 1)
    with pytest.raises(RankLimit):
        hereditarily_inductively_free(arr)
    report = hereditarily_inductively_free(arr, force=True)
    assert report.ok and report.verdicts[0] is True


def _canonical_table(r):
    rep = certify_chain(6, r, canonical_induction_order(r, 6))
    return emit_induction_table(intermediate(r, 6, 4), rep.certificate)


def _check_replay_memo(monkeypatch, tables):
    """A replay computes the exponents of each distinct restriction of its
    chain once, and carries nothing over to the next replay."""
    calls = []
    real = Arrangement.candidate_exponents

    def counting(self):
        calls.append(self)
        assert len(calls) <= 13, "a restriction's exponents were recomputed"
        return real(self)

    with monkeypatch.context() as m:
        m.setattr(Arrangement, "candidate_exponents", counting)
        # intermediate(r, 6, 4): 4 + 15 r rows, all but the first restricted
        for r in (3, 3, 4):
            calls.clear()
            assert verify_induction_table(tables[r])
            assert len(calls) == 13, (r, len(calls))


def test_replay_memo_lives_in_one_call(monkeypatch):
    tables = {r: _canonical_table(r) for r in (3, 4)}
    _check_replay_memo(monkeypatch, tables)

    # broken memos: none, one for each row, one shared between calls
    real = freeness._exact_step
    shared, by_row = {}, {}
    for pick in (lambda h: {}, lambda h: by_row.setdefault(h.key(), {}),
                 lambda h: shared):
        def step(larger, h, exps, delta, memo, claim=None, pick=pick):
            return real(larger, h, exps, delta, pick(h), claim)

        with monkeypatch.context() as m:
            m.setattr(freeness, "_exact_step", step)
            with pytest.raises(AssertionError):
                _check_replay_memo(monkeypatch, tables)


def test_canonical_chain_pattern():
    hyps = canonical_induction_order(3, 3)
    report = certify_chain(3, 3, hyps)
    assert report.ok
    cert = report.certificate
    assert cert.exponents == (1, 4, 5)
    before = [s.exps_before for s in cert.steps]
    assert before == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 1, 3),
        (1, 1, 3), (1, 2, 3), (1, 3, 3), (1, 3, 4), (1, 4, 4),
    ]
    restr = [s.restriction_exps for s in cert.steps]
    assert restr == [
        (0, 0), (0, 1), (0, 1), (0, 1), (1, 3),
        (1, 3), (1, 3), (1, 3), (1, 4), (1, 4),
    ]


def test_emit_and_verify_round_trip():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    text = emit_induction_table(arr, cert)
    report = verify_induction_table(text)
    assert report.ok
    assert report.exponents == (1, 4, 5)
    # the rendered table parses back into the same rows
    table = InductionTable.parse(text)
    assert table.final == (1, 4, 5)
    assert len(table.rows) == len(arr)


def test_emit_rejects_foreign_arrangement():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    with pytest.raises(StaleCertificate):
        emit_induction_table(intermediate(3, 3, 2), cert)


def test_verify_flags_bad_rows():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    lines = emit_induction_table(arr, cert).splitlines()

    # corrupt the claimed restriction exponents of row 5
    left, form, _ = lines[5].split("|")
    bad = "\n".join(lines[:5] + [f"{left}|{form}| 0,1"] + lines[6:])
    report = verify_induction_table(bad)
    assert not report.ok
    assert report.failures[0].row == 5
    assert "restriction exponents" in report.failures[0].message

    # corrupt the final exponents
    bad = "\n".join(lines[:-1] + ["1,4,6 | |"])
    report = verify_induction_table(bad)
    assert not report.ok
    assert "final" in report.failures[0].message

    # swapping two chain rows breaks the claimed running exponents
    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:])
    report = verify_induction_table(swapped)
    assert not report.ok
    assert report.failures[0].row == 1


def test_table_parse_errors():
    with pytest.raises(FormatError):
        InductionTable.parse("0,0,0 | a | 0,0\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,0,0 | a\n1,1,1 | |\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,x,0 | a | 0,0\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,0,0 | a | 0,0\n")


def test_boolean_rank4_scan():
    report = necessary_condition_counts(boolean(4))
    assert [lv.count for lv in report.levels] == [4, 6, 4, 1, 0]
    assert report.levels[0].multisets == ((0, 1, 1, 1),)
    assert report.to_lines()[0] == "n=1 N=4 exps=0,1,1,1"
    assert report.to_lines()[-1] == "n=5 N=0 exps="
    # every removal order reaches the empty arrangement
    assert report.death_level is None


def test_census_death_levels():
    for gname, tag, exps, level in (("G33", "A1", (1, 7, 9, 11), 11),
                                    ("G34", "A1^2", (1, 13, 19, 23), 13)):
        arr = restriction_by_type(group(gname), tag)
        report = necessary_condition_counts(arr, exponents=exps)
        assert report.death_level == level, gname


def test_scan_is_deterministic():
    arr = intermediate(2, 4, 1)
    payloads = {json.dumps(necessary_condition_counts(arr).payload(),
                           sort_keys=True) for _ in range(3)}
    assert len(payloads) == 1
    # the census is sequential and takes no thread count
    with pytest.raises(TypeError):
        necessary_condition_counts(arr, threads=2)


def test_census_refuses_exponents_that_are_not_integers():
    arr = intermediate(3, 3, 1)
    with pytest.raises(ShapeError, match="integers"):
        necessary_condition_counts(arr, exponents=(1.9, 4.2, 5))
    report = necessary_condition_counts(arr, exponents=(1, 4, 5.0))
    assert report.exponents == (1, 4, 5)
    assert report.payload() == necessary_condition_counts(
        arr, exponents=iter((5, 4, 1))).payload()


def _reference_census(arr, exponents):
    """The removal census as a full scan: every line is intersected with
    every state's remaining set.  Returns the report and the largest
    number of multisets any one state held."""
    exps = tuple(sorted(exponents))
    m = len(arr)
    lines = arr.line_masks()
    full = (1 << m) - 1
    states = {0: {exps}}
    levels = []
    widest = 1
    n = 0
    while states:
        n += 1
        nxt = {}
        for bmask, msets in sorted(states.items()):
            remaining = full & ~bmask
            counts = [0] * m
            for line in lines:
                inter = line & remaining
                if inter.bit_count() >= 2:
                    for i in range(m):
                        if inter >> i & 1:
                            counts[i] += 1
            for i in range(m):
                if not remaining >> i & 1:
                    continue
                for ms in msets:
                    v = sum(ms) - counts[i]
                    if v < 1 or v not in ms:
                        continue
                    pos = ms.index(v)
                    new = tuple(sorted(ms[:pos] + ms[pos + 1:] + (v - 1,)))
                    nxt.setdefault(bmask | 1 << i, set()).add(new)
        widest = max([widest] + [len(v) for v in nxt.values()])
        union = sorted({ms for vals in nxt.values() for ms in vals})
        levels.append(NecLevel(n, len(nxt), tuple(union)))
        states = nxt
    return NecCondReport(exps, levels), widest


def _random_arrangement(rng, dim, size):
    covs = set()
    while len(covs) < size:
        v = tuple(rng.randint(-1, 1) for _ in range(dim))
        if any(v):
            covs.add(v)
    return Arrangement(dim, [list(v) for v in covs])


def _random_splitting(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_census_matches_reference_scan():
    cases = [(boolean(4), None), (intermediate(2, 4, 1), None)]
    cases += [(intermediate(3, 3, k), None) for k in range(4)]
    cases.append((restriction_by_type(group("G33"), "A1"), (1, 7, 9, 11)))
    # wrong exponents (the true ones are 1,3,4,5 and 1,3,5,5): states
    # there hold two multisets whose descendants differ
    cases.append((intermediate(2, 4, 1), (1, 2, 4, 6)))
    cases.append((intermediate(2, 4, 2), (0, 3, 5, 6)))
    rng = random.Random(20131007)
    for trial in range(30):
        dim = 3 + trial % 2
        arr = _random_arrangement(rng, dim, rng.randint(dim + 2, 9))
        exps = arr.candidate_exponents()
        if exps is None or trial % 3 == 0:
            # a splitting of |A| that need not be the true exponents
            exps = _random_splitting(rng, len(arr), dim)
        cases.append((arr, exps))
    widest = 1
    survivors = 0
    for arr, exps in cases:
        if exps is None:
            exps = arr.candidate_exponents()
        got = necessary_condition_counts(arr, exponents=exps)
        want, w = _reference_census(arr, exps)
        assert got.payload() == want.payload(), (arr, exps)
        widest = max(widest, w)
        alive = [lv.n for lv in got.levels if lv.count]
        survivors += bool(alive) and alive[-1] == len(arr)
    # the inputs exercise states holding several multisets at once, and
    # censuses that reach the empty arrangement without dying
    assert widest >= 2
    assert survivors >= 1


def test_scan_needs_exponents():
    arr = Arrangement(3, ["a", "b", "c", "a + b + c"])
    with pytest.raises(NonFreeInput):
        necessary_condition_counts(arr)
    report = necessary_condition_counts(arr, exponents=(1, 1, 2))
    assert report.exponents == (1, 1, 2)
    with pytest.raises(ShapeError):
        necessary_condition_counts(arr, exponents=(1, 1))
    # the sum matches the cardinality, so only the sign is wrong
    with pytest.raises(ShapeError, match="nonnegative"):
        necessary_condition_counts(arr, exponents=(-1, 2, 3))


def test_recursion_witness_round_trip():
    base = intermediate(3, 3, 1)
    x1 = Hyperplane.parse("a", 3, 3)
    witness = RecursionWitness(base, [("remove", x1)])
    report = verify_recursion_witness(witness)
    assert report.ok
    assert report.exponents == (1, 4, 4)
    assert report.arrangement == intermediate(3, 3, 0)

    # climbing up by an addition needs a certified base as well
    x2 = Hyperplane.parse("b", 3, 3)
    witness = RecursionWitness(base, [("add", x2)])
    report = verify_recursion_witness(witness)
    assert report.ok
    assert report.exponents == (1, 4, 6)
    assert report.arrangement == intermediate(3, 3, 2)


def test_recursion_witness_failures():
    base = intermediate(3, 3, 1)
    x1 = Hyperplane.parse("a", 3, 3)
    x2 = Hyperplane.parse("b", 3, 3)

    report = verify_recursion_witness(RecursionWitness(base, [("remove", x2)]))
    assert not report.ok and "not present" in report.failures[0].message

    report = verify_recursion_witness(RecursionWitness(base, [("add", x1)]))
    assert not report.ok and "already present" in report.failures[0].message
    assert report.failures[0].move == 1

    # a base that is not inductively free fails before any move runs
    report = verify_recursion_witness(
        RecursionWitness(intermediate(3, 3, 0), [("add", x1)]))
    assert not report.ok and report.failures[0].move == 0

    with pytest.raises(ValueError):
        RecursionWitness(base, [("swap", x1)])


def test_hereditary():
    assert hereditarily_inductively_free(intermediate(3, 3, 1)).ok
    report = hereditarily_inductively_free(intermediate(3, 3, 0))
    assert not report.ok
    # only the whole arrangement fails; restrictions have rank two
    assert [v for mask, v in report.verdicts.items() if not v] == [False]
    assert report.verdicts[0] is False


def _random_rank3(rng):
    order = rng.choice((1, 2, 3, 4))
    pool = list(range(-2, 3))
    covs = []
    for _ in range(rng.randint(3, 7)):
        vec = [rng.choice(pool) for _ in range(3)]
        if not any(vec):
            vec[rng.randrange(3)] = 1
        covs.append([c * z for c, z in
                     zip(vec, (1, 1, 1))])
    return Arrangement(3, covs, order)


def _brute_if(arr, cache):
    hit = cache.get(arr)
    if hit is not None:
        return hit
    if arr.rank() <= 2:
        cache[arr] = True
        return True
    ok = False
    for h in arr.hyperplanes:
        sub = arr.without_hyperplane(h)
        restr = arr.restricted(h)
        if not (_brute_if(sub, cache) and _brute_if(restr, cache)):
            continue
        if Counter(restr.candidate_exponents()) <= \
                Counter(sub.candidate_exponents()):
            ok = True
            break
    cache[arr] = ok
    return ok


def test_agrees_with_definition_brute_force():
    rng = random.Random(20240817)
    cache = {}
    for _ in range(30):
        arr = _random_rank3(rng)
        expected = _brute_if(arr, cache)
        assert bool(is_inductively_free(arr)) == expected, arr.to_text()


# -- the exact search the bitmask core replaced, kept as an oracle -----------

def _reference_low_rank_chain(dim, hyperplanes):
    steps = []
    exps = (0,) * dim
    for n, h in enumerate(hyperplanes):
        rexp = (0,) * (dim - 1) if n == 0 else (0,) * (dim - 2) + (1,)
        steps.append(InductionStep(h, exps, rexp))
        exps = _chain_step(exps, rexp)
    return tuple(steps), exps


def _reference_if(arr, cache):
    hit = cache.get(arr)
    if hit is None:
        hit = cache[arr] = _reference_decide(arr, cache)
    return hit


def _reference_decide(arr, cache):
    """The decision as it was done with exact arithmetic at every node: a
    new Arrangement per subarrangement and an exact restriction per
    candidate hyperplane, recursing into the restriction's own decision."""
    dim, order = arr.dim, arr.order
    empty = Arrangement(dim, (), order)
    if arr.rank() <= 2:
        steps, exps = _reference_low_rank_chain(dim, arr.hyperplanes)
        return InductionCertificate(empty, steps, exps)
    top = arr.candidate_exponents()
    if top is None:
        return NotIF(arr, "non-splitting")
    hyps = arr.hyperplanes
    m = len(hyps)
    lines = arr.line_masks()
    through = [tuple(L for L in lines if L >> i & 1) for i in range(m)]
    memo = {}

    def decide(mask, sub):
        if mask in memo:
            return memo[mask]
        if sub is None:
            sub = Arrangement(dim, tuple(hyps[i] for i in _bits(mask)), order)
        if sub.rank() <= 2:
            res = _reference_low_rank_chain(dim, sub.hyperplanes)
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
            rexp = restr.candidate_exponents()
            if rexp is None:
                continue
            left = _without_submultiset(cand, rexp)
            if left is None or len(left) != 1 or left[0] < 1:
                continue
            options.append((rc, i, restr, rexp))
        options.sort(key=lambda t: t[:2])
        for rc, i, restr, rexp in options:
            if not _reference_if(restr, cache):
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


def _oracle_inputs():
    """Seeded random rank-3/rank-4 arrangements, half of them drawn from
    reflection arrangements so that their polynomials tend to split, and
    the intermediate families, a pencil and a refuted monomial one."""
    rng = random.Random(20261018)
    pools = (intermediate(3, 3, 3), intermediate(2, 4, 4))
    cases = []
    for trial in range(30):
        if trial % 2:
            dim = 3 + trial // 2 % 2
            cases.append(_random_arrangement(rng, dim, rng.randint(4, 9)))
        else:
            pool = pools[trial // 2 % 2]
            hyps = rng.sample(pool.hyperplanes,
                              rng.randint(len(pool) // 2, len(pool) - 1))
            cases.append(Arrangement(pool.dim, hyps, pool.order))
    cases += [intermediate(3, 4, k) for k in range(5)]
    cases += [intermediate(2, 4, k) for k in range(5)]
    cases += [Arrangement(3, ["a", "b", "a - b", "a + b"]),
              intermediate(4, 3, 0)]
    return cases


def _flat_of(arr, mask):
    return Flat.from_covectors([arr.hyperplanes[i] for i in _bits(mask)],
                               arr.dim, arr.order)


def test_bitmask_search_matches_exact_search():
    _check_search_against_exact()


def _check_search_against_exact():
    cache = {}
    seen = Counter()
    for arr in _oracle_inputs():
        want = _reference_decide(arr, cache)
        got = _decide(arr)
        assert bool(got) == bool(want), arr.to_text()
        if want:
            assert got.steps == want.steps, arr.to_text()
            assert got.exponents == want.exponents
            seen["free" if arr.rank() > 2 else "low-rank"] += 1
        else:
            assert (got.reason, got.level, got.explored) == \
                (want.reason, want.level, want.explored), arr.to_text()
            seen[want.reason if want.level is None else "census"] += 1
    # the inputs reach every kind of verdict
    assert set(seen) == {"free", "low-rank", "non-splitting", "exhausted",
                         "census"}, seen


def _walk_search_nodes(monkeypatch, check):
    """Run check(search, mask, cand, counts) at every node that a search
    expands, over the oracle inputs (decision and hereditary) and G33/A1;
    returns the number of nodes."""
    search = _ChainSearch._search
    nodes = []

    def checked(self, mask, cand, counts):
        check(self, mask, cand, counts)
        nodes.append(mask)
        return search(self, mask, cand, counts)

    monkeypatch.setattr(_ChainSearch, "_search", checked)
    for arr in _oracle_inputs():
        _decide(arr)
        hereditarily_inductively_free(arr)
    res = _decide(restriction_by_type(group("G33"), "A1"))
    assert not res and res.explored == 517
    return len(nodes)


def test_passed_down_exponents_match_the_lattice(monkeypatch):
    # every node's roots, read off its parent by deletion-restriction,
    # equal the Moebius roots of its own subarrangement
    def check(search, mask, cand, counts):
        assert cand == _sub_exponents(search.levels, mask, search.dim)

    assert _walk_search_nodes(monkeypatch, check) > 517


def _recounted_counts(levels, mask):
    """Each atom's restriction count in mask, counted from every line as
    _reference_decide counts it; -1 for an atom not in mask."""
    lines = levels[2] if len(levels) > 2 else ()
    return [sum(1 for L in lines if L >> i & 1 and (L & mask).bit_count() >= 2)
            if mask >> i & 1 else -1
            for i in range(levels[-1][0].bit_length())]


def _check_carried_counts(monkeypatch):
    def check(search, mask, cand, counts):
        assert counts == _recounted_counts(search.levels, mask), \
            f"carried counts differ at mask {mask:#x}"

    return _walk_search_nodes(monkeypatch, check)


def test_carried_counts_match_a_recount(monkeypatch):
    # a root counts its atoms' lines afresh, every other node carries its
    # parent's counts through _drop, the census's update
    assert _check_carried_counts(monkeypatch) > 517


def test_broken_count_updates_are_caught(monkeypatch):
    drop = freeness._drop

    def no_decrement(counts, i, left, through):
        child = counts.copy()
        child[i] = -1
        return child

    def removed_atom_kept(counts, i, left, through):
        child = drop(counts, i, left, through)
        child[i] = counts[i]
        return child

    def parent_counts(counts, i, left, through):
        return counts

    # the census shares the update, so its levels go wrong as well
    arr = intermediate(2, 4, 1)
    want = _reference_census(arr, arr.candidate_exponents())[0].payload()
    for variant in (no_decrement, removed_atom_kept, parent_counts):
        with monkeypatch.context() as mp:
            mp.setattr(freeness, "_drop", variant)
            with pytest.raises(AssertionError, match="carried counts"):
                _check_carried_counts(mp)
            assert necessary_condition_counts(arr).payload() != want


def test_counts_are_made_only_for_expanded_nodes(monkeypatch):
    # a child's counts are made on a memo miss, so no search (nor the
    # census) counts one subarrangement of one lattice twice
    drop = freeness._drop
    seen = set()

    def once(counts, i, left, through):
        assert (id(through), left) not in seen, f"mask {left:#x} recounted"
        seen.add((id(through), left))
        return drop(counts, i, left, through)

    monkeypatch.setattr(freeness, "_drop", once)
    for tag, explored in (("A1", 517), ("A1^2", 2388)):
        arr = restriction_by_type(group("G33" if tag == "A1" else "G34"), tag)
        seen.clear()
        res = _decide(arr)
        assert not res and res.explored == explored
        assert seen


def test_restriction_exponents_are_computed_once(monkeypatch):
    # a search computes each restriction's roots once per subarrangement;
    # the restriction searches, and so their levels, live through _decide
    sub = freeness._sub_exponents
    seen = set()

    def once(levels, mask, dim):
        assert (id(levels), mask) not in seen
        seen.add((id(levels), mask))
        return sub(levels, mask, dim)

    monkeypatch.setattr(freeness, "_sub_exponents", once)
    calls = 0
    for arr in _oracle_inputs() + [restriction_by_type(group("G33"), "A1")]:
        seen.clear()
        res = _decide(arr)
        calls += len(seen)
    assert not res and res.explored == 517
    assert calls > 1000


def test_broken_deletion_exponents_are_caught(monkeypatch):
    step = freeness._chain_step
    broken = (
        # the deleted entry raised instead of lowered
        lambda e, r, d=1: step(e, r, 1 if d == -1 else d),
        # the parent's roots passed down unchanged
        lambda e, r, d=1: e if d == -1 and step(e, r, d) else step(e, r, d),
    )
    for variant in broken:
        monkeypatch.setattr(freeness, "_chain_step", variant)
        with pytest.raises(AssertionError):
            _check_search_against_exact()


def test_subarrangement_and_restriction_lattices_match_exact():
    rng = random.Random(7)
    for arr in _oracle_inputs():
        levels = arr.intersection_lattice().levels
        m = len(arr)
        for _ in range(4):
            mask = rng.getrandbits(m)
            atoms = list(_bits(mask))
            sub = Arrangement(arr.dim, [arr.hyperplanes[i] for i in atoms],
                              arr.order)
            want = [sorted(sum(1 << atoms[j] for j in _bits(x)) for x in lv)
                    for lv in sub.intersection_lattice().levels]
            assert [sorted(lv) for lv in _sub_levels(levels, mask)] == want
        for k, level in enumerate(levels):
            if k == 0 or k >= arr.dim:
                continue
            for x in level:
                restr = arr.restricted(_flat_of(arr, x))
                got = _contract(levels, x, k)
                assert _charpoly(got, arr.dim - k) == \
                    restr.characteristic_polynomial()
                # flats of each rank, by how many hyperplanes they hold
                assert [sorted(y.bit_count() for y in lv) for lv in got] == \
                    [sorted(y.bit_count() for y in lv)
                     for lv in restr.intersection_lattice().levels]


def _hereditary_want(arr, decide):
    """The hereditary verdict map from exact restrictions, each decided on
    its own by decide."""
    want = {}
    for k, level in enumerate(arr.intersection_lattice().levels):
        if k >= arr.dim:
            continue
        for x in level:
            if arr.dim - k <= 2:
                want[x] = True
            else:
                sub = arr if k == 0 else arr.restricted(_flat_of(arr, x))
                want[x] = bool(decide(sub))
    return want


def test_hereditary_matches_exact_restrictions(monkeypatch):
    cache = {}
    cases = [(arr, _hereditary_want(arr, lambda s: _reference_if(s, cache)))
             for arr in _oracle_inputs()]
    g33_a1 = restriction_by_type(group("G33"), "A1")
    cases.append((g33_a1, _hereditary_want(g33_a1, _decide)))
    assert cases[-1][1][0] is False

    # the ambient space goes through the same search as every other flat,
    # so no census runs for a death level that the verdict map drops
    def no_census(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(freeness, "necessary_condition_counts", no_census)
    for arr, want in cases:
        report = hereditarily_inductively_free(arr)
        assert report.verdicts == want, arr.to_text()
        assert report.ok == all(want.values())
