import json
import random
from collections import Counter

import pytest

from arrfree.arrangement import Arrangement, Hyperplane, RankLimit
from arrfree.catalog import (
    canonical_induction_order,
    group,
    intermediate,
    restriction_by_type,
)
from arrfree.cyclotomic import FormatError
from arrfree.freeness import (
    InductionTable,
    NecCondReport,
    NecLevel,
    NonFreeInput,
    RecursionWitness,
    ShapeError,
    StaleCertificate,
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


def test_verdicts_are_cached():
    arr = intermediate(3, 3, 2)
    assert is_inductively_free(arr) is is_inductively_free(intermediate(3, 3, 2))


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


def test_scan_is_thread_deterministic():
    arr = intermediate(2, 4, 1)
    payloads = set()
    for threads in (None, 2, 8):
        report = necessary_condition_counts(arr, threads=threads)
        payloads.add(json.dumps(report.payload(), sort_keys=True))
    assert len(payloads) == 1


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
