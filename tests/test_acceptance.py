"""Acceptance gate: the eight headline checks, one printed line each.

Each criterion collects its failures, prints exactly one PASS/FAIL line on
the real stdout (visible regardless of capture), and then asserts.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from arrfree.arrangement import Arrangement, Hyperplane, lattice_isomorphic
from arrfree.catalog import (
    group,
    intermediate,
    reflection_arrangement,
    restriction_by_type,
)
from arrfree.cli import main
from arrfree.cyclotomic import Cyc, _degree
from arrfree.freeness import (
    RecursionMove,
    RecursionWitness,
    is_inductively_free,
    necessary_condition_counts,
    verify_recursion_witness,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "tables"


_CHANNEL = None


@pytest.fixture(autouse=True)
def _report_channel(capsys):
    global _CHANNEL
    _CHANNEL = capsys
    yield
    _CHANNEL = None


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    with _CHANNEL.disabled():
        print(f"[acceptance] {status} {name}", flush=True)
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_1_intermediate_exponent_formula():
    failures = []
    for r in (2, 3, 4):
        for ell in (2, 3, 4, 5):
            for k in range(ell + 1):
                got = intermediate(r, ell, k).candidate_exponents()
                want = tuple(sorted([i * r + 1 for i in range(ell - 1)]
                                    + [(ell - 1) * r - ell + k + 1]))
                if got != want:
                    failures.append((r, ell, k, got, want))
    _report("criterion 1: exponent closed form on the 54-case"
            " intermediate grid", failures)


def test_criterion_2_classification_grid(capsys):
    failures = []
    cells = 0
    for r in (2, 3):
        code = main(["classify", "--r", str(r), "--max-ell", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        if code != 0 or not payload["all_agree"]:
            failures.append(f"r={r} disagrees")
        for cell in payload["cells"]:
            cells += 1
            want = r == 2 or cell["k"] >= cell["ell"] - 2
            if cell["inductively_free"] != want:
                failures.append(cell)
    if cells != 18:
        failures.append(f"expected 18 verdicts, saw {cells}")
    _report("criterion 2: freeness rule across 18 classification cells",
            failures)


FINALS = {
    "g29_a1": (1, 9, 11),
    "g31_a1": (1, 13, 17),
    "g33_a1sq": (1, 7, 9),
    "g33_a2": (1, 6, 7),
    "g34_a1cube": (1, 13, 19),
    "g34_a1a2": (1, 13, 16),
    "g34_a3": (1, 11, 13),
}


def test_criterion_3_chain_table_fixtures(capsys):
    failures = []
    for stem, final in sorted(FINALS.items()):
        code = main(["verify-table", str(FIXTURES / f"{stem}.tbl"),
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        if code != 0 or not payload["ok"]:
            failures.append(f"{stem} rejected")
        elif tuple(payload["exponents"]) != final:
            failures.append(f"{stem} final {payload['exponents']}")
    _report("criterion 3: all seven shipped chain tables replay", failures)


CENSUS = {
    ("G33", "A1", (1, 7, 9, 11)): [
        (12, [(1, 7, 9, 10)]),
        (48, [(1, 7, 9, 9)]),
        (48, [(1, 7, 8, 9)]),
        (144, [(1, 7, 8, 8)]),
        (72, [(1, 7, 7, 8)]),
        (12, [(1, 6, 7, 8)]),
        (48, [(1, 6, 7, 7)]),
        (72, [(1, 6, 6, 7)]),
        (48, [(1, 5, 6, 7)]),
        (12, [(1, 4, 6, 7)]),
        (0, []),
    ],
    ("G34", "A1^2", (1, 13, 19, 23)): [
        (12, [(1, 13, 19, 22)]),
        (66, [(1, 13, 19, 21)]),
        (204, [(1, 13, 19, 20)]),
        (351, [(1, 13, 19, 19)]),
        (288, [(1, 13, 18, 19)]),
        (432, [(1, 13, 17, 19), (1, 13, 18, 18)]),
        (384, [(1, 13, 17, 18), (1, 13, 16, 19)]),
        (351, [(1, 13, 17, 17), (1, 13, 15, 19), (1, 13, 16, 18)]),
        (172, [(1, 13, 16, 17), (1, 13, 15, 18)]),
        (98, [(1, 13, 16, 16), (1, 13, 15, 17)]),
        (28, [(1, 13, 15, 16)]),
        (1, [(1, 13, 15, 15)]),
        (0, []),
    ],
    ("G34", "A2", (1, 13, 16, 19)): [
        (18, [(1, 13, 16, 18)]),
        (126, [(1, 13, 16, 17)]),
        (402, [(1, 13, 16, 16)]),
        (612, [(1, 13, 15, 16)]),
        (1584, [(1, 13, 15, 15), (1, 13, 14, 16)]),
        (2910, [(1, 13, 13, 16), (1, 13, 14, 15)]),
        (6030, [(1, 12, 13, 16), (1, 13, 13, 15), (1, 13, 14, 14)]),
        (8865, [(1, 13, 13, 14), (1, 11, 13, 16), (1, 12, 13, 15)]),
        (12764, [(1, 13, 13, 13), (1, 12, 13, 14), (1, 11, 13, 15),
                 (1, 10, 13, 16)]),
        (11358, [(1, 10, 13, 15), (1, 12, 13, 13), (1, 11, 13, 14)]),
        (8982, [(1, 12, 12, 13), (1, 10, 13, 14), (1, 11, 13, 13)]),
        (8430, [(1, 12, 12, 12), (1, 11, 12, 13), (1, 10, 13, 13)]),
        (4491, [(1, 11, 11, 13), (1, 11, 12, 12), (1, 10, 12, 13)]),
        (2223, [(1, 11, 11, 12), (1, 10, 11, 13), (1, 10, 12, 12)]),
        (1068, [(1, 10, 10, 13), (1, 10, 11, 12), (1, 11, 11, 11)]),
        (261, [(1, 10, 10, 12), (1, 10, 11, 11)]),
        (126, [(1, 10, 10, 11)]),
        (37, [(1, 10, 10, 10), (1, 9, 10, 11)]),
        (0, []),
    ],
}


def test_criterion_4_removal_census_tables():
    failures = []
    for (gname, tag, exps), expected in CENSUS.items():
        arr = restriction_by_type(group(gname), tag)
        rep = necessary_condition_counts(arr, exponents=exps)
        label = f"({gname},{tag})"
        if [lv.count for lv in rep.levels] != [n for n, _ in expected]:
            failures.append(
                f"{label} counts {[lv.count for lv in rep.levels]}")
            continue
        for lv, (_, listed) in zip(rep.levels, expected):
            missing = [ms for ms in listed if ms not in lv.multisets]
            if missing:
                failures.append(f"{label} level {lv.n} misses {missing}")
    _report("criterion 4: removal census matches all three recorded"
            " count tables", failures)


def test_criterion_5_catalog_restrictions():
    failures = []
    for gname, tag, count in (("G33", "A1", 28), ("G34", "A1^2", 56),
                              ("G34", "A2", 49)):
        got = len(restriction_by_type(group(gname), tag))
        if got != count:
            failures.append(f"({gname},{tag}) has {got}")
    r333 = restriction_by_type(group("G34"), "G(3,3,3)")
    if not lattice_isomorphic(r333, reflection_arrangement(group("G26"))):
        failures.append("(G34,G(3,3,3)) not isomorphic to the G26"
                        " arrangement")
    _report("criterion 5: restriction cardinalities 28/56/49 and the"
            " monomial-type restriction", failures)


def _restriction_slot(h: Hyperplane, k: int) -> int:
    """Which intermediate arrangement a class of hyperplane restricts to:
    the new coordinate count k' in dimension one lower."""
    support = [i for i, c in enumerate(h.coeffs) if c]
    if len(support) == 1:
        return -1  # coordinate hyperplane: all of them merge in
    i, j = support
    if j <= k - 1:
        return k - 1
    if i <= k - 1 < j:
        return k
    return k + 1


def test_criterion_6_restriction_type_table():
    failures = []
    for ell in (3, 4):
        for k in range(1, ell):
            arr = intermediate(3, ell, k)
            for h in arr.hyperplanes:
                slot = _restriction_slot(h, k)
                kk = ell - 1 if slot < 0 else slot
                target = intermediate(3, ell - 1, kk)
                if not lattice_isomorphic(arr.restricted(h), target):
                    failures.append((ell, k, h.form(), kk))
    _report("criterion 6: every hyperplane class restricts to the stated"
            " intermediate type", failures)


def test_criterion_7_recursion_witness():
    failures = []
    base = intermediate(3, 4, 2)
    x1 = Hyperplane([1, 0, 0, 0])
    x2 = Hyperplane([0, 1, 0, 0])
    good = RecursionWitness(base, [RecursionMove("remove", x2),
                                   RecursionMove("remove", x1)])
    rep = verify_recursion_witness(good)
    if not rep.ok:
        failures.append(f"coordinate chain rejected: {rep.describe()}")
    else:
        if rep.arrangement != intermediate(3, 4, 0):
            failures.append("chain does not land on the k=0 arrangement")
        if tuple(rep.exponents) != (1, 4, 6, 7):
            failures.append(f"final exponents {rep.exponents}")
    mutated = RecursionWitness(
        base, [RecursionMove("remove", x2),
               RecursionMove("remove", Hyperplane([1, -1, 0, 0]))])
    if verify_recursion_witness(mutated).ok:
        failures.append("non-coordinate deletion accepted")
    _report("criterion 7: removal witness accepted, mutated witness"
            " rejected", failures)


def _random_rank3(rng):
    order = rng.choice((1, 2, 3, 4))
    covs = []
    for _ in range(rng.randint(3, 8)):
        vec = [rng.randint(-2, 2) for _ in range(3)]
        if not any(vec):
            vec[rng.randrange(3)] = 1
        covs.append(vec)
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


def _random_scalar(rng, order):
    num = tuple(rng.randint(-9, 9) for _ in range(_degree(order)))
    return Cyc(order, num, rng.randint(1, 9))


def test_criterion_8_property_suites(capsys, tmp_path):
    failures = []

    # decision procedure against the definition, 200 random arrangements
    rng = random.Random(20250815)
    cache = {}
    for _ in range(200):
        arr = _random_rank3(rng)
        if bool(is_inductively_free(arr)) != _brute_if(arr, cache):
            failures.append(f"oracle mismatch:\n{arr.to_text()}")

    # field axioms, 10^4 random triples over orders up to 12
    rng = random.Random(424242)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        a, b, c = (_random_scalar(rng, n) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c \
                or a * b != b * a or a + b != b + a or (a - b) + b != a:
            failures.append(f"axiom failure at order {n}")
            break
        if a != Cyc(n, (0,), 1):
            one = Cyc(n, (1,), 1)
            if a * a.inverse() != one:
                failures.append(f"inverse failure at order {n}")
                break

    # characteristic polynomial roots multiply across products
    rng = random.Random(777)
    for _ in range(50):
        a, b = _random_rank3(rng), _random_rank3(rng)
        ea, eb, ep = (x.candidate_exponents() for x in (a, b, a * b))
        if ea is None or eb is None:
            if ep is not None:
                failures.append("product splits but a factor does not")
        elif ep != tuple(sorted(ea + eb)):
            failures.append(f"product roots {ep} != union {ea} + {eb}")

    # removal census is the same from run to run, byte for byte
    path = tmp_path / "g33a1.arr"
    path.write_text(restriction_by_type(group("G33"), "A1").to_text())
    outs = []
    for run in range(3):
        code = main(["count-nec", str(path), "--json"])
        outs.append(capsys.readouterr().out)
        if code != 0:
            failures.append(f"count-nec exit {code} on run {run}")
    if len(set(outs)) != 1:
        failures.append("JSON differs from run to run")

    _report("criterion 8: oracle agreement, field axioms, product roots,"
            " run-to-run determinism", failures)
