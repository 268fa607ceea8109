"""The four benchmark workloads: their items, seeded inputs and checks.

An item is one call into arrfree made by a cold child process
(``child.py``): either a CLI invocation (``argv``, run through
``arrfree.cli.main`` with ``--json``) or a direct library call
(``call``).  ``build(name, seed, workdir)`` returns the items of a
workload; each item names the input file the child reads and parses
while it sets up.  The seed sets the order of the deletions in
``decide`` and, in ``replay``, how the middle row of each table is
corrupted; the corrupted copies are written as text into ``workdir``.  arrfree only ever
sees the generated files.

``Checker`` verifies every output outside the timed span, in the parent
process.  Expected values are recorded here, never recomputed from the
catalog, so a catalog change shows up as a failed check rather than as a
different workload.  Orbit type labels are deliberately not pinned:
G30's codim-3 orbit of 360 flats is labelled A3 today, which is wrong,
and a fix must not read as a benchmark failure.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

WORKLOADS = ("decide", "replay", "census", "restrict")

# final exponents of the seven paper restrictions (acceptance criterion 3)
FINALS = {
    "g29_a1": (1, 9, 11),
    "g31_a1": (1, 13, 17),
    "g33_a1sq": (1, 7, 9),
    "g33_a2": (1, 6, 7),
    "g34_a3": (1, 11, 13),
    "g34_a1a2": (1, 13, 16),
    "g34_a1cube": (1, 13, 19),
}
CELLS = [(3, ell, k) for ell in (3, 4) for k in range(ell + 1)]
CHAINS = {"chain_3_6_4": (1, 4, 7, 10, 13, 14),
          "chain_4_6_4": (1, 5, 9, 13, 17, 19)}

# level counts of the removal census (acceptance criterion 4)
CENSUS = {
    "g33_a1": ((1, 7, 9, 11),
               [12, 48, 48, 144, 72, 12, 48, 72, 48, 12, 0]),
    "g34_a1sq": ((1, 13, 19, 23),
                 [12, 66, 204, 351, 288, 432, 384, 351, 172, 98, 28, 1, 0]),
}

# (group, type) -> hyperplanes of the restriction; 28/56/49 are
# acceptance criterion 5, the rest were recorded when the benchmark was made
RESTRICTIONS = {
    ("G31", "A1"): 31,
    ("G33", "A1"): 28,
    ("G33", "A1^2"): 17,
    ("G33", "A2"): 14,
    ("G34", "A1"): 85,
    ("G34", "A1^2"): 56,
    ("G34", "A2"): 49,
}
# group -> sorted (hyperplanes through the flat, orbit size) of its
# codimension-3 flat orbits
ORBITS = {
    "G29": [(4, 160), (6, 80), (6, 80), (9, 40), (12, 20)],
    "G30": [(4, 600), (6, 300), (6, 360), (15, 60)],
    "G31": [(4, 960), (6, 480), (15, 60)],
    "G33": [(3, 270), (4, 720), (6, 540), (9, 40)],
}

NON_SPLITTING = ("characteristic polynomial has no nonnegative integer"
                 " splitting")
EXHAUSTED_PREFIXES = ("necessary-condition scan dies after removing",
                      "exhausted all addition chains")


def intermediate_exponents(r: int, ell: int, k: int) -> tuple:
    return tuple(sorted([i * r + 1 for i in range(ell - 1)]
                        + [(ell - 1) * r - ell + k + 1]))


def _arr_item(iid, path, expect):
    return {"id": iid, "argv": ["induce", str(path), "--json"],
            "input": str(path), "expect": expect}


def _corrupt_row(text: str, rng: random.Random):
    """Raise one claimed restriction exponent of the middle row by 1 or 2;
    returns the new text and the row number.  The seed picks the entry and
    the amount, so seeds differ in the corruption, not in the work."""
    lines = text.splitlines()
    rows = [n for n, line in enumerate(lines) if line.count("|") == 2
            and line.split("|")[1].strip()]
    j = max(1, len(rows) // 2)
    n = rows[j - 1]
    before, form, restr = lines[n].split("|")
    exps = [int(p) for p in restr.split(",")]
    exps[rng.randrange(len(exps))] += rng.choice((1, 2))
    lines[n] = f"{before}|{form}| {','.join(str(e) for e in exps)}"
    return "\n".join(lines) + "\n", j


def _decide(seed, workdir):
    items = []
    for stem, final in FINALS.items():
        items.append(_arr_item(stem, INPUTS / f"{stem}.arr",
                               {"free": True, "exponents": final}))
    for r, ell, k in CELLS:
        free = k >= ell - 2
        exps = intermediate_exponents(r, ell, k) if free else None
        items.append(_arr_item(f"int_{r}_{ell}_{k}",
                               INPUTS / f"int_{r}_{ell}_{k}.arr",
                               {"free": free, "exponents": exps}))
    deletions = [_arr_item(path.stem, path, {"free": None, "exponents": None})
                 for path in sorted(INPUTS.glob("del*.arr"))]
    random.Random(seed).shuffle(deletions)
    return items + deletions


def _replay(seed, workdir):
    tables = dict(FINALS)
    tables.update(CHAINS)
    items = []
    for stem, final in tables.items():
        path = INPUTS / f"{stem}.tbl"
        items.append({"id": stem, "argv": ["verify-table", str(path),
                                           "--json"],
                      "input": str(path), "expect": {"exponents": final}})
    rng = random.Random(seed)
    for stem in tables:
        text, row = _corrupt_row((INPUTS / f"{stem}.tbl").read_text(), rng)
        path = workdir / f"{stem}_bad.tbl"
        path.write_text(text)
        items.append({"id": path.stem, "argv": ["verify-table", str(path),
                                                "--json"],
                      "input": str(path), "expect": {"bad_row": row}})
    return items


def _census(seed, workdir):
    items = []
    for stem, (exps, _) in CENSUS.items():
        path = INPUTS / f"{stem}.arr"
        items.append({"id": stem,
                      "argv": ["count-nec", str(path), "--exponents",
                               ",".join(str(e) for e in exps), "--json"],
                      "input": str(path), "expect": {"census": stem}})
    return items


def _restrict(seed, workdir):
    items = [{"id": f"{g}/{t}", "argv": ["build", "--group", g, "--restrict",
                                         t, "--json"],
              "expect": {"hyperplanes": n}}
             for (g, t), n in RESTRICTIONS.items()]
    items += [{"id": f"{g}/orbits", "call": ["flat_orbits", g, 3],
               "expect": {"orbits": g}} for g in ORBITS]
    return items


_BUILDERS = {"decide": _decide, "replay": _replay, "census": _census,
             "restrict": _restrict}


def build(name: str, seed: int, workdir: Path) -> list:
    """Items of one workload, in run order; seeded files go to workdir."""
    return _BUILDERS[name](seed, workdir)


def negative_reason(detail: str):
    """The reason a negative verdict names, from its describe() text."""
    if detail == NON_SPLITTING:
        return "non-splitting"
    if detail.startswith(EXHAUSTED_PREFIXES):
        return "exhausted"
    return None


class Checker:
    """Checks item outputs; each distinct output is verified once."""

    def __init__(self):
        from arrfree.arrangement import Arrangement
        from arrfree.freeness import verify_induction_table
        self._arrangement = Arrangement
        self._verify = verify_induction_table
        self._seen: dict = {}

    def check(self, item: dict, code, stdout: str):
        """None when the output is right, else a one-line reason."""
        key = (item["id"], code, stdout)
        if key not in self._seen:
            try:
                self._seen[key] = self._check(item, code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                self._seen[key] = f"unreadable output: {exc!r}"
        return self._seen[key]

    def _check(self, item, code, stdout):
        expect = item["expect"]
        if code is None:
            return f"raised {stdout}"
        payload = json.loads(stdout)
        if "free" in expect:
            return self._check_decide(item, expect, code, payload)
        if "bad_row" in expect:
            rows = [f["row"] for f in payload.get("failures", ())]
            if code != 1 or payload["ok"] or rows[:1] != [expect["bad_row"]]:
                return (f"corrupted row {expect['bad_row']} gave exit {code},"
                        f" failures at {rows}")
            return None
        if "exponents" in expect:
            if code != 0 or not payload["ok"] \
                    or tuple(payload["exponents"]) != expect["exponents"]:
                return f"exit {code}, exponents {payload.get('exponents')}"
            return None
        if "census" in expect:
            exps, counts = CENSUS[expect["census"]]
            got = [lv["N"] for lv in payload["levels"]]
            if code != 0 or tuple(payload["exponents"]) != exps \
                    or got != counts:
                return f"exit {code}, level counts {got}"
            return None
        if "hyperplanes" in expect:
            if code != 0 or payload["hyperplanes"] != expect["hyperplanes"]:
                return f"exit {code}, {payload.get('hyperplanes')} hyperplanes"
            return None
        if "orbits" in expect:
            got = sorted((o["count"], o["orbit_size"]) for o in payload)
            if code != 0 or got != ORBITS[expect["orbits"]]:
                return f"orbits {got}"
            return None
        return f"no check for {item['id']}"

    def _check_decide(self, item, expect, code, payload):
        verdict = payload.get("verdict")
        if verdict == "inductively-free":
            if code != 0 or expect["free"] is False:
                return f"exit {code}, verdict {verdict}"
            if expect["exponents"] is not None \
                    and tuple(payload["exponents"]) != expect["exponents"]:
                return f"exponents {payload['exponents']}"
            rep = self._verify(payload["table"])
            if not rep:
                return f"certificate does not replay: {rep.describe()}"
            if list(rep.exponents) != payload["exponents"]:
                return f"certificate replays to {rep.exponents}"
            arr = self._arrangement.from_text(Path(item["input"]).read_text())
            if rep.certificate.replay() != arr:
                return "certificate builds a different arrangement"
            return None
        if verdict == "not-inductively-free":
            if code != 1 or expect["free"] is True:
                return f"exit {code}, verdict {verdict}"
            if negative_reason(payload["detail"]) is None:
                return f"negative names no sound reason: {payload['detail']}"
            return None
        return f"exit {code}, verdict {verdict}"
