"""The benchmark's per-layer tracer still finds the library names it wraps.

bench/tracing.py wraps functions and methods of arrfree from outside the
package, by name.  A rename inside arrfree breaks a traced benchmark run
without failing any library test, so this test runs the tracer over the
CLI and the catalog in a fresh process and checks that every layer it
counts still reports work.  The lattice counters also read the shape of
what partial_levels and intersection_lattice return and the _partial and
_lattice slots, so their counts are checked against those results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
import arrfree.cli
from arrfree import catalog
from tracing import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
inputs = sys.argv[1]
runs = (
    ["induce", f"{inputs}/int_3_3_1.arr"],
    ["verify-table", f"{inputs}/g33_a2.tbl"],
    ["count-nec", f"{inputs}/int_3_3_1.arr"],
    ["build", "--group", "G25", "--restrict", "A1"],
)
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(arrfree.cli.main(argv))
catalog.flat_orbits("G26", 2)
print(json.dumps({"codes": codes, "metrics": layer_metrics([tracer.take()])}))
"""

LAYERS = ("arrangement.lattice_builds", "freeness.decide_calls",
          "freeness.replay_rows", "freeness.census_states",
          "catalog.mirrors", "catalog.orbits")


LATTICE_SCRIPT = r"""
import json
import arrfree.cli  # the tracer wraps names in every module, the CLI's too
from arrfree.catalog import intermediate
from tracing import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
arr = intermediate(3, 3, 1)
levels, _ = arr.partial_levels(2)
first = layer_metrics([tracer.take()])
lattice = arr.intersection_lattice()
second = layer_metrics([tracer.take()])
print(json.dumps({
    "sizes": [[len(lv) for lv in levels], [len(lv) for lv in lattice.levels]],
    "builds": [first["arrangement.lattice_builds"],
               first["arrangement.lattice_builds"]
               + second["arrangement.lattice_builds"]],
    "flats": first["arrangement.flats"] + second["arrangement.flats"]}))
"""


def _traced(script: str, *argv) -> dict:
    """The JSON line a script prints when run under the tracer in a fresh
    process, with both src and bench importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_reports_every_layer():
    report = _traced(SCRIPT, str(ROOT / "bench" / "inputs"))
    assert report["codes"] == [0, 0, 0, 0]
    metrics = report["metrics"]
    for name in LAYERS:
        assert metrics[name] > 0, (name, metrics)


def test_tracer_counts_lattice_builds_and_flats():
    report = _traced(LATTICE_SCRIPT)
    partial, full = report["sizes"]
    assert len(partial) == 3 and len(full) == 4
    # partial_levels(2) builds once, and the full lattice once more
    assert report["builds"] == [1, 2]
    assert report["flats"] == sum(partial) + sum(full)
