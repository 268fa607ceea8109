"""The benchmark's per-layer tracer still finds the library names it wraps.

bench/tracing.py wraps functions and methods of arrfree from outside the
package, by name.  A rename inside arrfree breaks a traced benchmark run
without failing any library test, so this test runs the tracer over the
CLI and the catalog in a fresh process and checks that every layer it
counts still reports work.
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


def test_tracer_reports_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "inputs")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    metrics = report["metrics"]
    for name in LAYERS:
        assert metrics[name] > 0, (name, metrics)
