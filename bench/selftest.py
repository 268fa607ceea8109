"""Self-test of the benchmark harness.

    python3 bench/selftest.py [--workload decide] [--seed 1]

Checks two properties the benchmark relies on:

1. Cold runs repeat.  Two cold traced batches at the same seed report
   identical per-layer counts.  This is checked at --seed and at
   --seed + 1.
2. Warm runs do not.  A second pass over the same items inside one warm
   process reports different counts than the first, which shows that
   arrfree's memos would leak between runs sharing a process, and why
   every batch gets a fresh interpreter.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run
import workloads
from tracing import UNITS

COUNTS = [name for name, unit in UNITS.items() if unit == "count"]


def _counts(layers: dict) -> dict:
    return {name: layers[name] for name in COUNTS}


def _diff(a: dict, b: dict) -> str:
    return ", ".join(f"{k} {a[k]} != {b[k]}" for k in COUNTS if a[k] != b[k])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="decide", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    try:
        run.preflight()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = True
    workdir = run.BENCH / ".work" / f"selftest-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in (args.seed, args.seed + 1):
            items = workloads.build(args.workload, seed, workdir)
            child = run.Child(workdir, items, time.monotonic() + 600)
            a, b = (_counts(child.run(trace=True)["passes"][0]["layers"]
                            ["total"]) for _ in range(2))
            same = a == b
            ok &= same
            print(f"{'PASS' if same else 'FAIL'} cold traced runs at seed"
                  f" {seed} report identical counts"
                  + ("" if same else f": {_diff(a, b)}"))
        passes = child.run(trace=True, passes=2)["passes"]
        first, second = (_counts(p["layers"]["items"]) for p in passes)
        differs = first != second
        ok &= differs
        print(f"{'PASS' if differs else 'FAIL'} a warm second pass reports"
              " different counts" + (f": {_diff(first, second)}"
                                     if differs else ""))
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
