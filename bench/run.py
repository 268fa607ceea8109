"""Cold-process benchmark of arrfree over four workloads.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; arrfree is imported from ./src.
Each batch of a workload's items runs in a fresh interpreter
(``child.py``), because arrfree keeps module-level memos (verdicts,
exponent candidates, the catalog, mirror closures, lattices) that would
turn a second batch in the same process into cache hits.  Within a batch
the items share those memos, as in one library session.  It is a closed
loop with one client: one child at a time, one item at a time, no extra
threads.

A run repeats cold batches while the next one is expected to end within
``--seconds`` (but makes at least three) and reports medians over them.
It also starts set-up-only children, so that ``setup_s`` is a median of
at least eleven cold starts.
Every output is checked in this process, outside the timed spans.

Times are reported in reference seconds.  On a shared machine the speed
of the same code drifts by 15-30% between 30-second windows, which no
median inside a run removes.  So each child times a fixed kernel
(``child.reference``) between items and, in untraced batches, every
0.2 s inside them.  Each item's time, less the time spent sampling, is
scaled by ``REF_S`` over the mean kernel time from half a second
before it to half a second after it.
A change in arrfree moves the item times and not the kernel, so it still
shows; drift of the machine moves both and cancels.  The unscaled
medians are printed as well.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches (``tracing.py``) and reports the per-layer
metrics.  Human-readable lines come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--out FILE`` also writes the full record with its provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "arrfree"

# reference() time on a quiet Intel Xeon (2 vCPUs, Python 3.11.7)
REF_S = 0.0016
WINDOW_S = 0.5
MIN_BATCHES = 3
MIN_SETUPS = 11
RUN_BUDGET_S = 170  # every child must end within this many seconds of start

# per-layer metrics measured here and in child.py rather than by the tracer
OTHER_LAYER_UNITS = {
    "cyclotomic.mul_ns.z3": "ns",
    "cyclotomic.mul_ns.z15": "ns",
    "cyclotomic.inverse_us.z15": "us",
    "trace.overhead_frac": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_max_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def preflight() -> None:
    """Refuse to run without the source tree or with altered inputs."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no arrfree sources under {SRC}")
    manifest = BENCH / "inputs" / "MANIFEST"
    if not manifest.is_file():
        raise BenchError(f"missing {manifest}")
    for line in manifest.read_text().splitlines():
        digest, name = line.split()
        path = BENCH / "inputs" / name
        if not path.is_file() or \
                hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            raise BenchError(f"input {name} does not match its MANIFEST"
                             " digest; regenerate with bench/make_inputs.py")


def provenance(seed) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    lines = {}
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        source.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {"git_sha": sha, "source_sha256": source.hexdigest(),
            "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "seed": seed,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


class Child:
    """Starts cold child processes for one spec and collects their reports."""

    def __init__(self, workdir: Path, items: list, deadline: float):
        self.workdir = workdir
        self.items = items
        self.deadline = deadline
        self.inputs = sorted({it["input"] for it in items if "input" in it})
        self._n = 0

    def run(self, trace=False, passes=1, setup_only=False, unit_seed=None):
        self._n += 1
        spec = self.workdir / f"spec{self._n}.json"
        spec.write_text(json.dumps({
            "src": str(SRC), "inputs": self.inputs,
            "items": [{k: v for k, v in it.items() if k != "expect"}
                      for it in self.items],
            "trace": trace, "passes": passes, "setup_only": setup_only,
            "unit_seed": unit_seed}))
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the batch could start")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a batch overran the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup"] = report["ready"] - start
        return report


def verdict_digest(items: list) -> str:
    """Digest of one batch's verdicts in run order.  Input paths are left
    out, since seeded files live in a per-process directory."""
    h = hashlib.sha256()
    for it in items:
        try:
            payload = json.loads(it["out"])
        except ValueError:
            payload = it["out"]
        if isinstance(payload, dict):
            payload.pop("file", None)
        h.update(json.dumps([it["id"], it["code"], payload],
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


def check_batches(items: list, batches: list):
    """Count the items attempted and failed across all batches.

    An output fails when its check fails or when it differs from the
    first batch's output for the same item (outputs are byte-stable)."""
    from workloads import Checker

    checker = Checker()
    expected = {it["id"]: it for it in items}
    first = {r["id"]: r["out"] for r in batches[0]["passes"][0]["items"]}
    attempted = failed = 0
    problems = []
    for batch in batches:
        for res in batch["passes"][0]["items"]:
            attempted += 1
            why = checker.check(expected[res["id"]], res["code"], res["out"])
            if why is None and res["out"] != first[res["id"]]:
                why = "output differs from the first batch"
            if why is not None:
                failed += 1
                problems.append(f"{res['id']}: {why}")
    return attempted, failed, problems


def item_times(p: dict, raw=False) -> list:
    """Seconds of each item of one pass, less the time spent sampling,
    scaled by REF_S over the mean reference() time from WINDOW_S before
    the item starts to WINDOW_S after it ends.  The mean, because an
    item's time adds up the machine's speed over all of its length."""
    out = []
    for r in p["items"]:
        seconds = r["seconds"] - r["paused"]
        if not raw:
            lo = r["start"] - WINDOW_S
            hi = r["start"] + r["seconds"] + WINDOW_S
            seconds *= REF_S / mean([x for t, x in p["refs"]
                                      if lo <= t <= hi])
        out.append(seconds)
    return out


def end_to_end(batches: list, setups: list, raw=False) -> dict:
    times = [item_times(b["passes"][0], raw) for b in batches]
    # each item's median over the batches, so one slow batch moves neither
    # the median item nor the slowest one
    per_item = [median(t) for t in zip(*times)]
    return {
        "setup_s": median([s for s, _ in setups]) * (
            1 if raw else REF_S / median(
                [r for _, r in setups]
                + [r for b in batches for _, r in b["passes"][0]["refs"]])),
        "wall_s": median([sum(t) for t in times]),
        "item_p50_s": median(per_item),
        "item_max_s": max(per_item),
        "peak_rss_mb": median([b["rss_kb"] / 1024 for b in batches]),
    }


def per_layer(plain: list, traced: list) -> dict:
    from tracing import UNITS

    layers = []
    for b in traced:
        p = b["passes"][0]
        scale = REF_S / median([r for _, r in p["refs"]])
        layers.append({k: v * scale if UNITS[k] == "s" else v
                       for k, v in p["layers"]["total"].items()})
    out = {name: median([lv[name] for lv in layers]) for name in UNITS}
    out.update(plain[0]["units"])
    out["trace.overhead_frac"] = (
        median([sum(item_times(b["passes"][0])) for b in traced])
        / median([sum(item_times(b["passes"][0])) for b in plain]) - 1)
    return out


def _fits(t0: float, seconds: int, done: int) -> bool:
    elapsed = time.monotonic() - t0
    return elapsed + elapsed / done <= seconds


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    t0 = time.monotonic()
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(name, seed, workdir)
        child = Child(workdir, items, t0 + RUN_BUDGET_S)
        plain, traced = [], []
        # start another batch only while it is expected to end in time
        if trace:
            while not traced or _fits(t0, seconds, len(traced)):
                plain.append(child.run(unit_seed=None if plain else seed))
                traced.append(child.run(trace=True))
        else:
            while len(plain) < MIN_BATCHES or _fits(t0, seconds, len(plain)):
                plain.append(child.run())
            setups = [(b["setup"], b["setup_ref"]) for b in plain]
            while len(setups) < MIN_SETUPS:
                extra = child.run(setup_only=True)
                setups.append((extra["setup"], extra["setup_ref"]))
        attempted, failed, problems = check_batches(items, plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    raw = None
    if trace:
        from tracing import UNITS
        metrics = per_layer(plain, traced)
        units = {**UNITS, **OTHER_LAYER_UNITS}
    else:
        metrics = end_to_end(plain, setups)
        raw = end_to_end(plain, setups, raw=True)
        units = END_TO_END
    return {
        "workload": name, "seed": seed, "trace": trace,
        "batches": len(plain), "traced_batches": len(traced),
        "attempted": attempted, "failed": failed, "problems": problems,
        "verdicts": verdict_digest(plain[0]["passes"][0]["items"]),
        "metrics": metrics, "units": units, "unscaled": raw,
        "item_times": dict(zip(
            [it["id"] for it in items],
            zip(*[item_times(b["passes"][0]) for b in plain]))),
        "refs": [b["passes"][0]["refs"] for b in plain],
    }


def _print_result(res: dict) -> None:
    frac = res["failed"] / res["attempted"]
    print(f"{res['workload']} seed={res['seed']} batches={res['batches']}"
          f" traced={res['traced_batches']} attempted={res['attempted']}"
          f" failed={res['failed']} verdicts={res['verdicts']}")
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {res['units'][name]}")
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio")
    if res["unscaled"]:
        print("  unscaled: " + " ".join(f"{k}={v:.6g}"
                                        for k, v in res["unscaled"].items()))
    for line in res["problems"][:20]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path,
                   help="also write the full record as JSON to this file")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    try:
        preflight()
        sys.path.insert(0, str(SRC))
        names = workloads.WORKLOADS if args.workload == "all" \
            else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for res in results:
        _print_result(res)
    if args.out:
        args.out.write_text(json.dumps({"provenance": prov,
                                        "results": results}, indent=1))
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value,
                                      "unit": res["units"][name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
