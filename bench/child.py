"""One cold benchmark process: set up arrfree, run a batch of items, report.

    python3 bench/child.py SPEC.json

The spec (written by ``run.py``) names the source tree, the input files
to read and parse while setting up, the items, whether to trace, how many
passes to make over the items, and optionally a seed for the scalar unit
costs.  Items run one at a time on this thread.  A CLI item goes through
``arrfree.cli.main(argv)`` with its stdout captured and its stderr
(the ``elapsed`` line) discarded; only that call is timed.  The report is
one JSON line on stdout.

Between items, and once after set-up, the child times ``reference()``, a
fixed integer kernel that does not touch arrfree.  In untraced batches a
wall-clock timer also runs the kernel every ``SAMPLE_S`` seconds while an
item runs (on this thread, from the signal handler), so long items get
speed samples from inside; the time spent in the handler is reported as
``paused`` and taken off the item.  The machine's speed drifts by tens of
percent over minutes (other tenants share its cores); ``run.py`` divides
each time by the reference times measured around and inside it.

Every pass after the first runs in the same warm process, so its memos
are already filled; the self-test uses that to show the memos would leak
between runs that shared a process.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


SAMPLE_S = 0.2


class Speed:
    """reference() samples of one pass, as [perf_counter at start, seconds].

    With ``in_items`` a SIGALRM handler also samples every SAMPLE_S
    seconds while an item runs; the handler's time is the item's
    ``paused``."""

    def __init__(self, in_items: bool):
        self.samples: list = []
        self.in_items = in_items
        self._paused = 0.0
        if in_items:
            signal.signal(signal.SIGALRM, self._alarm)

    def sample(self) -> float:
        start = time.perf_counter()
        self.samples.append([start, reference()])
        return time.perf_counter() - start

    def _alarm(self, signum, frame):
        self._paused += self.sample()

    @contextlib.contextmanager
    def during(self, result: dict):
        self._paused = 0.0
        if self.in_items:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            if self.in_items:
                signal.setitimer(signal.ITIMER_REAL, 0)
            result["paused"] = self._paused


def _run_item(item, cli, catalog, speed):
    out = io.StringIO()
    result = {"id": item["id"]}
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), speed.during(result):
        start = time.perf_counter()
        try:
            if "argv" in item:
                code = cli.main(item["argv"])
            else:
                _, g, codim = item["call"]
                labels = catalog.flat_orbits(g, codim)
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed item, not a failed run
            code = None
            print(repr(exc))
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if "call" in item and code == 0:
        text = json.dumps([{"tag": o.tag, "codim": o.codim, "count": o.count,
                            "orbit_size": o.orbit_size} for o in labels])
    result.update(code=code, start=start, seconds=seconds, out=text)
    return result


def _peak_rss_kb() -> int:
    """Peak resident set of this process.  ru_maxrss also counts the
    parent's image that the child started from before exec, so VmHWM is
    read where /proc has it."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference() -> float:
    """Seconds taken by a fixed big-integer and dict kernel: the fastest of
    three rounds of about 2 ms, so that a cold cache or a stray interrupt
    does not count as a slow machine."""
    table = {k: k * k for k in range(256)}
    best = None
    for _ in range(3):
        acc = 1
        start = time.perf_counter()
        for i in range(5000):
            acc = (acc * 6364136223846793005 + table[i & 255]) \
                % 18446744073709551557
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def _unit_costs(seed):
    """Nanoseconds per Cyc multiply at orders 3 and 15 and microseconds per
    inverse at order 15, on fixed seeded operands; medians of five rounds."""
    from arrfree.cyclotomic import Cyc, _degree

    rng = random.Random(seed)

    def operand(order):
        coeffs = [rng.randint(-9, 9) for _ in range(_degree(order))]
        coeffs[0] = coeffs[0] or 1
        return Cyc(order, coeffs, rng.randint(1, 9))

    def per_op(op, args, rounds=5):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for a in args:
                op(*a)
            times.append((time.perf_counter() - start) / len(args))
        return statistics.median(times)

    mul = lambda a, b: a * b  # noqa: E731
    z3 = [(operand(3), operand(3)) for _ in range(64)] * 40
    z15 = [(operand(15), operand(15)) for _ in range(64)] * 8
    inv = [(operand(15),) for _ in range(64)]
    return {"cyclotomic.mul_ns.z3": per_op(mul, z3) * 1e9,
            "cyclotomic.mul_ns.z15": per_op(mul, z15) * 1e9,
            "cyclotomic.inverse_us.z15": per_op(Cyc.inverse, inv) * 1e6}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import arrfree.catalog as catalog
    import arrfree.cli as cli
    from arrfree.arrangement import Arrangement
    from arrfree.freeness import InductionTable

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    catalog.group_names()
    for path in spec["inputs"]:
        text = Path(path).read_text()
        if path.endswith(".tbl"):
            InductionTable.parse(text)
        else:
            Arrangement.from_text(text)
    ready = time.monotonic()
    report = {"ready": ready, "setup_ref": reference()}
    if spec["setup_only"]:
        print(json.dumps(report))
        return 0

    setup = tracer.take() if tracer else None
    passes = []
    for _ in range(spec["passes"]):
        speed = Speed(in_items=tracer is None)
        speed.sample()
        results = []
        for item in spec["items"]:
            results.append(_run_item(item, cli, catalog, speed))
            speed.sample()
        layers = None
        if tracer:
            part = tracer.take()
            layers = {"items": layer_metrics([part])}
            if not passes:
                layers["total"] = layer_metrics([setup, part])
        passes.append({"refs": speed.samples, "items": results,
                       "layers": layers})
    report["rss_kb"] = _peak_rss_kb()
    report["passes"] = passes
    if spec.get("unit_seed") is not None:
        report["units"] = _unit_costs(spec["unit_seed"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
