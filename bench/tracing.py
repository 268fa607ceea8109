"""Per-layer tracing of arrfree from outside the program.

``Tracer.install()`` replaces public functions and methods of the five
modules with wrappers.  Layer boundaries (parsing, lattice building,
restriction, decision, replay, census, catalog, CLI) record spans with a
parent link; hot scalar operations only count calls, since a span per
``Cyc`` multiply would cost more than the multiply.  A function wrapper
is installed in every module that bound the name, so ``cli.py``'s own
imports of ``is_inductively_free`` and friends are traced too.  The
recursion inside ``freeness._decide`` goes back through
``is_inductively_free``, so its spans nest.

Self time is a span's duration minus the durations of its child spans.
A layer total (``*_s`` without ``self``) sums the spans of a group that
do not sit inside another span of the same group.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

MODULES = ("arrfree", "arrfree.cyclotomic", "arrfree.arrangement",
           "arrfree.freeness", "arrfree.catalog", "arrfree.cli")

# (module, attribute path, span group)
SPANS = (
    ("arrangement", "Arrangement.from_text", "arrangement.parse"),
    ("arrangement", "Hyperplane.parse", "arrangement.parse"),
    ("arrangement", "Arrangement.restricted", "arrangement.restrict"),
    ("arrangement", "Arrangement.intersection_lattice", "arrangement.lattice"),
    ("arrangement", "Arrangement.partial_levels", "arrangement.lattice"),
    ("arrangement", "Lattice.characteristic_polynomial",
     "arrangement.charpoly"),
    ("freeness", "is_inductively_free", "freeness.decide"),
    ("freeness", "_decide", "freeness.decide"),
    ("freeness", "InductionTable.parse", "freeness.replay"),
    ("freeness", "verify_induction_table", "freeness.replay"),
    ("freeness", "certify_chain", "freeness.replay"),
    ("freeness", "emit_induction_table", "freeness.emit"),
    ("freeness", "necessary_condition_counts", "freeness.census"),
    ("catalog", "load_groups", "catalog.load"),
    ("catalog", "reflection_arrangement", "catalog.closure"),
    ("catalog", "restriction_by_type", "catalog.restrict"),
    ("catalog", "flat_orbits", "catalog.orbits"),
    ("cli", "main", "cli"),
)

# (module, attribute path, counter)
COUNTERS = (
    ("cyclotomic", "Cyc.__mul__", "cyclotomic.mul_calls"),
    ("cyclotomic", "Cyc.__rmul__", "cyclotomic.mul_calls"),
    # __sub__ and __rsub__ go through __add__, so this counts both
    ("cyclotomic", "Cyc.__add__", "cyclotomic.add_calls"),
    ("cyclotomic", "Cyc.__radd__", "cyclotomic.add_calls"),
    ("cyclotomic", "Cyc.inverse", "cyclotomic.inverse_calls"),
    ("cyclotomic", "Cyc.__hash__", "cyclotomic.hash_calls"),
    ("cyclotomic", "parse_scalar", "cyclotomic.parse_calls"),
    ("cyclotomic", "parse_linear", "cyclotomic.parse_calls"),
    ("arrangement", "Arrangement.__init__", "arrangement.constructs"),
)

# per-layer metric -> unit; the order is the order of the report
UNITS = {
    "cyclotomic.mul_calls": "count",
    "cyclotomic.add_calls": "count",
    "cyclotomic.inverse_calls": "count",
    "cyclotomic.hash_calls": "count",
    "cyclotomic.parse_calls": "count",
    "arrangement.lattice_s": "s",
    "arrangement.lattice_builds": "count",
    "arrangement.flats": "count",
    "arrangement.charpoly_s": "s",
    "arrangement.restrict_s": "s",
    "arrangement.restrict_calls": "count",
    "arrangement.constructs": "count",
    "arrangement.parse_s": "s",
    "freeness.decide_self_s": "s",
    "freeness.decide_calls": "count",
    "freeness.cert_steps": "count",
    "freeness.notif_explored": "count",
    "freeness.restricts_per_step": "ratio",
    "freeness.replay_self_s": "s",
    "freeness.replay_rows": "count",
    "freeness.emit_self_s": "s",
    "freeness.census_self_s": "s",
    "freeness.census_states": "count",
    "freeness.census_states_per_s": "1/s",
    "catalog.load_s": "s",
    "catalog.closure_s": "s",
    "catalog.mirrors": "count",
    "catalog.restrict_self_s": "s",
    "catalog.orbits_self_s": "s",
    "catalog.orbits": "count",
    "cli.self_s": "s",
}


def _resolve(module, path):
    owner = module
    *parents, name = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans: list = []      # [group, parent index, start, end, outer]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._depth: Counter = Counter()

    # -- wrappers ------------------------------------------------------------

    def _span(self, group, fn, before=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            rec = [group, stack[-1] if stack else -1, 0.0, 0.0,
                   depth[group] == 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            depth[group] += 1
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                depth[group] -= 1
                stack.pop()
            if after:
                after(result, state, *args, **kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks: counts the layers hand back ---------------------------

    def _hooks(self):
        c = self.counts

        def lattice_before(arr, *a, **k):
            return arr._lattice is None

        def lattice_after(lat, built, *a, **k):
            if built:
                c["arrangement.lattice_builds"] += 1
                c["arrangement.flats"] += sum(len(lv) for lv in lat.levels)

        def partial_before(arr, *a, **k):
            return arr, len(arr._partial)

        def partial_after(res, state, *a, **k):
            arr, cached = state
            if len(arr._partial) > cached:
                c["arrangement.lattice_builds"] += 1
                c["arrangement.flats"] += sum(len(lv) for lv in res[0])

        def restricted_after(res, state, *a, **k):
            c["arrangement.restrict_calls"] += 1

        def inductive_after(res, state, *a, **k):
            c["freeness.decide_calls"] += 1

        def decide_after(res, state, *a, **k):
            if res:
                c["freeness.cert_steps"] += len(res.steps)
            else:
                c["freeness.notif_explored"] += res.explored

        def replay_after(rep, state, *a, **k):
            c["freeness.replay_rows"] += (len(rep.certificate.steps) if rep
                                          else rep.failures[0].row)

        def census_after(rep, state, *a, **k):
            c["freeness.census_states"] += sum(lv.count for lv in rep.levels)

        def closure_before(g, *a, **k):
            return not isinstance(g, str) and g._arrangement is None

        def closure_after(arr, built, *a, **k):
            if built:
                c["catalog.mirrors"] += len(arr)

        def orbits_after(labels, state, *a, **k):
            c["catalog.orbits"] += len(labels)

        return {
            "Arrangement.intersection_lattice":
                (lattice_before, lattice_after),
            "Arrangement.partial_levels": (partial_before, partial_after),
            "Arrangement.restricted": (None, restricted_after),
            "is_inductively_free": (None, inductive_after),
            "_decide": (None, decide_after),
            "verify_induction_table": (None, replay_after),
            "certify_chain": (None, replay_after),
            "necessary_condition_counts": (None, census_after),
            "reflection_arrangement": (closure_before, closure_after),
            "flat_orbits": (None, orbits_after),
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every module that bound it."""
        mods = [sys.modules[m] for m in MODULES]
        hooks = self._hooks()
        plan = [(m, p, self._span, g, hooks.get(p, ())) for m, p, g in SPANS]
        plan += [(m, p, self._counter, n, ()) for m, p, n in COUNTERS]
        for mod, path, make, label, hook in plan:
            owner, name = _resolve(sys.modules["arrfree." + mod], path)
            raw = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = make(label, fn, *hook)
            if isinstance(owner, type):
                setattr(owner, name, classmethod(wrapped) if is_cm
                        else wrapped)
                continue
            for m in mods:
                if getattr(m, name, None) is fn:
                    setattr(m, name, wrapped)

    def take(self):
        """Hand over what was recorded so far and start afresh."""
        spans, counts = list(self.spans), self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(parts) -> dict:
    """Per-layer metrics from (spans, counts) pairs returned by take()."""
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: Counter = Counter()
    for spans, part_counts in parts:
        counts.update(part_counts)
        child = [0.0] * len(spans)
        for group, parent, start, end, outer in spans:
            if parent >= 0:
                child[parent] += end - start
        for n, (group, parent, start, end, outer) in enumerate(spans):
            self_s[group] += end - start - child[n]
            if outer:
                total_s[group] += end - start
    out = {name: counts.get(name, 0) for name, unit in UNITS.items()
           if unit == "count"}
    out.update({
        "arrangement.lattice_s": total_s["arrangement.lattice"],
        "arrangement.charpoly_s": total_s["arrangement.charpoly"],
        "arrangement.restrict_s": total_s["arrangement.restrict"],
        "arrangement.parse_s": total_s["arrangement.parse"],
        "freeness.decide_self_s": self_s["freeness.decide"],
        "freeness.replay_self_s": self_s["freeness.replay"],
        "freeness.emit_self_s": self_s["freeness.emit"],
        "freeness.census_self_s": self_s["freeness.census"],
        "catalog.load_s": total_s["catalog.load"],
        "catalog.closure_s": total_s["catalog.closure"],
        "catalog.restrict_self_s": self_s["catalog.restrict"],
        "catalog.orbits_self_s": self_s["catalog.orbits"],
        "cli.self_s": self_s["cli"],
    })
    steps = out["freeness.cert_steps"]
    out["freeness.restricts_per_step"] = (
        out["arrangement.restrict_calls"] / steps if steps else 0.0)
    census = self_s["freeness.census"]
    out["freeness.census_states_per_s"] = (
        out["freeness.census_states"] / census if census else 0.0)
    return {name: out[name] for name in UNITS}
