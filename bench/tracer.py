"""Spans around the package's public functions, recorded from outside.

``install`` wraps each function in ``TARGETS`` and rebinds the wrapper
in every ``peritrope`` module that holds the original, so names bound by
``from .fixedlp import minimize_over_polytrope`` are traced too.  Spans
stay in memory until ``dump``; ``layer_metrics`` turns them into the
per-layer metrics.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

TARGETS = (
    ("cli", "main"),
    ("instances", "parse_instance"),
    ("instances", "contract_fixed_arcs"),
    ("exact", "solve_exact"),
    ("fixedlp", "minimize_over_polytrope"),
    ("graphs", "spanning_trees"),
    ("polytropes", "polytrope_nonempty"),
    ("polytropes", "neighbors"),
    ("polytropes", "polytrope_build"),
    ("search", "initial_solution"),
    ("search", "tns"),
    ("zonotopes", "lattice_points"),
    ("zonotopes", "volume"),
    ("zonotopes", "fine_tiling"),
    ("zonotopes", "validate_tiling"),
    ("zonotopes", "duality_check"),
    ("zonotopes", "width_bound_report"),
)

def _box_points(inst, basis):
    """Integer points of the box that lattice_points scans."""
    if basis.mu == 0:
        return 1
    T = inst.period
    total = 1
    for row in basis.gamma:
        lo = sum(s * (inst.lower[a] if s > 0 else inst.upper[a]) for a, s in enumerate(row) if s)
        hi = sum(s * (inst.upper[a] if s > 0 else inst.lower[a]) for a, s in enumerate(row) if s)
        total *= max(hi // T - (-(-lo // T)) + 1, 0)
    return total


def _minimize_attrs(args, kwargs, result, tracer):
    inst, p = args[0], args[1]
    objective = args[2] if len(args) > 2 else kwargs.get("objective")
    key = (id(inst), tuple(p), None if objective is None else tuple(objective))
    repeat = key in tracer.solved
    tracer.solved.add(key)
    return {"n": inst.graph.n, "repeat": int(repeat)}


# Work counters computed by the benchmark from call arguments and results
# (not counted by the program): name -> fn(args, kwargs, result, tracer).
COUNTERS = {
    "fixedlp.minimize_over_polytrope": _minimize_attrs,
    "graphs.spanning_trees": lambda a, k, r, t: {"trees": len(r)},
    "zonotopes.lattice_points": lambda a, k, r, t: {"box": _box_points(a[0], a[1]), "kept": len(r)},
    "zonotopes.volume": lambda a, k, r, t: {"minors": math.comb(a[0].graph.m, a[1].mu)},
    "search.tns": lambda a, k, r, t: {"accepted": len(r[1]) - 1},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [op, span_id, parent_id, name, start, end, attrs]
        self.stack = []
        self.op = None
        self.solved = set()

    def begin_op(self, op_id):
        self.op = op_id
        self.solved = set()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.op, len(spans), stack[-1][1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result, self)
            return result

        return traced

    def install(self):
        import peritrope.cli  # noqa: F401  (loads every module that is traced)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "peritrope"]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[f"peritrope.{module_name}"], func)
            wrapper = self.wrap(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def layer_metrics(spans):
    """Per-layer metrics from recorded spans: calls, self seconds, work
    counters and ratios; also the self seconds by function name."""
    by_id = {}
    child_time = defaultdict(float)
    for op, sid, parent, name, start, end, attrs in spans:
        by_id[(op, sid)] = (name, attrs)
        if parent is not None:
            child_time[(op, parent)] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for op, sid, parent, name, start, end, attrs in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[(op, sid)]

    def total(name, key):
        return sum(a[key] for op, s, p, n, b, e, a in spans if n == name and a)

    trees_in = defaultdict(int)  # spanning tree counts per parent span
    for op, sid, parent, name, start, end, attrs in spans:
        if name == "graphs.spanning_trees" and attrs and parent is not None:
            trees_in[(op, parent)] += attrs["trees"]
    patterns = 0
    tns_calls = 0
    tns_steps = 0
    for op, sid, parent, name, start, end, attrs in spans:
        if name == "fixedlp.minimize_over_polytrope" and attrs:
            patterns += trees_in[(op, sid)] * 2 ** (attrs["n"] - 1)
        if parent is not None and by_id[(op, parent)][0] == "search.tns":
            tns_calls += name == "fixedlp.minimize_over_polytrope"
            tns_steps += name == "polytropes.neighbors"

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for module_name, func in TARGETS:
        name = f"{module_name}.{func}"
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.s"] = (self_s[name], "s")
    minimize = "fixedlp.minimize_over_polytrope"
    metrics[f"{minimize}.patterns"] = (patterns, "count")
    metrics[f"{minimize}.repeat_ratio"] = (ratio(total(minimize, "repeat"), calls[minimize]), "ratio")
    metrics["graphs.spanning_trees.trees"] = (total("graphs.spanning_trees", "trees"), "count")
    metrics["search.tns.steps"] = (tns_steps, "count")
    metrics["search.tns.improving_ratio"] = (ratio(total("search.tns", "accepted"), tns_calls), "ratio")
    lattice = "zonotopes.lattice_points"
    metrics[f"{lattice}.hit_ratio"] = (ratio(total(lattice, "kept"), total(lattice, "box")), "ratio")
    metrics["zonotopes.volume.minors"] = (total("zonotopes.volume", "minors"), "count")
    return metrics, self_s


def module_shares(self_s, wall_s):
    """Each traced module's self time over the pass's op time."""
    shares = defaultdict(float)
    for name, seconds in self_s.items():
        shares[name.split(".")[0]] += seconds
    return {
        f"{module}.self_share": (shares[module] / wall_s if wall_s else 0.0, "ratio")
        for module in sorted({m for m, _ in TARGETS})
    }
