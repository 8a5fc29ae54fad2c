"""The three workloads: seeded op lists sized by a work model.

Every op is one ``peritrope`` CLI call on a freshly generated instance.
A workload draws candidate instances in turn and keeps adding them until
their work units reach the run's target (within 1 %), so every seed
gets the same amount of work and the wall time moves with the program,
not with the luck of the draw.

Work models, counted with the benchmark's own code (gen.py) and fitted
on this commit (per-op time over modelled units, 2-core x86, Python 3.11):

- exact:   L * trees * 2^(n-1), about 5.8 us per unit.  ``solve_exact``
  calls ``minimize_over_polytrope`` once per feasible cycle offset (L),
  and each call walks every spanning tree times every bound pattern.
- tns:     calls * trees * 2^(n-1), about 6.6 us per unit, where calls is
  the ``minimize_over_polytrope`` count of the candidate.  No cheap count
  predicts a search path, so the units are recorded (pool.py).
- analyze: trees * (7 L + 2^mu) only picks candidates (tiles are scanned
  against lattice points, and each tile has 2^mu corners); it is off by
  15 % per op, so the units are the op's calibrated microseconds,
  recorded (pool.py).

Pooled workloads draw from a fixed pool of candidates with recorded
units, shuffled by the seed.  A run's unit target is ``FILL`` of
``--seconds`` at those rates, split over ``PASSES`` passes of the same
op list.  The models, rates and pools are part of the benchmark
definition; a faster program finishes the same op list sooner.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

import gen

FILL = 0.8
PASSES = 3
# Candidates drawn per run at most; generation costs about 1.5 ms each.
MAX_CANDIDATES = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple  # (n, m) pairs, drawn in turn
    us_per_unit: float
    max_units: int  # caps one op at roughly a second
    min_points: int = 1  # tns on a lone feasible offset has no neighbour to visit
    fixed_arc_every: int = 0  # every k-th instance gets a fixed arc
    infeasible_ops: int = 0
    pool: str = ""  # file of recorded units per pool candidate (pool.py)

    def units(self, facts):
        """Recorded units for a pool candidate, else the model's."""
        if "units" in facts:
            return facts["units"]
        trees, points = facts["trees"], facts["points"]
        if self.name == "zonotope-analyze":
            return trees * (7 * points + 2 ** (facts["m"] - facts["n"] + 1))
        return points * trees * 2 ** (facts["n"] - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-ladder",
            rungs=tuple((n, n + k) for n in (7, 8, 9) for k in (2, 3, 4)),
            us_per_unit=5.8,
            max_units=80_000,
            infeasible_ops=1,
        ),
        Workload(
            "tns-restarts",
            rungs=((7, 9), (7, 10)),
            us_per_unit=6.6,
            max_units=20_000,
            min_points=6,
            pool="tns_pool.json",
        ),
        Workload(
            "zonotope-analyze",
            rungs=tuple((n, n - 1 + mu) for n in (5, 6, 7) for mu in (5, 6)),
            us_per_unit=1.0,
            max_units=4_000,
            fixed_arc_every=4,
            pool="analyze_pool.json",
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` holds ``{inst}``, ``{out}`` and ``{trace}``
    placeholders that the worker fills with paths in its run directory."""

    op_id: str
    kind: str
    text: str
    argv: tuple
    expected_exit: int
    facts: dict  # what the benchmark's own code knows about the instance

    @property
    def input_digest(self):
        return hashlib.sha256((self.text + "\0" + " ".join(self.argv)).encode()).hexdigest()[:16]


def _argv(workload, rng):
    if workload.name == "exact-ladder":
        return ("solve", "{inst}", "--out", "{out}")
    if workload.name == "tns-restarts":
        return (
            "solve", "{inst}", "--method", "tns", "--restarts", "3",
            "--seed", str(rng.randrange(1000)), "--trace", "{trace}", "--out", "{out}",
        )
    return ("analyze", "{inst}", "--out", "{out}")


def draw(workload, rng, n, m):
    """One candidate instance: (arcs, bounds, argv, facts), or None when it
    has too few feasible offsets or too much modelled work for one op."""
    arcs = gen.random_arcs(rng, n, m)
    bounds = gen.random_bounds(rng, m)
    facts = {
        "n": n, "m": m,
        "points": gen.lattice_point_count(n, arcs, bounds),
        "trees": gen.spanning_tree_count(n, arcs),
    }
    if facts["points"] < workload.min_points or workload.units(facts) > workload.max_units:
        return None
    return arcs, bounds, _argv(workload, rng), facts


def pool_candidate(workload, k):
    """Candidate k of a pooled workload, drawn from its own seed."""
    return draw(workload, random.Random(f"{workload.name}/pool/{k}"), *workload.rungs[k % len(workload.rungs)])


def _candidates(workload, rng):
    if not workload.pool:
        for k in range(MAX_CANDIDATES):
            yield draw(workload, rng, *workload.rungs[k % len(workload.rungs)])
        return
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), workload.pool)) as handle:
        recorded = {int(k): units for k, units in json.load(handle)["units"].items()}
    order = sorted(recorded)
    rng.shuffle(order)
    for k in order:
        arcs, bounds, argv, facts = pool_candidate(workload, k)
        yield arcs, bounds, argv, dict(facts, units=recorded[k])


def _infeasible_op(workload, rng):
    n, m = workload.rungs[0]
    arcs = gen.random_arcs(rng, n, m)
    bounds = gen.random_bounds(rng, m)
    gen.infeasible_pair(rng, arcs, bounds)
    facts = {"n": n, "m": m + 1, "points": 0, "trees": gen.spanning_tree_count(n, arcs)}
    return ("solve", gen.instance_text(n, arcs, bounds), _argv(workload, rng), 2, facts)


def build_ops(workload, seed, seconds):
    """The op list for one run: deterministic in (workload, seed, seconds)."""
    rng = random.Random(f"{workload.name}/{seed}")
    target = seconds * FILL / PASSES * 1e6 / workload.us_per_unit
    ops = []
    total = 0
    for candidate in _candidates(workload, rng):
        if total >= 0.99 * target:
            break
        if candidate is None:
            continue
        arcs, bounds, argv, facts = candidate
        units = workload.units(facts)
        if total + units > 1.01 * target:
            continue
        total += units
        n = facts["n"]
        if workload.fixed_arc_every and len(ops) % workload.fixed_arc_every == 1:
            n = gen.split_vertex(rng, n, arcs, bounds)
            facts["contracted"] = True
        kind = "analyze" if workload.name == "zonotope-analyze" else "solve"
        ops.append((kind, gen.instance_text(n, arcs, bounds), argv, 0, facts))
    for _ in range(workload.infeasible_ops):
        ops.insert(rng.randrange(len(ops) + 1), _infeasible_op(workload, rng))
    return [Op(f"{k:03d}", *op) for k, op in enumerate(ops)], total
