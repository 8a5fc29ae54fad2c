"""Local search over the polytrope adjacency structure.

A solution lives in one polytrope; its neighbours are the offset classes
reached by shifting the cycle offset along a single basis column.  Each
visited class is optimized exactly, so the search walks from vertex
optimum to vertex optimum.

A polytrope's optimum and the steps around it, each with its cycle
relaxation bound, depend only on the instance, the basis and the cycle
offset z, so one ``OffsetMemo`` holds both per z for a whole solve:
``tns_restarts`` shares it between all its walks, and ``tns`` builds a
fresh one when it is not given one.  The tabu set stays per walk.

No step is tested for emptiness before it is solved: the one
Bellman-Ford a step gets is the one that opens
``minimize_over_polytrope``, and the memo keeps None for a step it finds
empty.  A walk solves only the steps whose bound leaves room to improve
on the current objective (or to match it, when sideways moves are
allowed).  Best improvement solves them in (bound, z) order and stops at
the first bound above the best objective found, which keeps the
(objective, z) argmin; first improvement solves them in z order and
stops at the first move.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from .errors import EnumerationCapExceeded, Infeasible, InvariantViolation, RetriesExhausted
from .fixedlp import (
    _check_bound,
    _confirm_empty,
    cycle_relaxation_bound,
    minimize_over_polytrope,
)
from .graphs import (
    DEFAULT_ENUMERATION_CAP,
    _require_connected,
    default_basis,
    greedy_spanning_tree,
    spanning_tree_walk,
    spanning_trees,
    tree_potentials,
)
from .polytropes import (
    _root_index,
    normalize_timetable,
    offset_for,
    steps,
    timetable_to_tension,
)
from .zonotopes import DEFAULT_WIDTH_CAP, _box_integer_ranges, lattice_points


@dataclass(frozen=True)
class Solution:
    """Feasible timetable with all derived vectors kept consistent."""

    timetable: tuple
    tension: tuple
    periodic_offset: tuple
    cycle_offset: tuple
    objective: int


def solution_from_timetable(inst, basis, pi, root=None):
    """Normalize a timetable and derive tension, offsets and objective."""
    ridx = _root_index(inst.graph, root)
    timetable = normalize_timetable(pi, ridx, inst.period)
    x, p = timetable_to_tension(inst, timetable)
    z = basis.apply(p)
    value = sum(w * v for w, v in zip(inst.weight, x))
    return Solution(timetable, x, p, z, value)


def initial_solution(inst, seed=0, basis=None, tree=None, retries=200, *, pool=None):
    """Feasible starting point: pin a spanning tree to its lower bounds,
    then retry with random trees and random tree tensions.  Failure after
    all retries is a heuristic give-up, not an infeasibility proof.
    ``pool`` is a ``TreePool`` of the instance's graph to draw the retry
    trees from; a fresh one is used when it is None."""
    g = inst.graph
    if basis is None:
        basis = default_basis(g)
    _require_connected(g)  # no start exists on a disconnected graph, whatever the tree
    if tree is not None:
        spanning_tree_walk(g, tree)
    if pool is None:
        pool = TreePool(g)
    elif pool.graph is not g:
        raise ValueError("the tree pool belongs to another graph")
    rng = random.Random(seed)
    for attempt in range(retries):
        if attempt == 0:
            chosen = tuple(sorted(tree)) if tree is not None else greedy_spanning_tree(g)
        else:
            chosen = pool.choice(rng)
        x = list(inst.lower)
        if attempt % 2 == 1:
            for a in chosen:
                x[a] = rng.randint(inst.lower[a], inst.upper[a])
        pi = tree_potentials(g, chosen, x)
        try:
            return solution_from_timetable(inst, basis, pi)
        except Infeasible:
            continue
    raise RetriesExhausted(f"no feasible start found in {retries} attempts")


class TreePool:
    """The trees ``initial_solution`` draws its retries from: every
    spanning tree of the graph (the greedy tree alone beyond
    ``DEFAULT_ENUMERATION_CAP``), enumerated on the first draw and kept.
    Build one per solve."""

    def __init__(self, g):
        self.graph = g
        self._trees = None

    def choice(self, rng):
        if self._trees is None:
            try:
                self._trees = spanning_trees(self.graph, DEFAULT_ENUMERATION_CAP)
            except EnumerationCapExceeded:
                self._trees = (greedy_spanning_tree(self.graph),)
        return rng.choice(self._trees)


@dataclass(frozen=True)
class TnsConfig:
    strategy: str = "best-improvement"
    max_iterations: int = 100
    seed: int = 0
    tabu: bool = True
    allow_sideways: bool = False

    def __post_init__(self):
        if self.strategy not in ("best-improvement", "first-improvement"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class OffsetMemo:
    """The per-cycle-offset answers of one instance and basis: the
    ``minimize_over_polytrope`` optimum of each z (None when its polytrope
    is empty) and the steps of z with their ``cycle_relaxation_bound``,
    each computed on first use.  All depend on (inst, basis, z) only, so
    every answer is exact.  Build one per solve; it grows with the offsets
    that solve visits."""

    def __init__(self, inst, basis):
        self.inst = inst
        self.basis = basis
        self._bound = cycle_relaxation_bound(inst, basis)
        self._box = _box_integer_ranges(inst, basis)
        self._optima = {}
        self._steps = {}

    def bounded_steps(self, z):
        """The distinct ``polytropes.steps`` of z that the relaxation leaves
        open, as (bound, offset) pairs in ascending order.  A step it rules
        out is empty: off the box by the box alone, in it by Bellman-Ford."""
        found = self._steps.get(z)
        if found is None:
            found = []
            for z2 in steps(self.basis, z):
                lower = self._bound(z2)
                if lower is not None:
                    found.append((lower, z2))
                elif all(v in r for v, r in zip(z2, self._box)):
                    _confirm_empty(self.inst, self.basis, z2)
            found = tuple(sorted(found))
            self._steps[z] = found
        return found

    def optimum(self, z, lower):
        """The polytrope optimum of z, or None when it is empty; ``lower``
        is the bound of z, which the optimum must not undercut."""
        if z not in self._optima:
            try:
                result = minimize_over_polytrope(self.inst, offset_for(self.inst, self.basis, z))
            except Infeasible:
                result = None
            else:
                _check_bound(z, lower, result)
            self._optima[z] = result
        return self._optima[z]


def _best_step(memo, candidates, tabu, limit):
    """The (objective, z) least untabued step with an objective of at most
    ``limit``.  The steps come in (bound, z) order, so the scan ends at the
    first bound above ``limit`` or above the best objective found: no step
    from there on can win or tie."""
    best = None  # (objective, z, optimum)
    for lower, z in candidates:
        if lower > (limit if best is None else best[0]):
            break
        res = None if z in tabu else memo.optimum(z, lower)
        if res is None or res.objective > limit:
            continue
        if best is None or (res.objective, z) < best[:2]:
            best = (res.objective, z, res)
    return None if best is None else best[1:]


def _first_step(memo, candidates, tabu, limit):
    """The smallest untabued z among the steps whose objective is at most
    ``limit``; only steps with a bound of at most ``limit`` are solved."""
    for z, lower in sorted((z, lower) for lower, z in candidates if lower <= limit):
        if z not in tabu:
            res = memo.optimum(z, lower)
            if res is not None and res.objective <= limit:
                return z, res
    return None


def tns(inst, basis, start, config=None, memo=None):
    """Walk the offset neighbourhood from a feasible start, exactly
    optimizing each visited polytrope, until no neighbour improves or the
    iteration cap is reached.  Returns the best solution and the visit
    trace.  ``memo`` is an ``OffsetMemo`` of the same instance and basis
    to reuse; a fresh one is used when it is None."""
    if config is None:
        config = TnsConfig()
    if memo is None:
        memo = OffsetMemo(inst, basis)
    elif memo.inst is not inst or memo.basis is not basis:
        raise ValueError("the offset memo belongs to another instance or basis")
    pick = _best_step if config.strategy == "best-improvement" else _first_step
    current = start
    trace = [{"z": list(current.cycle_offset), "objective": current.objective, "move": "start"}]
    visited = {current.cycle_offset}
    for _ in range(config.max_iterations):
        # A move lowers the objective, or keeps it when sideways moves are
        # allowed; a step whose bound is above that limit cannot be one.
        limit = current.objective if config.allow_sideways else current.objective - 1
        chosen = pick(
            memo, memo.bounded_steps(current.cycle_offset), visited if config.tabu else (), limit
        )
        if chosen is None:
            break
        z, res = chosen
        move = config.strategy if res.objective < current.objective else "sideways"
        current = solution_from_timetable(inst, basis, res.timetable)
        if current.cycle_offset != z:
            raise InvariantViolation(
                f"offset drift: the optimum of {z} rebuilt into {current.cycle_offset}"
            )
        visited.add(z)
        trace.append({"z": list(z), "objective": current.objective, "move": move})
    return current, tuple(trace)


def tns_restarts(inst, basis, restarts=1, config=None):
    """Best of ``restarts`` tns walks (at least one), all sharing one
    ``OffsetMemo`` and one ``TreePool``.  Walk k starts from
    ``initial_solution`` with seed ``config.seed + k`` and runs under
    ``config`` with that seed.  Returns the solution and trace of the first
    walk that reaches the lowest objective; raises RetriesExhausted when no
    walk finds a start."""
    if config is None:
        config = TnsConfig()
    memo = OffsetMemo(inst, basis)
    pool = TreePool(inst.graph)
    best = None
    walks = max(restarts, 1)
    for attempt in range(walks):
        walk_config = replace(config, seed=config.seed + attempt)
        try:
            start = initial_solution(inst, seed=walk_config.seed, basis=basis, pool=pool)
        except RetriesExhausted:
            continue
        walk = tns(inst, basis, start, walk_config, memo)
        if best is None or walk[0].objective < best[0].objective:
            best = walk
    if best is None:
        raise RetriesExhausted(f"all {walks} restarts failed to find a feasible start")
    return best


def trace_to_jsonl(trace):
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in trace) + "\n"


@dataclass
class NeighbourhoodGraph:
    nodes: tuple
    edges: tuple
    objective: dict


def neighbourhood_graph(inst, basis, width_cap=DEFAULT_WIDTH_CAP):
    """Undirected graph on feasible cycle offsets, one edge per basis
    column step, each node annotated with its exact polytrope optimum."""
    nodes = lattice_points(inst, basis, cap=width_cap)
    node_set = set(nodes)
    edges = set()
    for z in nodes:
        for col in basis.moves:
            for sign in (1, -1):
                z2 = tuple(v + sign * c for v, c in zip(z, col))
                if z2 in node_set:
                    edges.add(tuple(sorted((z, z2))))
    objective = {
        z: minimize_over_polytrope(inst, offset_for(inst, basis, z)).objective
        for z in nodes
    }
    return NeighbourhoodGraph(nodes, tuple(sorted(edges)), objective)
