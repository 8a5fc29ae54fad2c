"""Local search over the polytrope adjacency structure.

A solution lives in one polytrope; its neighbours are the offset classes
reached by shifting the cycle offset along a single basis column.  Each
visited class is optimized exactly, so the search walks from vertex
optimum to vertex optimum.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import EnumerationCapExceeded, Infeasible, InvariantViolation, RetriesExhausted
from .fixedlp import minimize_over_polytrope
from .graphs import (
    DEFAULT_ENUMERATION_CAP,
    default_basis,
    greedy_spanning_tree,
    spanning_trees,
    tree_potentials,
)
from .polytropes import (
    neighbors,
    normalize_timetable,
    offset_from_cycle_offset,
    offset_zero,
    timetable_to_tension,
)
from .zonotopes import DEFAULT_WIDTH_CAP, lattice_points


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
    ridx = inst.graph.vindex[root] if root is not None else 0
    timetable = normalize_timetable(pi, ridx, inst.period)
    x, p = timetable_to_tension(inst, timetable)
    z = tuple(sum(row[a] * p[a] for a in range(inst.graph.m)) for row in basis.gamma)
    value = sum(w * v for w, v in zip(inst.weight, x))
    return Solution(timetable, x, p, z, value)


def _offset_for(inst, basis, z):
    if basis.mu == 0:
        return offset_zero(inst)
    return offset_from_cycle_offset(basis, z)


def initial_solution(inst, seed=0, basis=None, tree=None, retries=200):
    """Feasible starting point: pin a spanning tree to its lower bounds,
    then retry with random trees and random tree tensions.  Failure after
    all retries is a heuristic give-up, not an infeasibility proof."""
    g = inst.graph
    if basis is None:
        basis = default_basis(g)
    rng = random.Random(seed)
    try:
        pool = spanning_trees(g, DEFAULT_ENUMERATION_CAP)
    except EnumerationCapExceeded:
        pool = (greedy_spanning_tree(g),)
    for attempt in range(retries):
        if attempt == 0:
            chosen = tuple(sorted(tree)) if tree is not None else greedy_spanning_tree(g)
        else:
            chosen = rng.choice(pool)
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


def tns(inst, basis, start, config=None):
    """Walk the offset neighbourhood from a feasible start, exactly
    optimizing each visited polytrope, until no neighbour improves or the
    iteration cap is reached.  Returns the best solution and the visit
    trace."""
    if config is None:
        config = TnsConfig()
    current = start
    trace = [{"z": list(current.cycle_offset), "objective": current.objective, "move": "start"}]
    visited = {current.cycle_offset}
    for _ in range(config.max_iterations):
        candidates = sorted(
            z for z in neighbors(inst, basis, current.cycle_offset)
            if not (config.tabu and z in visited)
        )
        if not candidates:
            break
        results = [minimize_over_polytrope(inst, _offset_for(inst, basis, z)) for z in candidates]
        scored = sorted(zip(candidates, results), key=lambda zr: (zr[1].objective, zr[0]))
        chosen = None
        for z, res in scored if config.strategy == "best-improvement" else zip(candidates, results):
            improves = res.objective < current.objective
            sideways = config.allow_sideways and res.objective == current.objective
            if improves or sideways:
                chosen = (z, res, "sideways" if not improves else config.strategy)
                break
        if chosen is None:
            break
        z, res, move = chosen
        current = solution_from_timetable(inst, basis, res.timetable)
        if current.cycle_offset != z:
            raise InvariantViolation(
                f"offset drift: the optimum of {z} rebuilt into {current.cycle_offset}"
            )
        visited.add(z)
        trace.append({"z": list(z), "objective": current.objective, "move": move})
    return current, tuple(trace)


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
    columns = {basis.column(a) for a in range(inst.graph.m)}
    columns.discard((0,) * basis.mu)
    edges = set()
    for z in nodes:
        for col in columns:
            for sign in (1, -1):
                z2 = tuple(v + sign * c for v, c in zip(z, col))
                if z2 in node_set and z2 != z:
                    edges.add(tuple(sorted((z, z2))))
    objective = {
        z: minimize_over_polytrope(inst, _offset_for(inst, basis, z)).objective
        for z in nodes
    }
    return NeighbourhoodGraph(nodes, tuple(sorted(edges)), objective)
