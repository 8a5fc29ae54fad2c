"""Local search over the polytrope adjacency structure, and the one
bounded search over cycle offsets that it shares with ``solve_exact``.

A solution lives in one polytrope; its neighbours are the offset classes
reached by shifting the cycle offset along a single basis column.  Each
class the walk moves to is optimized exactly, so after its first move
the search walks from vertex optimum to vertex optimum; the start class
is not optimized (see ``tns``).

The search.  ``OffsetMemo`` is the ``zonotopes.BoxSearch`` that
``lattice_points`` runs too, keyed by (lower, prefix): lower is the
highest of the prefix's ``cycle_relaxation_bound`` and each learned cut,
the dual bound of a solved offset's flow (``fixedlp.certified_optimum``),
at its least over the completions in the box.  ``least_optimum`` seeds it
with the root prefix () for ``solve_exact`` and with the current offset's
steps but the start's for a ``tns`` step, and stops at the first key
above the best (objective, z), or above the caller's limit while there is
none, so the argmin survives; ``neighbourhood_graph`` keeps every leaf.
An empty z's negative cycle becomes an Odijk row lo <= ty.z <= hi that
every nonempty offset meets (Odijk, Transportation Research B 30, 1996),
by ``BoxSearch.learn_row``; a solved z's cut enters by ``learn_cut``.
Only an offset a caller takes has its vertex built.  Every node graded
and every offset solved is a unit of the memo's ``graphs.Budget``, in
``solve_exact`` and in the tns walks alike; a ``solve_exact`` whose budget
runs out leaves the proven gap [least open lower, incumbent] on its error.

``OffsetMemo`` owns the per-offset answers of a solve and the invariant
checks the search rests on (its methods say which).  The answers depend
only on the instance, the basis and z: ``tns_restarts`` shares one memo
between its walks, and ``tns`` builds a fresh one when it is not given one.
"""

import json
import random
from collections import namedtuple

from .errors import Infeasible, InvariantViolation, RetriesExhausted
from .fixedlp import certified_optimum, cycle_relaxation_bound, optimal_vertex
from .graphs import default_basis, greedy_spanning_tree, tree_potentials
from .polytropes import (
    _require_length,
    normalize_timetable,
    offset_for,
    steps,
    timetable_to_tension,
)
from .zonotopes import BoxSearch, _require_integral


class Solution(namedtuple("Solution", "timetable tension periodic_offset cycle_offset objective")):
    """Feasible timetable with all derived vectors kept consistent."""

    __slots__ = ()


def solution_from_timetable(inst, basis, pi):
    """Normalize a timetable at vertex 0 and derive tension, offsets and
    objective.  A timetable of another length than the vertex count
    raises ValueError."""
    _require_length(pi, inst.graph.n, "timetable", "vertices")
    timetable = normalize_timetable(pi, 0, inst.period)
    x, p = timetable_to_tension(inst, timetable)
    z = basis.apply(p)
    value = sum(w * v for w, v in zip(inst.weight, x))
    return Solution(timetable, x, p, z, value)


# Attempts of ``initial_solution``: the greedy tree, then random retries.
START_ATTEMPTS = 200


def initial_solution(inst, seed=0, basis=None):
    """Feasible starting point: pin the greedy spanning tree to its lower
    bounds, then retry with random trees of the graph's ``retry_trees``
    and random tree tensions.  Failure after ``START_ATTEMPTS`` attempts
    is a heuristic give-up, not an infeasibility proof."""
    g = inst.graph
    if basis is None:
        basis = default_basis(g)
    greedy = greedy_spanning_tree(g)  # raises DisconnectedGraph: no start exists then
    rng = random.Random(seed)
    for attempt in range(START_ATTEMPTS):
        chosen = greedy if attempt == 0 else rng.choice(g.retry_trees)
        x = list(inst.lower)
        if attempt % 2 == 1:
            for a in chosen:
                x[a] = rng.randint(inst.lower[a], inst.upper[a])
        pi = tree_potentials(g, chosen, x)
        try:
            return solution_from_timetable(inst, basis, pi)
        except Infeasible:
            continue
    raise RetriesExhausted(f"no feasible start found in {START_ATTEMPTS} attempts")


class OffsetMemo(BoxSearch):
    """The per-offset answers of one solve on one instance and basis, each
    computed on first use, kept and checked, and the search of its box, with
    the optima as leaves, charged to ``budget`` (None: a fresh ``Budget``).
    A basis that is not integral raises ValueError."""

    def __init__(self, inst, basis, budget=None):
        _require_integral(basis)
        super().__init__(inst, basis, budget, "offset search")
        self._bound = cycle_relaxation_bound(inst, basis)
        self._top = sum(max(w * l, w * u) for w, l, u in zip(inst.weight, inst.lower, inst.upper))
        self._solutions = {}
        self._steps = {}

    def bound(self, z):
        """The ``cycle_relaxation_bound`` of z or of a prefix of z, or None
        off the box, where z is empty; a box point or prefix it rules out
        breaks its contract and raises InvariantViolation, and a z longer
        than the basis raises ValueError."""
        if len(z) > self.basis.mu:
            raise ValueError(f"cycle offset has {len(z)} entries, the basis has {self.basis.mu} rows")
        lower = self._bound(z)
        if lower is None and all(self.box) and all(v in r for v, r in zip(z, self.box)):
            raise InvariantViolation(f"the cycle relaxation rules out {z}, a point of the box")
        return lower

    def bounded_steps(self, z):
        """The distinct ``polytropes.steps`` of z that the relaxation leaves
        open, as (bound, offset) pairs in ascending order."""
        found = self._steps.get(z)
        if found is None:
            bounded = ((self.bound(z2), z2) for z2 in steps(self.basis, z))
            found = tuple(sorted(pair for pair in bounded if pair[0] is not None))
            self._steps[z] = found
        return found

    def optimum(self, z, learned=None, relax=None):
        """The ``certified_optimum`` of z, or None when it is empty;
        ``learned`` is a bound from the cuts learned before its solve (None:
        unchecked), ``relax`` z's ``bound`` (None: taken here).  ``learn_cut``
        learns its cut, ``learn_row`` the row of an empty z's negative cycle;
        an optimum below either bound or its own cut raises InvariantViolation."""
        if z not in self.leaves:
            try:
                found = certified_optimum(self.inst, offset_for(self.inst, self.basis, z))
            except Infeasible as empty:
                found = None
                nonempty = (y for y, other in self.leaves.items() if other is not None)
                self.learn_row(z, empty.cycle, nonempty)
            if found is not None:
                own = self.learn_cut(z, *found.cut)
                cut = own if learned is None else max(own, learned)
                relax = self.bound(z) if relax is None else relax
                floors = (relax, "its cycle relaxation bound"), (cut, "the learned cut")
                for floor, name in floors:
                    if found.objective < floor:
                        raise InvariantViolation(
                            f"the optimum of {z} (objective {found.objective}) is "
                            f"below {name} {floor}"
                        )
            self.leaves[z] = found
        return self.leaves[z]

    def solution(self, z):
        """The Solution at the vertex of z's optimum, built on first use;
        one in another class or at another objective raises
        InvariantViolation."""
        sol = self._solutions.get(z)
        if sol is None:
            found = self.leaves[z]
            vertex = optimal_vertex(self.inst, found, self.budget).timetable
            sol = solution_from_timetable(self.inst, self.basis, vertex)
            if sol.cycle_offset != z or sol.objective != found.objective:
                raise InvariantViolation(
                    f"the optimum of {z} (objective {found.objective}) rebuilt into "
                    f"{sol.cycle_offset} (objective {sol.objective})"
                )
            self._solutions[z] = sol
        return sol

    def least_optimum(self, nodes, limit=None):
        """The (objective, z) least z with a nonempty polytrope and an
        objective of at most ``limit`` (None: any) among the box points that
        complete the (bound, prefix) ``nodes``, or None; the search above."""
        # above every (objective, z) within the limit; _top is the greatest w.x
        start = ((self._top if limit is None else limit) + 1, ())
        best = self.run(nodes, start, self.bound, self.optimum)
        return None if best is start else best[1]


def tns(inst, basis, start, max_iterations=100, memo=None):
    """Walk the offset neighbourhood from a feasible start, at most
    ``max_iterations`` moves (at least 1).  Each move goes to the
    (objective, z) least polytrope optimum among the steps of the current
    offset but the start's, if that optimum is below the current objective;
    the walk stops when none is.  The start's own polytrope is not
    optimized: the start solution is kept as given until a neighbour's
    optimum beats it, so a walk with no improving step returns the start,
    which can be worse than its class's optimum.  So its offset is the one
    a step must skip; every other offset the walk took has an optimum at or
    above the current objective, which no move can reach again.  Returns the
    best solution and the visit trace.  ``memo`` is an ``OffsetMemo`` of the
    same instance and basis to reuse (None: a fresh one on a fresh
    ``Budget``)."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if memo is None:
        memo = OffsetMemo(inst, basis)
    elif memo.inst is not inst or memo.basis is not basis:
        raise ValueError("the offset memo belongs to another instance or basis")
    current = start
    trace = [{"z": list(current.cycle_offset), "objective": current.objective, "move": "start"}]
    for _ in range(max_iterations):
        candidates = memo.bounded_steps(current.cycle_offset)
        candidates = [pair for pair in candidates if pair[1] != start.cycle_offset]
        z = memo.least_optimum(candidates, current.objective - 1)
        if z is None:
            break
        current = memo.solution(z)
        trace.append({"z": list(z), "objective": current.objective, "move": "best-improvement"})
    return current, tuple(trace)


def tns_restarts(inst, basis, restarts=1, max_iterations=100, seed=0, budget=None):
    """Best of ``restarts`` tns walks (at least 1), all sharing one
    ``OffsetMemo`` charged to ``budget`` (None: a fresh ``Budget``).  Walk k
    starts from ``initial_solution`` with seed ``seed + k`` and makes at
    most ``max_iterations`` moves.  Returns the solution and trace of the
    first walk that reaches the lowest objective; raises RetriesExhausted
    when no walk finds a start.  Both counts are checked before any start
    is drawn."""
    for name, count in (("restarts", restarts), ("max_iterations", max_iterations)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    memo = OffsetMemo(inst, basis, budget)
    best = None
    for attempt in range(restarts):
        try:
            start = initial_solution(inst, seed=seed + attempt, basis=basis)
        except RetriesExhausted:
            continue
        walk = tns(inst, basis, start, max_iterations, memo)
        if best is None or walk[0].objective < best[0].objective:
            best = walk
    if best is None:
        raise RetriesExhausted(f"all {restarts} restarts failed to find a feasible start")
    return best


def trace_to_jsonl(trace):
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in trace) + "\n"


class NeighbourhoodGraph(namedtuple("NeighbourhoodGraph", "nodes edges objective")):
    __slots__ = ()


def neighbourhood_graph(inst, basis, budget=None):
    """Undirected graph on the ``lattice_points``, one edge per basis
    column step, each node annotated with its exact polytrope optimum, as
    the memo's search with no limit solves them, charged to ``budget``."""
    memo = OffsetMemo(inst, basis, budget)

    def keep(z, lower, relax):
        memo.optimum(z, lower, relax)  # kept in memo.leaves, not handed back: no stop

    memo.run([(memo.bound(()), ())], (memo._top + 1, ()), memo.bound, keep)
    nodes = tuple(sorted(z for z, optimum in memo.leaves.items() if optimum is not None))
    objective = {z: memo.solution(z).objective for z in nodes}
    edges = {tuple(sorted((z, z2))) for z in nodes for z2 in steps(basis, z) if z2 in objective}
    return NeighbourhoodGraph(nodes, tuple(sorted(edges)), objective)
