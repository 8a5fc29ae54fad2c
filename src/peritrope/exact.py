"""Ground-truth solvers: optimize every polytrope that can win, or
exhaust timetables.

``solve_exact`` is exact but not exhaustive: the best-first search of
``search.OffsetMemo`` solves only the offsets that can still win, and
checks every answer it rests on.  ``brute_force_timetable`` is deliberate
brute force; it anchors the heuristic and the geometry, so it shares
nothing with the code it checks beyond the basic instance plumbing.
"""

import itertools

from .errors import EnumerationCapExceeded, Infeasible
from .graphs import default_basis
from .polytropes import timetable_to_tension
from .search import OffsetMemo, solution_from_timetable


def solve_exact(inst, basis=None, budget=None):
    """Global optimum over the nonempty polytropes; ties break toward the
    smaller cycle offset.  ``OffsetMemo.least_optimum`` searches the box from
    its root prefix (), charged to ``budget`` (None: a fresh ``Budget``); one
    that runs out in the optimal face leaves the gap closed at the optimum."""
    if basis is None:
        basis = default_basis(inst.graph)
    memo = OffsetMemo(inst, basis, budget)
    z = memo.least_optimum([(memo.bound(()), ())])
    if z is None:
        raise Infeasible("no feasible cycle offset: the zonotope holds no lattice point")
    try:
        return memo.solution(z)
    except EnumerationCapExceeded as stop:
        stop.gap = (memo.leaves[z].objective,) * 2
        raise


def brute_force_timetable(inst, basis=None, max_vertices=5, max_period=30):
    """Global optimum by scanning every timetable with the first vertex
    pinned to 0 and taking per-arc minimal tensions."""
    g = inst.graph
    T = inst.period
    if g.n > max_vertices or T > max_period:
        raise EnumerationCapExceeded(
            f"grid oracle capped at {max_vertices} vertices and period {max_period}"
        )
    if basis is None:
        basis = default_basis(g)
    best = None
    best_key = None
    for tail in itertools.product(range(T), repeat=g.n - 1):
        pi = (0,) + tail
        try:
            x, _ = timetable_to_tension(inst, pi)
        except Infeasible:
            continue
        value = sum(w * v for w, v in zip(inst.weight, x))
        key = (value, pi)
        if best_key is None or key < best_key:
            best_key = key
            best = pi
    if best is None:
        raise Infeasible("no feasible timetable on the grid")
    return solution_from_timetable(inst, basis, best)


def verify_solution(inst, basis, sol):
    """Check the Solution invariants; returns a list of violation texts."""
    problems = []
    g = inst.graph
    T = inst.period
    for a, (i, j) in enumerate(g.arc_index_pairs):
        x = sol.tension[a]
        if not inst.lower[a] <= x <= inst.upper[a]:
            problems.append(f"arc {a}: tension {x} outside bounds")
        recon = sol.timetable[j] - sol.timetable[i] + T * sol.periodic_offset[a]
        if recon != x:
            problems.append(f"arc {a}: tension {x} inconsistent with timetable ({recon})")
    z = tuple(
        sum(row[a] * sol.periodic_offset[a] for a in range(g.m)) for row in basis.gamma
    )
    if z != sol.cycle_offset:
        problems.append(f"cycle offset {sol.cycle_offset} but offsets map to {z}")
    value = sum(w * v for w, v in zip(inst.weight, sol.tension))
    if value != sol.objective:
        problems.append(f"objective {sol.objective} but tension costs {value}")
    return problems

