"""Shared fixtures: the two worked instances and random instance factories."""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import peritrope
from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    DisconnectedGraph,
    EnumerationCapExceeded,
    FixedOffsetResult,
    Infeasible,
    PespInstance,
    RetriesExhausted,
    SpanningTreeStructure,
    cycle_relaxation_bound,
    default_basis,
    fundamental_cycle_basis,
    initial_solution,
    minimize_over_polytrope,
    neighbors,
    normalize_timetable,
    offset_for,
    polytrope_nonempty,
    solution_from_timetable,
    spanning_trees,
)
from peritrope.cli import cmd_analyze, cmd_polytropes, cmd_render, cmd_solve, cmd_tile
from peritrope.graphs import (
    DEFAULT_WORK,
    _inverse_frame,
    count_spanning_trees_determinant,
    greedy_forest,
    tree_potentials,
    tree_walk,
)
from peritrope.polytropes import (
    kappa,
    polytrope_build,
    tropical_vertices,
)
from peritrope.zonotopes import (
    DualityEntry,
    DualityReport,
    Tile,
    TileKernel,
    TilingReport,
    WidthBoundReport,
    _frame_contains,
    _integer_ranges,
    _pinned_tensions,
    _scaled_columns,
    fine_tiling,
    odijk_box,
    scaled_point_in_zonotope,
    volume,
    width,
)


# The references' own caps: box points scanned, and trees or arborescences listed.
BOX_CAP = 10_000
TREE_CAP = 100_000


def triangle_graph():
    return Digraph(("v0", "v1", "v2"), (("v0", "v1"), ("v0", "v2"), ("v1", "v2")))


def triangle_instance(weights=(1, 1, 1)):
    return PespInstance(triangle_graph(), 10, (3, 2, 4), (12, 10, 13), weights)


def square_graph():
    return Digraph(
        ("v0", "v1", "v2", "v3"),
        (("v1", "v0"), ("v1", "v2"), ("v3", "v2"), ("v3", "v0"), ("v0", "v1"), ("v2", "v3")),
    )


def square_instance():
    return PespInstance(
        square_graph(), 10, (3, 3, 3, 3, 6, 4), (12, 12, 12, 12, 15, 13), (1,) * 6
    )


def square_basis(g=None):
    """The planar-region basis: rows through arcs 4, 1, 5 in that order."""
    if g is None:
        g = square_graph()
    return fundamental_cycle_basis(g, (0, 2, 3)).permuted((1, 0, 2))


def run_cli(args):
    """Run ``python -m peritrope.cli`` in a subprocess on the package source
    that the tests import, whatever the caller's PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(peritrope.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "peritrope.cli", *args],
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def _at_least(least):
    """An argparse type: an integer of at least ``least``."""

    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


def _common_flags(parser, root=False, json=False):
    parser.add_argument("instance", help="instance file in the native text format")
    parser.add_argument(
        "--basis-tree",
        default="auto",
        metavar="ARCS",
        help="comma-separated arc indices of the basis tree, or 'auto'",
    )
    if root:
        parser.add_argument("--root", default=None, help="root vertex id")
    parser.add_argument(
        "--cap-work",
        type=_at_least(0),
        default=DEFAULT_WORK,
        metavar="N",
        help="stop after N units of enumeration work",
    )
    if json:
        parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", default=None, metavar="FILE", help="write output here")


def argparse_reference():
    """The argparse parser that ``cli._parse_argv`` replaced, kept as the
    reference its table must read every argv as."""
    parser = argparse.ArgumentParser(
        prog="peritrope",
        description="periodic timetabling through polytropes and offset zonotopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find an optimal or heuristic timetable")
    _common_flags(p_solve)
    p_solve.add_argument("--method", choices=("tns", "exact"), default="exact")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--max-iter", type=_at_least(1), default=100)
    p_solve.add_argument("--restarts", type=_at_least(1), default=1)
    p_solve.add_argument("--trace", default=None, metavar="FILE", help="tns trace (JSON lines)")
    p_solve.set_defaults(func=cmd_solve)

    p_analyze = sub.add_parser("analyze", help="zonotope report: volume, width, tiling, bounds")
    _common_flags(p_analyze, root=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_poly = sub.add_parser("polytropes", help="enumerate nonempty offset classes")
    _common_flags(p_poly, json=True)
    p_poly.set_defaults(func=cmd_polytropes)

    p_tile = sub.add_parser("tile", help="spanning tree tiling with validation and duality")
    _common_flags(p_tile, root=True)
    p_tile.set_defaults(func=cmd_tile)

    p_render = sub.add_parser("render", help="SVG picture of the torus or the zonotope")
    _common_flags(p_render, root=True)
    p_render.add_argument("--what", choices=("torus", "zonotope"), default="torus")
    p_render.set_defaults(func=cmd_render)
    return parser


def random_connected_digraph(rng, max_vertices=5, max_arcs=8):
    n = rng.randint(2, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    arcs = []
    for j in range(1, n):
        i = rng.randrange(j)
        arcs.append((vertices[i], vertices[j]) if rng.random() < 0.5 else (vertices[j], vertices[i]))
    extra = rng.randint(0, max(max_arcs - len(arcs), 0))
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        arcs.append((vertices[i], vertices[j]))
    return Digraph(vertices, tuple(arcs))


def random_instance(rng, max_vertices=5, max_arcs=8, max_period=12, min_span=1):
    g = random_connected_digraph(rng, max_vertices, max_arcs)
    T = rng.randint(4, max_period)
    lower, upper, weight = [], [], []
    for _ in range(g.m):
        lo = rng.randint(0, T - 1)
        span = rng.randint(min_span, T - 1)
        lower.append(lo)
        upper.append(lo + span)
        weight.append(rng.randint(0, 5))
    return PespInstance(g, T, tuple(lower), tuple(upper), tuple(weight))


def random_bases(rng, g):
    """A fundamental basis of a random tree, a row permutation of it, the
    unimodular non-fundamental basis with row 0 added to row 1, and the
    rational basis {c0 + c1, c0 - c1, ...}.  g needs mu >= 2."""
    basis = fundamental_cycle_basis(g, rng.choice(spanning_trees(g)))
    order = list(range(basis.mu))
    rng.shuffle(order)
    c0, c1, *rest = basis.gamma
    plus = [x + y for x, y in zip(c0, c1)]
    minus = [x - y for x, y in zip(c0, c1)]
    return (
        basis,
        basis.permuted(tuple(order)),
        CycleBasis((c0, plus, *rest)),
        CycleBasis((plus, minus, *rest)),
    )


def seeded_instances(count, base_seed=0, **kwargs):
    for k in range(count):
        yield random_instance(random.Random(base_seed + k), **kwargs)


def random_corpus(count):
    """The first ``count`` instances of seeds 9000, 9001, ... with at most
    120 spanning trees and width at most 400 under the default basis, as
    (inst, basis, trees, rng) with the rng each instance was drawn from."""
    accepted = []
    seed = 0
    while len(accepted) < count:
        rng = random.Random(9000 + seed)
        seed += 1
        inst = random_instance(rng, max_vertices=5, max_arcs=8, max_period=12)
        basis = default_basis(inst.graph)
        trees = spanning_trees(inst.graph)
        if len(trees) > 120 or width(inst, basis) > 400:
            continue
        accepted.append((inst, basis, trees, rng))
    return accepted


def varied_instance(rng, max_vertices=6, max_arcs=9, max_period=10):
    """A random instance with about one arc in six fixed (zero span) and,
    in about three instances of ten, signed weights."""
    inst = random_instance(rng, max_vertices, max_arcs, max_period)
    upper = tuple(l if rng.random() < 0.15 else u for l, u in zip(inst.lower, inst.upper))
    weight = inst.weight
    if rng.random() < 0.3:
        weight = tuple(rng.randint(-5, 5) for _ in weight)
    return inst._replace(upper=upper, weight=weight)


def box_points(inst, basis, cap=BOX_CAP):
    """The integer points of the box, an iterable in sorted order, without
    a feasibility test; raises EnumerationCapExceeded, before any point,
    when there are more than ``cap`` of them.  An empty basis has the one
    point (), uncapped."""
    if basis.mu == 0:
        return ((),)
    ranges = _integer_ranges(odijk_box(inst, basis), inst.period)
    count = math.prod(len(r) for r in ranges)
    if count > cap:
        raise EnumerationCapExceeded(f"box holds {count} integer points, cap is {cap}")
    return itertools.product(*ranges)


def in_polytrope(poly, pi):
    """Does timetable ``pi`` satisfy every canonical inequality
    pi_j - pi_i <= dist(i, j) of the nonempty class ``poly``?"""
    return all(pi[j] - pi[i] <= d for i, row in enumerate(poly.dist) for j, d in enumerate(row))


def lattice_points_by_box_scan(inst, basis, cap=BOX_CAP):
    """Reference for ``zonotopes.lattice_points``: ``polytrope_nonempty``
    of its offset, one Bellman-Ford, for every ``box_points`` point."""
    points = box_points(inst, basis, cap)
    return tuple(z for z in points if polytrope_nonempty(inst, offset_for(inst, basis, z)))


def solve_exact_by_full_scan(inst, basis=None, width_cap=BOX_CAP):
    """Reference for solve_exact: optimize the polytrope of every lattice
    point and keep the (objective, z) minimum."""
    if basis is None:
        basis = default_basis(inst.graph)
    points = lattice_points_by_box_scan(inst, basis, cap=width_cap)
    if not points:
        raise Infeasible("no feasible cycle offset: the zonotope holds no lattice point")
    results = [minimize_over_polytrope(inst, offset_for(inst, basis, z)) for z in points]
    _, best = min(zip(points, results), key=lambda zr: (zr[1].objective, zr[0]))
    return solution_from_timetable(inst, basis, best.timetable)


def solve_exact_by_box_scan(inst, basis=None, width_cap=BOX_CAP):
    """Reference for solve_exact's bounded order: Bellman-Ford on every box
    point (``lattice_points_by_box_scan``), then optimize the nonempty ones in
    ascending (bound, z) order until a bound exceeds the best objective."""
    if basis is None:
        basis = default_basis(inst.graph)
    points = lattice_points_by_box_scan(inst, basis, cap=width_cap)
    if not points:
        raise Infeasible("no feasible cycle offset: the zonotope holds no lattice point")
    bound = cycle_relaxation_bound(inst, basis)
    best_z = best = None
    for lower, z in sorted((bound(z), z) for z in points):
        if best is not None and lower > best.objective:
            break
        result = minimize_over_polytrope(inst, offset_for(inst, basis, z))
        if best is None or (result.objective, z) < (best.objective, best_z):
            best_z, best = z, result
    return solution_from_timetable(inst, basis, best.timetable)


def tns_by_eager_steps(inst, basis, start, max_iterations):
    """Reference for tns: each step tests every neighbour with Bellman-Ford
    (``neighbors``), optimizes every nonempty unvisited one, and takes the
    (objective, z) least among those below the current objective."""
    current = start
    trace = [{"z": list(current.cycle_offset), "objective": current.objective, "move": "start"}]
    visited = {current.cycle_offset}
    for _ in range(max_iterations):
        candidates = [z for z in neighbors(inst, basis, current.cycle_offset) if z not in visited]
        optima = {z: minimize_over_polytrope(inst, offset_for(inst, basis, z)) for z in candidates}
        moves = sorted(
            (res.objective, z) for z, res in optima.items() if res.objective < current.objective
        )
        if not moves:
            break
        z = moves[0][1]
        current = solution_from_timetable(inst, basis, optima[z].timetable)
        visited.add(z)
        trace.append({"z": list(z), "objective": current.objective, "move": "best-improvement"})
    return current, tuple(trace)


def tns_restarts_by_eager_steps(inst, basis, restarts, max_iterations, seed):
    """Reference for tns_restarts: ``tns_by_eager_steps`` from every start,
    nothing shared between the walks."""
    best = None
    for k in range(restarts):
        try:
            start = initial_solution(inst, seed=seed + k, basis=basis)
        except RetriesExhausted:
            continue
        walk = tns_by_eager_steps(inst, basis, start, max_iterations)
        if best is None or walk[0].objective < best[0].objective:
            best = walk
    if best is None:
        raise RetriesExhausted(f"all {restarts} restarts failed to find a feasible start")
    return best


def count_polytrope_solves(monkeypatch, module):
    """Patch the two steps of a polytrope solve in ``module`` to record
    offsets: of each ``certified_optimum`` call, in the first list when it
    returns an optimum and in the second when it raises Infeasible (an
    empty polytrope); of each ``optimal_vertex`` call (a vertex build), in
    the third.  Returns the three lists."""
    honest, build = module.certified_optimum, module.optimal_vertex
    solves, empties, vertices = [], [], []

    def optimum(*args, **kwargs):
        try:
            result = honest(*args, **kwargs)
        except Infeasible:
            empties.append(args[1])
            raise
        solves.append(args[1])
        return result

    def vertex(inst, found, *budget):
        vertices.append(found.offset)
        return build(inst, found, *budget)

    monkeypatch.setattr(module, "certified_optimum", optimum)
    monkeypatch.setattr(module, "optimal_vertex", vertex)
    return solves, empties, vertices


def objective_floor(inst):
    """An integer below the objective of every tension of the instance."""
    return -sum(
        abs(w) * max(abs(l), abs(u)) for w, l, u in zip(inst.weight, inst.lower, inst.upper)
    ) - 1


def drop_learned_cuts(monkeypatch):
    """Patch ``search.certified_optimum`` to hand on each optimum with a
    flat cut at ``objective_floor``: the search learns nothing from its
    flows, which replays the pruning of the relaxation bound alone."""
    honest = peritrope.search.certified_optimum

    def cut_free(inst, p, *args, **kwargs):
        found = honest(inst, p, *args, **kwargs)
        return found._replace(cut=(objective_floor(inst), (0,) * inst.graph.m))

    monkeypatch.setattr(peritrope.search, "certified_optimum", cut_free)


def drop_learned_rows(monkeypatch):
    """Patch ``OffsetMemo.learn_row`` to learn, in place of the Odijk row
    of each empty offset's negative cycle, the row ty = 0 with 0 <= ty.z <=
    0, which rules out no offset: the search prunes by the relaxation bound
    and the learned cuts alone."""

    def inert(memo, z, gamma):
        zeros = [0] * (len(memo.box) + 1)  # ty, and its least and greatest sums
        memo.forms.append((zeros[1:], zeros, zeros, 0, 0, None))

    monkeypatch.setattr(peritrope.search.OffsetMemo, "learn_row", inert)


def check_certificate(inst, p, found, objective=None):
    """Problems with the certificate of a ``certified_optimum`` result
    ``found`` at offset p, or [] when it proves its objective optimal.
    Shares no solver code: the doubled graph, the supplies and the dual
    value are written out again from the instance.  The flow must be
    nonnegative, balance the supplies and be tight on its support, the
    potentials feasible, and the primal value of the potentials and the
    flow's dual value both equal the objective.  The cut must be the
    flow's dual value at every offset: both are affine in the offset, so
    they are compared at p and at p plus each unit vector."""
    g = inst.graph
    T, m = inst.period, g.m
    obj = inst.weight if objective is None else tuple(objective)
    pairs = g.arc_index_pairs
    phi, flow = found.potentials, found.flow
    problems = []
    if tuple(found.offset) != tuple(p):
        problems.append(f"offset {found.offset}, not {p}")
    if len(flow) != 2 * m or len(phi) != g.n:
        return problems + ["the flow or the potentials have the wrong length"]

    def edges(q):
        forward = [(i, j, inst.upper[a] - T * q[a]) for a, (i, j) in enumerate(pairs)]
        return forward + [(j, i, T * q[a] - inst.lower[a]) for a, (i, j) in enumerate(pairs)]

    def dual(q):
        return T * sum(w * v for w, v in zip(obj, q)) - sum(
            f * c for f, (_, _, c) in zip(flow, edges(q))
        )

    net = [0] * g.n
    for a, (i, j) in enumerate(pairs):
        net[j] -= obj[a]
        net[i] += obj[a]
    for k, ((t, h, c), f) in enumerate(zip(edges(p), flow)):
        slack = c + phi[t] - phi[h]
        if f < 0:
            problems.append(f"edge {k} carries negative flow {f}")
        if slack < 0:
            problems.append(f"edge {k} has negative reduced cost {slack}")
        if f and slack:
            problems.append(f"edge {k} carries flow {f} at reduced cost {slack}")
        net[t] += f
        net[h] -= f
    problems += [f"vertex {v} is off balance by {e}" for v, e in enumerate(net) if e]
    primal = sum(w * (phi[j] - phi[i] + T * q) for w, q, (i, j) in zip(obj, p, pairs))
    if primal != found.objective or dual(p) != found.objective:
        problems.append(f"primal {primal} and dual {dual(p)} against objective {found.objective}")
    const, slope = found.cut
    units = [tuple(v + (a == b) for b, v in enumerate(p)) for a in range(m)]
    for q in [tuple(p)] + units:
        if const + T * sum(s * v for s, v in zip(slope, q)) != dual(q):
            problems.append(f"the cut is not the flow's dual value at {q}")
    return problems


def check_empty_certificate(inst, p, gamma):
    """Problems with ``gamma`` as the proof that the polytrope of offset p
    is empty, or [] when it proves it.  Shares no solver code: gamma must
    be an oriented cycle (entries +-1 or 0, net incidence 0 at every
    vertex) whose periodic tension T gamma.p misses its Odijk range, the
    least and greatest gamma.x over the arc bounds, recomputed here; then
    every tension at offset p breaks gamma.x = T gamma.p."""
    m, T = inst.graph.m, inst.period
    if len(gamma) != m or not set(gamma) <= {-1, 0, 1}:
        return [f"{gamma} is not a vector of m = {m} entries in -1, 0, +1"]
    net = [0] * inst.graph.n
    lo = hi = tension = 0
    for g, (i, j), l, u, q in zip(gamma, inst.graph.arc_index_pairs, inst.lower, inst.upper, p):
        net[i] -= g
        net[j] += g
        lo += l if g > 0 else -u if g < 0 else 0
        hi += u if g > 0 else -l if g < 0 else 0
        tension += T * g * q
    problems = [f"vertex {v} has net incidence {e}" for v, e in enumerate(net) if e]
    if lo <= tension <= hi:
        problems.append(f"T gamma.p = {tension} lies in the Odijk range [{lo}, {hi}]")
    return problems


def count_bellman_ford(monkeypatch):
    """Patch ``polytropes._potentials``, the one Bellman-Ford kernel, in
    every ``peritrope`` module that holds it, to record the vertex count
    and the source (None: the virtual one) of each run.  Returns the list
    of runs."""
    honest = peritrope.polytropes._potentials
    runs = []

    def counting(n, edges, source=None, parent=None):
        runs.append((n, source))
        return honest(n, edges, source, parent)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "peritrope" and getattr(module, "_potentials", None) is honest:
            monkeypatch.setattr(module, "_potentials", counting)
    return runs


def cycle_relaxation_bound_by_fractions(inst, basis):
    """Reference for ``fixedlp.cycle_relaxation_bound``: each row's moves
    sorted by ``Fraction`` keys, and every row's greedy knapsack run afresh
    on every call."""
    start = [l if w >= 0 else u for w, l, u in zip(inst.weight, inst.lower, inst.upper)]
    base = sum(w * x for w, x in zip(inst.weight, start))
    T = inst.period

    def bound(z):
        best = base
        for row, zk in zip(basis.gamma, z):
            r = T * zk - sum(g * x for g, x in zip(row, start))
            moves = sorted(
                (
                    (abs(w), abs(g), s)
                    for w, g, s in zip(inst.weight, row, inst.span)
                    if g and s and ((g > 0) == (w >= 0)) == (r >= 0)
                ),
                key=lambda move: Fraction(move[0], move[1]),
            )
            r = abs(r)
            cost = Fraction(0)
            for w, g, s in moves:
                step = min(r, g * s)
                cost += Fraction(w * step, g)
                r -= step
            if r:
                return None
            best = max(best, base + math.ceil(cost))
        return best

    return bound


def shortest_path_matrix(n, edges):
    """Reference for the rows of ``polytropes._potentials`` from a source:
    all-pairs shortest path lengths by Floyd-Warshall, in integers, or
    None when the edges hold a negative cycle.  An entry with no path
    stays None."""
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for i, j, w in edges:
        if dist[i][j] is None or w < dist[i][j]:
            dist[i][j] = w
    for k in range(n):
        row_k = dist[k]
        for row in dist:
            d_ik = row[k]
            if d_ik is None:
                continue
            for j, d_kj in enumerate(row_k):
                if d_kj is not None and (row[j] is None or d_ik + d_kj < row[j]):
                    row[j] = d_ik + d_kj
    if any(dist[i][i] < 0 for i in range(n)):
        return None
    return tuple(tuple(row) for row in dist)


def enumerate_fixed_offset(inst, p, objective=None):
    """Reference for minimize_over_polytrope: walk every spanning tree
    structure (tree arcs pinned to a bound, the rest propagated), all
    trees times 2^(n-1) bound patterns, and keep the optimal vertex with the
    lexicographically smallest normalized timetable."""
    if not polytrope_nonempty(inst, p):
        raise Infeasible("polytrope is empty for this periodic offset")
    g = inst.graph
    T = inst.period
    obj = inst.weight if objective is None else tuple(objective)
    best = None
    best_key = None
    for tree in spanning_trees(g):
        adj = [[] for _ in range(g.n)]
        for a in tree:
            i, j = g.arc_index_pairs[a]
            adj[i].append((j, a, +1))
            adj[j].append((i, a, -1))
        for mask in range(1 << len(tree)):
            x = [None] * g.m
            for k, a in enumerate(tree):
                x[a] = inst.upper[a] if mask >> k & 1 else inst.lower[a]
            pi = [None] * g.n
            pi[0] = 0
            stack = [0]
            while stack:
                v = stack.pop()
                for w, a, s in adj[v]:
                    if pi[w] is None:
                        pi[w] = pi[v] + s * (x[a] - T * p[a])
                        stack.append(w)
            for a, (i, j) in enumerate(g.arc_index_pairs):
                if x[a] is None:
                    x[a] = pi[j] - pi[i] + T * p[a]
            if not all(lo <= v <= hi for lo, v, hi in zip(inst.lower, x, inst.upper)):
                continue
            value = sum(c * v for c, v in zip(obj, x))
            key = (value, normalize_timetable(pi, 0, T))
            if best_key is None or key < best_key:
                best_key = key
                best = FixedOffsetResult(key[1], tuple(x), value)
    return best


def minimize_by_bellman_ford_flow(inst, p, objective=None):
    """Reference for minimize_over_polytrope: the min-cost flow by one
    Bellman-Ford per augmentation, the optimal face's equality classes
    read off its Floyd-Warshall distance matrix, and the face's vertices
    enumerated over those classes, with the same tie-break."""
    if not polytrope_nonempty(inst, p):
        raise Infeasible("polytrope is empty for this periodic offset")
    g = inst.graph
    T = inst.period
    obj = inst.weight if objective is None else tuple(objective)
    edges = kappa(inst, p)
    supply = [0] * g.n
    for w, (i, j) in zip(obj, g.arc_index_pairs):
        supply[j] += w
        supply[i] -= w
    flow = _bellman_ford_flow(g.n, edges, supply)
    face = edges + [(h, t, -c) for (t, h, c), f in zip(edges, flow) if f]
    vertices = _face_vertices_by_distances(inst, p, shortest_path_matrix(g.n, face))
    pi = min(vertices, key=lambda v: normalize_timetable(v, 0, T))
    x = tuple(pi[j] - pi[i] + T * p[a] for a, (i, j) in enumerate(g.arc_index_pairs))
    return FixedOffsetResult(
        normalize_timetable(pi, 0, T), x, sum(c * v for c, v in zip(obj, x))
    )


def tight_structure(inst, x):
    """A spanning tree structure of the tension ``x``: a greedy spanning
    tree among the arcs sitting at a bound, each on the side it sits at,
    or None if those arcs do not span (x is off every vertex)."""
    g = inst.graph
    tight = [
        (a, i, j)
        for a, (i, j) in enumerate(g.arc_index_pairs)
        if x[a] in (inst.lower[a], inst.upper[a])
    ]
    tree = greedy_forest(g.n, tight)
    if len(tree) != g.n - 1:
        return None
    at_lower = frozenset(a for a in tree if x[a] == inst.lower[a])
    return SpanningTreeStructure(tuple(tree), at_lower, frozenset(tree) - at_lower)


def _bellman_ford_flow(n, edges, supply):
    """Uncapacitated min-cost flow on strongly connected ``edges`` without
    a negative cycle: each round runs Bellman-Ford on the residual graph
    from every vertex with excess and augments along a shortest path to
    the first vertex in deficit."""
    flow = [0] * len(edges)
    excess = list(supply)
    while any(e > 0 for e in excess):
        residual = [(t, h, c, k, 1) for k, (t, h, c) in enumerate(edges)]
        residual += [(h, t, -c, k, -1) for k, (t, h, c) in enumerate(edges) if flow[k]]
        dist = [0 if e > 0 else None for e in excess]
        pred = [None] * n
        for _ in range(n - 1):
            changed = False
            for arc in residual:
                t, h, c = arc[0], arc[1], arc[2]
                if dist[t] is not None and (dist[h] is None or dist[t] + c < dist[h]):
                    dist[h] = dist[t] + c
                    pred[h] = arc
                    changed = True
            if not changed:
                break
        sink = next(v for v in range(n) if excess[v] < 0)
        path = []
        source = sink
        while pred[source] is not None:
            path.append(pred[source])
            source = pred[source][0]
        amount = min(
            [excess[source], -excess[sink]] + [flow[k] for _, _, _, k, s in path if s < 0]
        )
        for _, _, _, k, s in path:
            flow[k] += s * amount
        excess[source] -= amount
        excess[sink] += amount
    return flow


def equality_classes(dist):
    """For each vertex, the smallest vertex tied to it by a zero cycle
    (dist[u][v] + dist[v][u] == 0) in the distance matrix ``dist``: the
    reference for the class kernel ``polytropes._face_classes``."""
    n = len(dist)
    return tuple(
        next(u for u in range(v + 1) if dist[u][v] + dist[v][u] == 0) for v in range(n)
    )


def _face_vertices_by_distances(inst, p, dist):
    """Timetables at the vertices of the face with distance matrix
    ``dist``: spanning tree structures on the quotient graph of its
    equality classes, each vertex at its class offset dist[rep][v]."""
    g = inst.graph
    T = inst.period
    rep = equality_classes(dist)
    reps = sorted(set(rep))
    cls = [reps.index(r) for r in rep]
    delta = [dist[r][v] for v, r in enumerate(rep)]
    if len(reps) == 1:
        yield tuple(delta)
        return
    arcs, lower, upper = [], [], []
    for a, (i, j) in enumerate(g.arc_index_pairs):
        if cls[i] != cls[j]:
            shift = T * p[a] + delta[j] - delta[i]
            arcs.append((cls[i], cls[j]))
            lower.append(inst.lower[a] - shift)
            upper.append(inst.upper[a] - shift)
    q = Digraph(tuple(range(len(reps))), tuple(arcs))
    for tree in spanning_trees(q, Budget(TREE_CAP)):
        for mask in range(1 << len(tree)):
            pinned = [None] * q.m
            for k, b in enumerate(tree):
                pinned[b] = upper[b] if mask >> k & 1 else lower[b]
            P = tree_potentials(q, tree, pinned)
            if all(lo <= P[h] - P[t] <= hi for (t, h), lo, hi in zip(arcs, lower, upper)):
                yield tuple(P[c] + d for c, d in zip(cls, delta))


def duality_check_by_polytropes(inst, basis, root=None, tiles=None):
    """Reference for ``zonotopes.duality_check``: per tile holding a lattice
    point, the whole polytrope of its offset class (Bellman-Ford,
    Floyd-Warshall, equality classes), whose distance matrix gives the
    root's tropical vertex."""
    g = inst.graph
    T = inst.period
    ridx = 0 if root is None else g.vertices.index(root)
    if tiles is None:
        tiles = fine_tiling(inst, basis, root)
    entries = []
    for t, tile in enumerate(tiles):
        z = tile.lattice_point
        if z is None:
            continue
        p = offset_for(inst, basis, z)
        s = tile.structure
        x = [inst.upper[a] if a in s.at_upper else inst.lower[a] for a in range(g.m)]
        pi = tree_potentials(g, s.tree, [v - T * q for v, q in zip(x, p)], ridx)
        feasible = True
        for a, (i, j) in enumerate(g.arc_index_pairs):
            if a not in s.tree:
                x[a] = pi[j] - pi[i] + T * p[a]
            if not inst.lower[a] <= x[a] <= inst.upper[a]:
                feasible = False
        timetable = tuple(v - pi[ridx] for v in pi)
        poly = polytrope_build(inst, basis, p)
        matches = poly.nonempty and timetable == tropical_vertices(poly, g.vertices[ridx])[ridx]
        entries.append(DualityEntry(t, z, tuple(x), timetable, feasible, matches))
    return DualityReport(tuple(entries))


def spanning_trees_by_subsets(g):
    """Reference for ``spanning_trees``: every (n - 1)-subset of the arcs,
    in sorted order, that a union-find takes without closing a cycle."""
    pairs = g.arc_index_pairs
    trees = []
    for subset in itertools.combinations(range(g.m), g.n - 1):
        parent = list(range(g.n))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for a in subset:
            i, j = root(pairs[a][0]), root(pairs[a][1])
            if i == j:
                break
            parent[i] = j
        else:
            trees.append(subset)
    return tuple(trees)


def spanning_trees_by_contraction(g, cap=TREE_CAP):
    """Reference for ``spanning_trees``: the contraction-deletion
    recursion, which takes the first arc into the tree (contracting it)
    and then leaves it out when a union-find finds the rest still
    connected.  Same DisconnectedGraph check first, same cap and message."""
    if not g.is_connected():
        raise DisconnectedGraph(f"graph on {g.n} vertices with {g.m} arcs is not connected")
    found = []

    def recurse(edge_list, labels, chosen):
        if len(labels) == 1:
            found.append(tuple(sorted(chosen)))
            if len(found) > cap:
                raise EnumerationCapExceeded(f"more than {cap} spanning trees")
            return
        if not edge_list:
            return
        aid, x, y = edge_list[0]
        rest = edge_list[1:]
        contracted = []
        for bid, p, q in rest:
            p2 = x if p == y else p
            q2 = x if q == y else q
            if p2 != q2:
                contracted.append((bid, p2, q2))
        chosen.append(aid)
        recurse(contracted, labels - {y}, chosen)
        chosen.pop()
        if len(greedy_forest(g.n, rest)) == len(labels) - 1:
            recurse(rest, labels, chosen)

    edges = [(a, i, j) for a, (i, j) in enumerate(g.arc_index_pairs)]
    recurse(edges, frozenset(range(g.n)), [])
    return tuple(sorted(found))


def fine_tiling_by_tree_walks(inst, basis, root=None):
    """Reference for ``fine_tiling``: every tree of
    ``spanning_trees_by_contraction`` walked from the root once, each arc
    pinned at its upper bound when the walk runs it forward and at its
    lower bound when backward, with the potentials of those pinned
    tensions folded along the same walk."""
    g = inst.graph
    ridx = 0 if root is None else g.vertices.index(root)
    kernel = TileKernel(inst, basis)
    tiles = []
    for tree in spanning_trees_by_contraction(g):
        pi, at_lower, at_upper = [0] * g.n, [], []
        for v, w, a, s in tree_walk(g, tree, ridx):
            if s > 0:
                at_upper.append(a)
                pi[w] = pi[v] + inst.upper[a]
            else:
                at_lower.append(a)
                pi[w] = pi[v] - inst.lower[a]
        structure = SpanningTreeStructure(tree, at_lower, at_upper)
        entry = kernel.cotrees[structure.tree]
        translation = kernel.translations[structure.at_upper]
        points = kernel.points(entry, pi)
        tiles.append(Tile(structure, entry[1], translation, min(points, default=None)))
    return tuple(tiles)


def volume_by_minor_sum(inst, basis):
    """Reference for ``zonotopes.volume``: the absolute mu x mu minors of the
    span-scaled basis matrix summed over every column subset, divided by
    the period power.  Valid for any cycle basis, integral or not."""
    mu = basis.mu
    span = inst.span
    total = 0
    for subset in itertools.combinations(range(inst.graph.m), mu):
        mat = [[row[a] * span[a] for a in subset] for row in basis.gamma]
        total += abs(_bareiss_det(mat))
    return Fraction(total, inst.period**mu)


def volume_by_tree_sum(inst):
    """Reference for ``zonotopes.volume`` under an integral basis: the
    co-tree span products summed over all spanning trees."""
    T = inst.period
    total = Fraction(0)
    for tree in spanning_trees(inst.graph):
        term = Fraction(1)
        for a in set(range(inst.graph.m)).difference(tree):
            term *= Fraction(inst.span[a], T)
        total += term
    return total


def width_bound_by_fractions(inst, basis):
    """Reference for ``zonotopes.width_bound_report``: the bound chain by
    its Fraction formulas, each slack s_k / T a Fraction and every product
    and quotient taken in Fractions, from the dense cycle-matrix rows, a
    fresh copy of the graph for the tree count, and ``odijk_box``."""
    T, mu, span = inst.period, basis.mu, inst.span
    w = width(inst, basis)
    g = inst.graph
    trees = count_spanning_trees_determinant(Digraph(g.vertices, g.arcs))
    eps = min(span) if span else 0
    vol = volume(inst, basis)
    slacks = tuple(
        Fraction(sum(span[a] for a, x in enumerate(row) if x), T) for row in basis.gamma
    )
    lengths = tuple(sum(1 for x in row if x) for row in basis.gamma)
    lower = trees * Fraction(eps, T) ** mu if mu else Fraction(trees)
    slack_product = math.prod(slacks, start=Fraction(1))
    bad = tuple(
        (k, Fraction(lo, T), Fraction(hi, T))
        for k, (lo, hi) in enumerate(odijk_box(inst, basis))
        if -(-lo // T) > hi // T
    )
    refined = coarse = Fraction(0)
    chain = strict_vacuous = False
    if w:
        refined = w * math.prod((s / max(math.floor(s), 1) for s in slacks), start=Fraction(1))
        coarse = Fraction(w * 2**mu)
        strict_vacuous = mu == 0
        chain = lower <= vol <= slack_product <= refined and (
            refined <= coarse if strict_vacuous else refined < coarse
        )
    return WidthBoundReport(
        width=w,
        mu=mu,
        num_spanning_trees=trees,
        epsilon=eps,
        volume=vol,
        cycle_slacks=slacks,
        cycle_lengths=lengths,
        lower_bound=lower,
        slack_product=slack_product,
        refined_upper=refined,
        coarse_upper=coarse,
        chain_holds=chain,
        strict_upper_vacuous=strict_vacuous,
        trees_within_length_product=trees <= math.prod(lengths),
        infeasible=w == 0,
        infeasible_cycles=bad,
    )


def dense_apply(basis, v):
    """Reference for ``CycleBasis.apply``: each row times the whole vector,
    zeros included; a vector of another length raises ValueError."""
    return tuple(sum(s * x for s, x in zip(row, v, strict=True)) for row in basis.gamma)


def implied_tile_by_dense_products(inst, basis, structure):
    """Reference for the tile a structure implies, as ``fine_tiling`` builds
    it and ``validate_tiling`` recomputes it: (generators, translation,
    sorted lattice points), each tile on its own, with dense cycle-matrix
    products and a potential walk of its pinned tensions."""
    columns = _scaled_columns(inst, basis)
    cotree = sorted(set(range(inst.graph.m)).difference(structure.tree))
    # Every co-tree of a basis has the same |det|, so the tile's own
    # co-tree minor is the basis's d.
    d = _bareiss_det([[row[a] for a in cotree] for row in basis.gamma])
    pinned = _pinned_tensions(inst, structure)
    points = _tile_points(inst, basis, structure.tree, cotree, pinned, d)
    return tuple(columns[a] for a in cotree), dense_apply(basis, pinned), points


def _tile_points(inst, basis, tree, cotree, pinned, d):
    """Every lattice point of a tile, sorted, by one potential walk: with
    pi the potentials of the ``pinned`` tree, the tile's lattice points are
    basis.apply(p) for the offsets p that are 0 on the tree and have
    l_a <= pi_j - pi_i + T p_a <= u_a on each co-tree arc a = (i, j).  A
    tile with a zero-span co-tree arc, or with a co-tree minor d = 0, is
    flat and holds no point."""
    if not d or any(inst.lower[a] == inst.upper[a] for a in cotree):
        return []
    T = inst.period
    pi = tree_potentials(inst.graph, tree, pinned)
    choices = []
    for a in cotree:
        i, j = inst.graph.arc_index_pairs[a]
        delta = pi[j] - pi[i]
        choices.append(range(-((delta - inst.lower[a]) // T), (inst.upper[a] - delta) // T + 1))
    offset = [0] * inst.graph.m
    points = []
    for picks in itertools.product(*choices):
        for a, p in zip(cotree, picks):
            offset[a] = p
        points.append(dense_apply(basis, offset))
    return sorted(points)


def solve_parallelotope_coords(generators, translation, scaled_point):
    """Reference for tile containment: the coordinates lambda with
    point = translation + sum of lambda_c * generators[c], by Gauss-Jordan
    elimination over Fractions; None when the generator matrix is
    singular.  The point is in the tile when every lambda is in [0, 1]."""
    mu = len(generators)
    rhs = [Fraction(p - t) for p, t in zip(scaled_point, translation)]
    mat = [[Fraction(generators[c][k]) for c in range(mu)] for k in range(mu)]
    for col in range(mu):
        pivot = next((r for r in range(col, mu) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        rhs[col] *= inv
        for r in range(mu):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def validate_tiling_by_frame_scan(inst, basis, tiles, width_cap=BOX_CAP):
    """Reference for ``zonotopes.validate_tiling``: every tile is treated
    as foreign.  Its |det| is its frame's, it is inside when each of its
    vertices is (``tile_inside_by_corners``), and it holds the lattice
    points its frame contains, found by scanning tiles x points."""
    T = inst.period
    vol = volume(inst, basis)
    frames = [_inverse_frame(tile.generators) for tile in tiles]
    nondegenerate = all(frame is not None for frame in frames)
    tile_sum = Fraction(
        sum(abs(frame[0]) for frame in frames if frame is not None), T**basis.mu
    )

    columns = _scaled_columns(inst, basis)
    tiles_inside = all(tile_inside_by_corners(inst, basis, tile, columns) for tile in tiles)

    points = lattice_points_by_box_scan(inst, basis, cap=width_cap)
    incidences = []
    held = [[] for _ in tiles]
    for z in points:
        scaled = tuple(T * v for v in z)
        for t, (tile, frame) in enumerate(zip(tiles, frames)):
            if frame is not None and _frame_contains(frame, tile.translation, scaled):
                incidences.append((t, z))
                held[t].append(z)

    return TilingReport(
        tile_count=len(tiles),
        nondegenerate=nondegenerate,
        tile_volume_sum=tile_sum,
        zonotope_volume=vol,
        volume_match=tile_sum == vol,
        tiles_inside=tiles_inside,
        all_points_covered=len({z for _, z in incidences}) == len(points),
        at_most_one_point=all(len(h) <= 1 for h in held),
        lattice_points_recorded=all(
            tile.lattice_point == (h[0] if h else None) for tile, h in zip(tiles, held)
        ),
        incidences=tuple(incidences),
    )


def tile_inside_by_corners(inst, basis, tile, columns):
    """Every vertex of the tile lies in the zonotope; ``columns`` are the
    zonotope's generators, ``_scaled_columns(inst, basis)``.

    A tile whose translation and generators are the ones its structure
    implies is inside: each vertex is the image of a corner of the bound
    box.  Any other tile has its vertices checked one by one, by
    reconstructing the corner or, failing that, by the exact membership
    test.
    """
    m = inst.graph.m
    structure = tile.structure
    cotree = sorted(set(range(m)) - set(structure.tree))
    implied = tuple(columns[a] for a in cotree)
    base = _pinned_tensions(inst, structure)
    if tile.generators == implied and tile.translation == basis.apply(base):
        return True
    span = inst.span
    for picks in itertools.product((0, 1), repeat=len(cotree)):
        corner = list(base)
        for take, a in zip(picks, cotree):
            if take:
                corner[a] += span[a]
        expected = basis.apply(corner)
        vertex = tuple(
            t + sum(col[k] for col, take in zip(tile.generators, picks) if take)
            for k, t in enumerate(tile.translation)
        )
        if vertex != expected and not scaled_point_in_zonotope(inst, basis, vertex):
            return False
        if vertex == expected and not all(
            inst.lower[a] <= corner[a] <= inst.upper[a] for a in range(m)
        ):
            return False
    return True


@dataclass(frozen=True)
class Gbar:
    """The doubled graph: a forward and a reverse copy of every arc.

    Arc k < m is the forward copy of arc k; arc m + k is the reverse copy.
    ``origin[k]`` is (source arc index, is_forward).
    """

    graph: Digraph
    origin: tuple

    @property
    def m(self):
        return self.graph.m


def gbar(g):
    forward = list(g.arcs)
    reverse = [(h, t) for t, h in g.arcs]
    origin = tuple([(a, True) for a in range(g.m)] + [(a, False) for a in range(g.m)])
    return Gbar(Digraph(g.vertices, tuple(forward + reverse)), origin)


def arborescences_rooted(g, root, cap=TREE_CAP):
    """Tree-count oracle: all spanning arborescences directed away from
    ``root``.  In the doubled graph every spanning tree orients uniquely
    away from any root, so their number is the spanning tree count.

    Works on any digraph (typically a doubled graph); each non-root vertex
    picks one incoming arc, and any choice without a directed cycle is a
    spanning arborescence.  Returns sorted tuples of arc indices.
    """
    graph = g.graph if isinstance(g, Gbar) else g
    if not graph.is_connected():
        raise DisconnectedGraph(f"graph on {graph.n} vertices with {graph.m} arcs is not connected")
    ridx = graph.vindex[root]
    in_arcs = [[] for _ in range(graph.n)]
    for a, (i, j) in enumerate(graph.arc_index_pairs):
        in_arcs[j].append((a, i))
    order = [v for v in range(graph.n) if v != ridx]
    for v in order:
        if not in_arcs[v]:
            return ()
    found = []
    parent = {}

    def creates_cycle(v, u):
        while u in parent:
            u = parent[u]
            if u == v:
                return True
        return False

    def assign(k, chosen):
        if k == len(order):
            found.append(tuple(sorted(chosen)))
            if len(found) > cap:
                raise EnumerationCapExceeded(f"more than {cap} arborescences")
            return
        v = order[k]
        for a, u in in_arcs[v]:
            if creates_cycle(v, u):
                continue
            parent[v] = u
            chosen.append(a)
            assign(k + 1, chosen)
            chosen.pop()
            del parent[v]

    assign(0, [])
    return tuple(sorted(found))


# Differential oracles kept apart from the package's shared kernels: a
# forward-Bareiss determinant, a rank over the rationals, and a potential
# walk with its own stack.


def _bareiss_det(mat):
    """Fraction-free exact determinant of a square integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _rational_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def tree_potentials_by_stack_walk(g, tree, differences, root=0):
    """Reference for ``graphs.tree_potentials``: its own depth-first walk
    over the arcs of ``tree``, in the order of ``tree``."""
    adj = [[] for _ in range(g.n)]
    for a in tree:
        i, j = g.arc_index_pairs[a]
        adj[i].append((j, a, 1))
        adj[j].append((i, a, -1))
    pi = [None] * g.n
    pi[root] = 0
    stack = [root]
    while stack:
        v = stack.pop()
        for w, a, s in adj[v]:
            if pi[w] is None:
                pi[w] = pi[v] + s * differences[a]
                stack.append(w)
    return pi
