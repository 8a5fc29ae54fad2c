"""Exact minimization of a linear objective over one polytrope.

With the periodic offset p fixed, minimizing w.x over the tensions
x = B^T pi + T p with l <= x <= u is a minimum-cost tension problem on
the doubled graph kappa(p): minimize sum_v d_v pi_v subject to
pi_h - pi_t <= c for every edge (t, h, c), where d_v is the weight on the
arcs into v minus the weight on the arcs out of v.  Its LP dual is an
uncapacitated minimum-cost flow with supplies d.  One potential vector
carries the whole solve, in integers only: the Bellman-Ford that tests
the polytrope for emptiness returns feasible potentials, and successive
shortest paths keep them feasible, one Dijkstra on reduced costs per
phase (Ahuja, Magnanti & Orlin, "Network Flows", 1993, ch. 9).

``minimize_over_polytrope`` runs two steps.  ``certified_optimum``
returns the optimum with its certificate, whose flow is feasible at
every offset, so its dual value there is a cut on every other
polytrope's optimum.  ``optimal_vertex`` reads the optimal face off it
(equality on every edge that carries flow) and grows the face's vertices
as the spanning trees of its classes' quotient graph, every arc doubled,
the least normalized timetable winning; their Kirchhoff count is charged
to the command's ``graphs.Budget`` before the first.
``cycle_relaxation_bound`` bounds the optimum from below without solving.
"""

import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import cmp_to_key

from .errors import EnumerationCapExceeded, Infeasible, InvariantViolation
from .graphs import (
    Budget,
    Digraph,
    _require_connected,
    count_spanning_trees_determinant,
    greedy_spanning_tree,
    grow_spanning_trees,
    tree_potentials,
)
from .polytropes import (
    _face_classes,
    _potentials,
    _require_length,
    kappa,
    negative_cycle,
    normalize_timetable,
    timetable_to_tension,
)


class FixedOffsetResult(namedtuple("FixedOffsetResult", "timetable tension objective")):
    __slots__ = ()


def _reduced_cost_flow(adjacency, cost, supply, phi):
    """Flow per edge of an uncapacitated min-cost flow on the edges of
    ``adjacency``, a ``Digraph.doubled_adjacency`` (edge k costs cost[k]),
    where vertex v sends out supply[v] more than it takes in; the supplies
    sum to zero over every connected component.  ``phi`` holds feasible
    potentials (no edge of negative reduced cost c + phi_t - phi_h) and is
    updated in place; on return every edge with flow has reduced cost 0.

    Successive shortest paths on reduced costs: each phase runs one
    Dijkstra (a linear scan per step, no heap) from every vertex with
    excess, adds its distances to the potentials, which zeroes the
    reduced cost of every edge of the shortest path tree, and augments
    along that tree to each deficit vertex in turn while the path's
    source has excess and its reverse edges have flow.
    """
    out, into = adjacency
    n = len(out)
    flow = [0] * len(cost)
    excess = list(supply)
    while any(e > 0 for e in excess):
        dist = [None] * n
        pred = [None] * n  # (edge, +1 forward or -1 reverse, previous vertex)
        tentative = {v: 0 for v in range(n) if excess[v] > 0}
        while tentative:
            u = min(tentative, key=tentative.__getitem__)
            du = dist[u] = tentative.pop(u)
            base = du + phi[u]
            for h, k in out[u]:
                if dist[h] is None:
                    d = base + cost[k] - phi[h]
                    if h not in tentative or d < tentative[h]:
                        tentative[h] = d
                        pred[h] = (k, 1, u)
            for t, k in into[u]:
                if flow[k] and dist[t] is None:
                    d = base - cost[k] - phi[t]
                    if t not in tentative or d < tentative[t]:
                        tentative[t] = d
                        pred[t] = (k, -1, u)
        # Residual edges join both ends of every arc, so the vertices left
        # unreached are whole components and keep their potentials.
        for v, d in enumerate(dist):
            if d is not None:
                phi[v] += d
        for sink in range(n):
            if excess[sink] >= 0:
                continue
            path = []
            amount = -excess[sink]
            source = sink
            while pred[source] is not None:
                k, s, source = pred[source]
                path.append((k, s))
                if s < 0:
                    amount = min(amount, flow[k])
            amount = min(amount, excess[source])
            if amount > 0:
                for k, s in path:
                    flow[k] += s * amount
                excess[source] -= amount
                excess[sink] += amount
    return flow


def _least_face_vertex(inst, p, rep, delta, budget):
    """(normalized timetable, pi) of the least vertex, by that key, of the
    face with equality classes ``rep`` and offsets ``delta``.

    Tied vertices move together (pi_v = P_c + delta_v per class c), so the
    face's vertices are the feasible spanning tree structures of the
    quotient graph on the classes.  With every quotient arc doubled, pinned
    at its lower bound and at its upper, each structure is one spanning tree
    of the doubled graph: tau quotient trees on k classes give tau * 2^(k-1),
    all charged to ``budget`` before the first.
    """
    T = inst.period
    reps = sorted(set(rep))
    if len(reps) == 1:
        return normalize_timetable(delta, 0, T), tuple(delta)
    cls = [reps.index(r) for r in rep]
    limits, arcs, pinned = [], [], []
    for a, (i, j) in enumerate(inst.graph.arc_index_pairs):
        if cls[i] != cls[j]:
            shift = T * p[a] + delta[j] - delta[i]
            limits.append((cls[i], cls[j], inst.lower[a] - shift, inst.upper[a] - shift))
            arcs += [(cls[i], cls[j])] * 2
            pinned += limits[-1][2:]
    least = None

    def keep_least(tree, run_toward, run_away, P):
        nonlocal least
        if all(lo <= P[h] - P[t] <= hi for t, h, lo, hi in limits):
            pi = tuple([P[c] + d for c, d in zip(cls, delta)])
            key = (normalize_timetable(pi, 0, T), pi)
            least = min(least or key, key)

    quotient = Digraph(range(len(reps)), arcs)
    budget.charge("face vertices", count_spanning_trees_determinant(quotient))
    grow_spanning_trees(quotient, keep_least, pinned, pinned)
    if least is None:
        raise InvariantViolation("the optimal face of a nonempty polytrope has no vertex")
    return least


class PolytropeOptimum(namedtuple("PolytropeOptimum", "offset objective potentials flow cut")):
    """Step one: the optimum, the potentials and flow that certify it, and
    the cut (const, slope): the optimum at any p' is >= const + T slope.p'."""

    __slots__ = ()


def certified_optimum(inst, p, objective=None):
    """The optimum of the fixed-offset tension polytope, without its
    vertex.  The certificate, checked in O(m): the flow is nonnegative,
    balances the supplies and is tight on its support, the potentials are
    feasible, and w.x of the potentials equals the flow's dual value
    T w.p - sum f.c; a failure raises InvariantViolation.  An empty
    polytrope raises Infeasible, a disconnected graph DisconnectedGraph
    before any work."""
    g = inst.graph
    _require_connected(g)
    obj = inst.weight if objective is None else tuple(objective)
    _require_length(obj, g.m, "objective", "arcs")
    T = inst.period
    edges = kappa(inst, p)
    parent = {}
    phi = _potentials(g.n, edges, parent=parent)
    if phi is None:
        empty = Infeasible("polytrope is empty for this periodic offset")
        empty.cycle = negative_cycle(edges, parent)
        raise empty
    pairs = g.arc_index_pairs
    supply = [0] * g.n
    for w, (i, j) in zip(obj, pairs):
        supply[j] += w
        supply[i] -= w
    cost = [c for _, _, c in edges]
    flow = _reduced_cost_flow(g.doubled_adjacency, cost, supply, phi)
    # The certificate; supply keeps what the flow leaves unbalanced.
    for (t, h, c), f in zip(edges, flow):
        reduced = c + phi[t] - phi[h]
        if f < 0 or reduced < 0 or (f and reduced):
            raise InvariantViolation(f"flow {f} on an edge of reduced cost {reduced}")
        supply[t] -= f
        supply[h] += f
    m = g.m
    slope = tuple([w + flow[a] - flow[m + a] for a, w in enumerate(obj)])
    const = -sum([flow[a] * inst.upper[a] - flow[m + a] * inst.lower[a] for a in range(m)])
    primal = sum([w * (phi[j] - phi[i] + T * pa) for w, pa, (i, j) in zip(obj, p, pairs)])
    dual = const + T * sum([s * pa for s, pa in zip(slope, p)])
    if any(supply) or primal != dual:
        raise InvariantViolation(f"the flow fails its certificate: dual {dual}, primal {primal}")
    return PolytropeOptimum(tuple(p), primal, phi, flow, (const, slope))


def optimal_vertex(inst, optimum, budget=None):
    """Step two: the least vertex of the optimal face of ``optimum``, its
    structures charged to ``budget`` (None: a fresh ``Budget``)."""
    p = optimum.offset
    classes = _face_classes(inst.graph.n, kappa(inst, p), optimum.potentials, optimum.flow)
    timetable, pi = _least_face_vertex(inst, p, *classes, budget or Budget())
    pairs = inst.graph.arc_index_pairs
    x = tuple(pi[j] - pi[i] + inst.period * p[a] for a, (i, j) in enumerate(pairs))
    return FixedOffsetResult(timetable, x, optimum.objective)


def minimize_over_polytrope(inst, p, objective=None):
    """Optimal vertex of the fixed-offset tension polytope: the two steps."""
    return optimal_vertex(inst, certified_optimum(inst, p, objective))


def cycle_relaxation_bound(inst, basis):
    """Lower bounds on the instance objective over the polytrope of each
    cycle offset, one basis row at a time.  Returns a function from z to
    an integer at most that polytrope's optimum, or to None when some row
    proves the polytrope empty.  Given a prefix of z, each row not yet
    assigned adds its least term, so it is at most every completion's bound.

    The contract: the bound is None exactly when z, or every completion of
    a prefix, lies off the box (``zonotopes.odijk_box``).  Row k's gap
    closes for every T z_k in the range of gamma_k.x over the arc bounds,
    which is row k's side of the box, and for no other.  So a caller needs
    no Bellman-Ford to confirm that a ruled-out point is empty, and a box
    point ruled out raises InvariantViolation there.

    Row gamma of any basis of cycles keeps gamma.x = T z_k for every
    tension x of the offset, so min w.x over l <= x <= u under that one
    equation is a relaxation.  Every arc starts at its cheaper bound, and
    the gap r = T z_k - gamma.start is closed by moving arcs away from it
    in ascending order of cost per unit of gap, |w_a| / |gamma_a|, each by
    at most its span.  The optimum is an integer vertex, so the relaxed
    value rounds up; the bound is the largest over the rows.  With one row
    the relaxation is the polytrope itself, and the bound is its optimum.
    Each row's term depends on z_k alone: it is tabled once over the row's
    side of the box, and a call is one lookup per row.
    """
    start = [l if w >= 0 else u for w, l, u in zip(inst.weight, inst.lower, inst.upper)]
    base = sum(w * x for w, x in zip(inst.weight, start))
    T, span = inst.period, inst.span
    # |w| / |gamma| ascending by cross-multiplication; the sort is stable
    by_ratio = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    rows = []
    for row in basis.gamma:
        # Moves that raise gamma.x (index 1) or lower it (index 0), as
        # (|w|, |gamma|, span); an arc moves up from l and down from u.
        by_direction = ([], [])
        for w, g, s in zip(inst.weight, row, span):
            if g and s:
                by_direction[(g > 0) == (w >= 0)].append((abs(w), abs(g), s))
        sides = []
        for side in by_direction:
            side.sort(key=by_ratio)
            gaps, costs = [0], [0]
            for w, g, s in side:
                gaps.append(gaps[-1] + g * s)
                costs.append(costs[-1] + w * s)
            sides.append((side, gaps, costs))
        # z_k with T z_k from at_start minus all lowering to plus all raising
        at_start = sum(g * x for g, x in zip(row, start))
        first = -((sides[0][1][-1] - at_start) // T)
        table = []
        for zk in range(first, (at_start + sides[1][1][-1]) // T + 1):
            r = T * zk - at_start
            side, gaps, costs = sides[r >= 0]
            r = abs(r)
            k = bisect_left(gaps, r)
            if k:
                w, g, _ = side[k - 1]
                # full moves before arc k - 1, then part of it, rounded up
                table.append(costs[k - 1] - (-w * (r - gaps[k - 1]) // g))
            else:
                table.append(0)
        rows.append((first, table))

    least = [min(costs, default=None) for _, costs in rows]
    if None in least:  # a row with no term: the box is empty
        return lambda z: None
    tail = [*itertools.accumulate(reversed(least), max, initial=0)][::-1]

    def bound(z):
        worst = tail[len(z)]
        for (first, costs), zk in zip(rows, z):
            if not 0 <= zk - first < len(costs):
                return None
            worst = max(worst, costs[zk - first])
        return base + worst

    return bound


def _offsets_equivalent(g, tree, p_a, p_b):
    """Do two offset vectors differ by an integer potential difference?
    Decides whether they describe the same polytrope on the torus."""
    q = tree_potentials(g, tree, [b - a for a, b in zip(p_a, p_b)])
    return all(
        q[i] - q[j] == p_a[a] - p_b[a] for a, (i, j) in enumerate(g.arc_index_pairs)
    )


def brute_force_fixed_offset(inst, p, objective=None, max_vertices=5, max_period=30):
    """Grid oracle: scan all timetables with the first vertex pinned to 0,
    keep those whose minimal offsets match p up to potential shifts, and
    minimize.  Slow by design; exists to check minimize_over_polytrope."""
    g = inst.graph
    T = inst.period
    if g.n > max_vertices or T > max_period:
        raise EnumerationCapExceeded(
            f"grid oracle capped at {max_vertices} vertices and period {max_period}"
        )
    obj = inst.weight if objective is None else tuple(objective)
    _require_length(obj, g.m, "objective", "arcs")
    tree = greedy_spanning_tree(g)
    best = None
    best_key = None
    for tail in itertools.product(range(T), repeat=g.n - 1):
        pi = (0,) + tail
        try:
            x, p_hat = timetable_to_tension(inst, pi)
        except Infeasible:
            continue
        if not _offsets_equivalent(g, tree, p_hat, p):
            continue
        value = sum(c * v for c, v in zip(obj, x))
        key = (value, pi)
        if best_key is None or key < best_key:
            best_key = key
            best = (pi, x, value)
    if best is None:
        raise Infeasible("no timetable on the grid maps to this periodic offset")
    return FixedOffsetResult(*best)

