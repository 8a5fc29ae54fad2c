"""Exact minimization of a linear objective over one polytrope.

With the periodic offset p fixed, minimizing w.x over the tensions
x = B^T pi + T p with l <= x <= u is a minimum-cost tension problem on
the doubled graph kappa(p): minimize sum_v d_v pi_v subject to
pi_h - pi_t <= c for every edge (t, h, c), where d_v is the weight on the
arcs into v minus the weight on the arcs out of v.  Its LP dual is an
uncapacitated minimum-cost flow with supplies d, solved by successive
shortest paths with Bellman-Ford, in integers only.

By complementary slackness the optimal face is the kappa constraints
plus equality on every edge that carries flow.  Ties break toward the
lexicographically smallest normalized timetable among the optimal
vertices, which are the vertices of that face: a point is its own
answer, and a larger face has its vertices enumerated as spanning tree
structures on the quotient graph of its equality classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EnumerationCapExceeded, Infeasible, InvariantViolation
from .graphs import (
    DEFAULT_ENUMERATION_CAP,
    Digraph,
    greedy_spanning_tree,
    spanning_trees,
    tree_potentials,
)
from .polytropes import (
    equality_classes,
    kappa,
    normalize_timetable,
    polytrope_nonempty,
    shortest_path_matrix,
    timetable_to_tension,
)
from .zonotopes import SpanningTreeStructure


@dataclass(frozen=True)
class FixedOffsetResult:
    timetable: tuple
    tension: tuple
    objective: int
    tight_structure: SpanningTreeStructure | None


def _min_cost_flow(n, edges, supply):
    """Flow per edge of a min-cost flow on ``edges`` (tail, head, cost),
    uncapacitated, where vertex v sends out supply[v] more than it takes
    in.  The edges must be strongly connected without a negative cycle
    and the supplies must sum to zero.

    Each round runs Bellman-Ford on the residual graph from every vertex
    with excess and augments along a shortest path to the first vertex in
    deficit, by at least one unit.
    """
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


def _face_vertices(inst, p, dist, tree_cap):
    """Timetables at the vertices of the face whose canonical distance
    matrix is ``dist``.

    Vertices tied by a zero cycle move together (pi_v = P_c + delta_v for
    a potential P per equality class c), so the face is a polytope over the
    classes, bounded by the arcs that join two classes.  Its vertices are
    the feasible spanning tree structures of that quotient graph.
    """
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
    for tree in spanning_trees(q, DEFAULT_ENUMERATION_CAP if tree_cap is None else tree_cap):
        for mask in range(1 << len(tree)):
            pinned = [None] * q.m
            for k, b in enumerate(tree):
                pinned[b] = upper[b] if mask >> k & 1 else lower[b]
            P = tree_potentials(q, tree, pinned)
            if all(lo <= P[h] - P[t] <= hi for (t, h), lo, hi in zip(arcs, lower, upper)):
                yield tuple(P[c] + d for c, d in zip(cls, delta))


def minimize_over_polytrope(inst, p, objective=None, tree_cap=None):
    """Optimal vertex of the fixed-offset tension polytope.  Ties break
    toward the lexicographically smallest normalized timetable; ``tree_cap``
    bounds the spanning trees enumerated on the optimal face."""
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
    flow = _min_cost_flow(g.n, edges, supply)
    face = edges + [(h, t, -c) for (t, h, c), f in zip(edges, flow) if f]
    vertices = _face_vertices(inst, p, shortest_path_matrix(g.n, face), tree_cap)
    pi = min(vertices, key=lambda v: normalize_timetable(v, 0, T), default=None)
    if pi is None:
        raise InvariantViolation("the optimal face of a nonempty polytrope has no vertex")
    x = tuple(pi[j] - pi[i] + T * p[a] for a, (i, j) in enumerate(g.arc_index_pairs))
    return FixedOffsetResult(
        timetable=normalize_timetable(pi, 0, T),
        tension=x,
        objective=sum(c * v for c, v in zip(obj, x)),
        tight_structure=_extract_tight_structure(inst, x),
    )


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
    pi, x, value = best
    return FixedOffsetResult(
        timetable=pi,
        tension=x,
        objective=value,
        tight_structure=_extract_tight_structure(inst, x),
    )


def _extract_tight_structure(inst, x):
    """Greedy spanning tree among the arcs sitting at a bound, or None if
    they do not span (the optimum landed off a vertex)."""
    g = inst.graph
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for a, (i, j) in enumerate(g.arc_index_pairs):
        if x[a] != inst.lower[a] and x[a] != inst.upper[a]:
            continue
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append(a)
    if len(chosen) != g.n - 1:
        return None
    lower_side = frozenset(a for a in chosen if x[a] == inst.lower[a])
    return SpanningTreeStructure(
        tuple(chosen), lower_side, frozenset(chosen) - lower_side
    )
