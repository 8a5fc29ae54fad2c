"""Shared fixtures: the two worked instances and random instance factories."""

from __future__ import annotations

import random

from peritrope import (
    Digraph,
    FixedOffsetResult,
    Infeasible,
    PespInstance,
    SpanningTreeStructure,
    fundamental_cycle_basis,
    normalize_timetable,
    polytrope_nonempty,
    spanning_trees,
)


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


def seeded_instances(count, base_seed=0, **kwargs):
    for k in range(count):
        yield random_instance(random.Random(base_seed + k), **kwargs)


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
                at_upper = frozenset(a for k, a in enumerate(tree) if mask >> k & 1)
                best_key = key
                best = FixedOffsetResult(
                    timetable=key[1],
                    tension=tuple(x),
                    objective=value,
                    tight_structure=SpanningTreeStructure(
                        tuple(tree), frozenset(tree) - at_upper, at_upper
                    ),
                )
    return best
