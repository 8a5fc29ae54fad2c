"""Seeded PESP instance generator, independent of the package and its tests.

An instance is a random connected digraph in the native text format:
period 12, spans 4..11, weights 1..5, no parallel arcs.  The same
``random.Random`` state always yields the same text, so a workload's
inputs depend on its seed alone.

The counting helpers (spanning trees, feasible cycle offsets) are the
benchmark's own integer code.  Workloads use them to size op lists by
work, and the output checks use them as an independent reference.
"""

from __future__ import annotations

import itertools

PERIOD = 12
SPANS = (4, 11)
WEIGHTS = (1, 5)


def random_arcs(rng, n, m):
    """Connected simple digraph: a random tree, then extra arcs between
    vertex pairs that are not joined yet, each in a random direction."""
    arcs = []
    joined = set()
    for j in range(1, n):
        i = rng.randrange(j)
        arcs.append((i, j) if rng.random() < 0.5 else (j, i))
        joined.add(frozenset((i, j)))
    while len(arcs) < m:
        i, j = rng.sample(range(n), 2)
        if frozenset((i, j)) not in joined:
            arcs.append((i, j))
            joined.add(frozenset((i, j)))
    return arcs


def random_bounds(rng, m):
    rows = []
    for _ in range(m):
        lower = rng.randrange(PERIOD)
        rows.append([lower, lower + rng.randint(*SPANS), rng.randint(*WEIGHTS)])
    return rows


def infeasible_pair(rng, arcs, bounds):
    """Add the reverse of arc 0 with bounds that close no 2-cycle: both
    spans are 4 and the tension sum stays strictly between two multiples
    of the period, so no cycle offset is feasible."""
    i, j = arcs[0]
    lower = bounds[0][0]
    bounds[0][1] = lower + 4
    residue = rng.randint(1, PERIOD - 9)
    reverse_lower = (residue - lower) % PERIOD
    arcs.append((j, i))
    bounds.append([reverse_lower, reverse_lower + 4, rng.randint(*WEIGHTS)])


def split_vertex(rng, n, arcs, bounds):
    """Split a random vertex v in two, joined by a fixed arc v -> w (lower
    == upper), moving some of v's arcs to w with their bounds shifted.
    Contracting the fixed arc gives back the original instance up to
    labels and bound normalization, so work estimates carry over."""
    v = rng.randrange(n)
    fixed = rng.randrange(PERIOD)
    w = n
    for a, (i, j) in enumerate(arcs):
        if v not in (i, j) or rng.random() < 0.5:
            continue
        shift = -fixed if i == v else fixed
        lower, upper, weight = bounds[a]
        new_lower = (lower + shift) % PERIOD
        bounds[a] = [new_lower, new_lower + upper - lower, weight]
        arcs[a] = (w, j) if i == v else (i, w)
    arcs.append((v, w))
    bounds.append([fixed, fixed, rng.randint(*WEIGHTS)])
    return n + 1


def instance_text(n, arcs, bounds):
    lines = [f"PERIOD {PERIOD}"]
    lines += [f"EVENT e{v}" for v in range(n)]
    lines += [f"ARC e{i} e{j} {l} {u} {w}" for (i, j), (l, u, w) in zip(arcs, bounds)]
    return "\n".join(lines) + "\n"


def spanning_tree_count(n, arcs):
    """Kirchhoff's matrix-tree theorem, with a fraction-free (Bareiss)
    determinant of the reduced Laplacian."""
    lap = [[0] * n for _ in range(n)]
    for i, j in arcs:
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    mat = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                mat[r][c] = (mat[r][c] * mat[k][k] - mat[r][k] * mat[k][c]) // prev
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1] if size else 1


def fundamental_cycles(n, arcs):
    """Signed fundamental cycles of the first spanning tree in arc order:
    one dict {arc: +1/-1} per co-tree arc, which carries +1."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, cotree = [], []
    for a, (i, j) in enumerate(arcs):
        ri, rj = find(i), find(j)
        if ri == rj:
            cotree.append(a)
        else:
            parent[ri] = rj
            tree.append(a)
    adj = [[] for _ in range(n)]
    for a in tree:
        i, j = arcs[a]
        adj[i].append((j, a, 1))
        adj[j].append((i, a, -1))
    cycles = []
    for c in cotree:
        i, j = arcs[c]
        # Tree path from j back to i: each arc signed by the walking direction.
        back = {j: None}
        stack = [j]
        while stack:
            v = stack.pop()
            for w, a, s in adj[v]:
                if w not in back:
                    back[w] = (v, a, s)
                    stack.append(w)
        cycle = {c: 1}
        v = i
        while v != j:
            u, a, s = back[v]
            cycle[a] = s
            v = u
        cycles.append(cycle)
    return cycles


def _has_negative_cycle(n, edges):
    dist = [0] * n
    for _ in range(n):
        changed = False
        for i, j, w in edges:
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                changed = True
        if not changed:
            return False
    return True


def lattice_point_count(n, arcs, bounds):
    """Number of feasible cycle offsets (nonempty polytropes): box points z
    of the fundamental basis whose offset (z on the co-tree arcs) leaves
    the doubled graph without a negative cycle."""
    cycles = fundamental_cycles(n, arcs)
    ranges = []
    for cycle in cycles:
        lo = sum(s * bounds[a][0 if s > 0 else 1] for a, s in cycle.items())
        hi = sum(s * bounds[a][1 if s > 0 else 0] for a, s in cycle.items())
        ranges.append(range(-(-lo // PERIOD), hi // PERIOD + 1))
    cotree = [next(iter(c)) for c in cycles]
    count = 0
    for z in itertools.product(*ranges):
        offset = dict(zip(cotree, z))
        edges = []
        for a, (i, j) in enumerate(arcs):
            shift = PERIOD * offset.get(a, 0)
            edges.append((i, j, bounds[a][1] - shift))
            edges.append((j, i, shift - bounds[a][0]))
        if not _has_negative_cycle(n, edges):
            count += 1
    return count
