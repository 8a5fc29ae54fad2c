"""Directed multigraphs, cycle bases, and desk-scale enumerations.

Vertices are arbitrary hashable ids kept in declaration order; arcs are
(tail, head) pairs addressed by their position in the arc sequence.
Parallel and antiparallel arcs are allowed, self-loops are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DisconnectedGraph, EnumerationCapExceeded, NotASpanningTree

DEFAULT_ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class Digraph:
    vertices: tuple
    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arcs", tuple((t, h) for t, h in self.arcs))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        declared = set(self.vertices)
        for a, (t, h) in enumerate(self.arcs):
            if t not in declared or h not in declared:
                raise ValueError(f"arc {a} = ({t}, {h}) references an undeclared vertex")
            if t == h:
                raise ValueError(f"arc {a} is a self-loop at {t}")

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.arcs)

    @cached_property
    def vindex(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arc_index_pairs(self):
        """Arcs as (tail_index, head_index) pairs."""
        vi = self.vindex
        return tuple((vi[t], vi[h]) for t, h in self.arcs)

    def is_connected(self):
        """Connectivity of the underlying undirected graph."""
        return self.n > 0 and None not in tree_potentials(self, range(self.m), (0,) * self.m)


@dataclass(frozen=True)
class OrientedCycle:
    """A circuit given by its signed arc incidence vector (entries -1/0/+1)."""

    signature: tuple

    def __post_init__(self):
        object.__setattr__(self, "signature", tuple(int(s) for s in self.signature))

    @property
    def support(self):
        return tuple(a for a, s in enumerate(self.signature) if s != 0)

    def __len__(self):
        return len(self.support)


@dataclass(frozen=True)
class CycleBasis:
    """An ordered integral cycle basis; ``tree`` is set when it is fundamental."""

    cycles: tuple
    tree: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if self.tree is not None:
            object.__setattr__(self, "tree", tuple(sorted(self.tree)))

    @property
    def mu(self):
        return len(self.cycles)

    @cached_property
    def gamma(self):
        """Rows of the cycle matrix, one signed incidence vector per cycle."""
        return tuple(c.signature for c in self.cycles)

    def column(self, a):
        return tuple(row[a] for row in self.gamma)

    @cached_property
    def _sparse_rows(self):
        """The (arc, coefficient) pairs of each row's nonzero entries, and
        the length every row shares (None when the lengths differ)."""
        lengths = {len(row) for row in self.gamma}
        rows = tuple(tuple((a, s) for a, s in enumerate(row) if s) for row in self.gamma)
        return rows, lengths.pop() if len(lengths) == 1 else None

    def apply(self, v):
        """Gamma v for a vector v with one entry per arc (offsets, tensions,
        bounds); a vector of another length raises ValueError."""
        rows, m = self._sparse_rows
        if rows and len(v) != m:
            raise ValueError(f"a vector of length {len(v)} does not fit the cycle matrix")
        return tuple([sum([s * v[a] for a, s in row]) for row in rows])

    @cached_property
    def row_cotree_arcs(self):
        """For a fundamental basis: the co-tree arc owned by each row.

        Row k carries +1 on its own co-tree arc and 0 on every other
        co-tree arc, so the owner is the unique support arc outside the tree.
        """
        if self.tree is None:
            raise ValueError("basis is not fundamental (no tree attached)")
        tree_set = set(self.tree)
        owners = []
        for k, row in enumerate(self.gamma):
            outside = [a for a, s in enumerate(row) if s != 0 and a not in tree_set]
            if len(outside) != 1 or row[outside[0]] != 1:
                raise ValueError(f"row {k} is not a fundamental cycle of the attached tree")
            owners.append(outside[0])
        return tuple(owners)

    def permuted(self, order):
        """Same basis with rows reordered; stays fundamental if it was."""
        if sorted(order) != list(range(self.mu)):
            raise ValueError("order must be a permutation of the rows")
        return CycleBasis(tuple(self.cycles[k] for k in order), self.tree)


def _require_connected(g):
    if not g.is_connected():
        raise DisconnectedGraph(f"graph on {g.n} vertices with {g.m} arcs is not connected")


def cyclomatic_number(g):
    _require_connected(g)
    return g.m - g.n + 1


def fundamental_cycle_basis(g, tree):
    """Cycle basis from the fundamental cycles of a spanning tree.

    ``tree`` is a collection of arc indices.  Each co-tree arc a yields one
    cycle traversing a forward (coefficient +1) and closing up through the
    tree; rows are ordered by ascending co-tree arc index.
    """
    _require_connected(g)
    tree_ids = sorted(set(tree))
    if list(tree) and len(tree_ids) != len(list(tree)):
        raise NotASpanningTree("repeated arc indices in tree")
    if any(a < 0 or a >= g.m for a in tree_ids):
        raise NotASpanningTree("arc index out of range")
    if len(tree_ids) != g.n - 1:
        raise NotASpanningTree(f"{len(tree_ids)} arcs cannot span {g.n} vertices")

    # pi_b[v] is the signed number of times the tree path from the root to
    # v runs along tree arc b, so the path j -> i closing co-tree arc
    # (i, j) runs along b pi_b[i] - pi_b[j] times.
    paths = {}
    for b in tree_ids:
        pi_b = tree_potentials(g, tree_ids, [int(a == b) for a in range(g.m)])
        if None in pi_b:
            raise NotASpanningTree("arc set does not span all vertices")
        paths[b] = pi_b

    cycles = []
    for a, (i, j) in enumerate(g.arc_index_pairs):
        if a in paths:
            continue
        sig = [0] * g.m
        sig[a] = 1
        for b, pi_b in paths.items():
            sig[b] = pi_b[i] - pi_b[j]
        cycles.append(OrientedCycle(tuple(sig)))
    return CycleBasis(tuple(cycles), tuple(tree_ids))


def verify_kernel_property(basis, g):
    """True iff every row is a circuit (B times signature = 0) and the rows
    are linearly independent."""
    pairs = g.arc_index_pairs
    for row in basis.gamma:
        if len(row) != g.m:
            return False
        net = [0] * g.n
        for a, s in enumerate(row):
            if s:
                i, j = pairs[a]
                net[i] += s
                net[j] -= s
        if any(net):
            return False
    return _rational_rank(basis.gamma) == basis.mu


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


def spanning_trees(g, cap=DEFAULT_ENUMERATION_CAP):
    """All spanning trees of the underlying multigraph, as sorted tuples of
    arc indices, in canonical (sorted) order.  Parallel arcs give distinct
    trees.  Raises EnumerationCapExceeded beyond ``cap`` trees."""
    _require_connected(g)
    edges = [(a, i, j) for a, (i, j) in enumerate(g.arc_index_pairs)]
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
        contracted = []
        for bid, p, q in edge_list[1:]:
            p2 = x if p == y else p
            q2 = x if q == y else q
            if p2 != q2:
                contracted.append((bid, p2, q2))
        chosen.append(aid)
        recurse(contracted, labels - {y}, chosen)
        chosen.pop()
        rest = edge_list[1:]
        if len(greedy_forest(g.n, rest)) == len(labels) - 1:
            recurse(rest, labels, chosen)

    recurse(edges, frozenset(range(g.n)), [])
    return tuple(sorted(found))


def greedy_forest(n, edges):
    """The arcs of a spanning forest on vertices 0..n-1, chosen greedily.

    ``edges`` are (arc, tail_index, head_index) triples in the order they
    are tried; an arc is kept when it joins two components of the arcs
    kept before it (one union-find sweep).
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append(a)
    return chosen


def greedy_spanning_tree(g):
    """First spanning tree in arc order."""
    _require_connected(g)
    return tuple(greedy_forest(g.n, [(a, i, j) for a, (i, j) in enumerate(g.arc_index_pairs)]))


def tree_potentials(g, tree, differences, root=0):
    """Vertex potentials with pi[root] = 0 and pi_head - pi_tail =
    differences[a] along every arc a of ``tree`` (arc indices;
    ``differences`` is indexed by arc).  Vertices the tree does not reach
    keep None, and callers rely on that to detect an arc set that does not
    span.

    This is the package's root-outward potential walk: connectivity,
    cycle bases, timetables from tensions or pinned trees, the tiles that
    ``zonotopes.validate_tiling`` recomputes, and fixed-arc contraction all
    go through it.  ``zonotopes.fine_tiling`` instead takes each tile's
    pinned potentials from the walk that orients its tree away from the
    root, the walk ``zonotopes.structure_for_tree`` also uses, so a tiling
    walks each tree once.  An arc set with cycles is walked depth-first, in
    the order of ``tree``, and an arc that closes a cycle is ignored.
    """
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


def default_basis(g):
    """Fundamental basis of the greedy spanning tree."""
    return fundamental_cycle_basis(g, greedy_spanning_tree(g))


def count_spanning_trees_determinant(g):
    """Spanning tree count of the underlying multigraph via a reduced
    Laplacian determinant (integer arithmetic throughout)."""
    _require_connected(g)
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for i, j in g.arc_index_pairs:
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return _bareiss_det(reduced)


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
