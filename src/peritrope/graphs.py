"""Directed multigraphs, cycle bases, desk-scale enumerations, and the
work ``Budget`` that bounds every enumeration of a command.

Vertices are arbitrary hashable ids kept in declaration order; arcs are
(tail, head) pairs addressed by their position in the arc sequence.
Parallel and antiparallel arcs are allowed, self-loops are not.

Four kernels serve the package, beside ``Digraph.incidence``, a graph's
one adjacency (each vertex's arcs in arc order), which the walks, the
tree growth, the Kirchhoff count and the doubled graph read.
``greedy_forest`` is its one union-find.  ``tree_walk`` is its
depth-first walk of an arc set from a root, in arc order, and
``tree_potentials``, its one walk into vertex potentials, visits the
vertices in the same order.  ``grow_spanning_trees`` is its one
spanning tree enumeration, for ``spanning_trees``, the tiles of
``zonotopes.fine_tiling`` and the optimal face vertices of ``fixedlp``,
each of which charges its budget the Kirchhoff count before the first
tree.  That count, ``count_spanning_trees_determinant``, is taken once per
graph and kept on it, so every charge of one graph, and the bound chain of
``zonotopes.width_bound_report``, read one elimination.  ``_eliminate``
is its one exact elimination, a fraction-free (Bareiss) Gauss-Jordan, for
the determinants, the rank tests and, through ``_inverse_frame``, the
frames (d, d * G^-1) of tiles and co-trees.

A ``CycleBasis`` is its cycle matrix Gamma, rows of ints, and its tree.
``CycleBasis.cotree_frame`` is the one place that decides which integer
offset represents a cycle offset: offset preimages, scaled-point tests
and the co-tree determinant d all go through it.
"""

from collections import namedtuple
from functools import cached_property
from itertools import compress

from .errors import DisconnectedGraph, EnumerationCapExceeded, NotASpanningTree

DEFAULT_WORK = 1_000_000
RETRY_POOL = 100_000


class Budget:
    """The work units one command may spend, charged by each enumerating
    layer as it works, or up front where the count is known; a charge past
    ``units`` spends nothing and raises EnumerationCapExceeded naming the
    layer."""

    __slots__ = ("units", "spent")

    def __init__(self, units=DEFAULT_WORK):
        self.units, self.spent = units, 0

    def charge(self, layer, units=1):
        if self.spent + units > self.units:
            stop = EnumerationCapExceeded(
                f"the work budget of {self.units} units ran out in {layer}:"
                f" {self.spent} spent, {units} more asked"
            )
            stop.layer, stop.spent = layer, self.spent
            raise stop
        self.spent += units


def integers(values):
    """``values`` as a tuple of ints.  An entry that no int equals (0.7,
    3.5) raises ValueError instead of truncating; True and -1.0 become 1
    and -1."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if v != i)
        raise ValueError(f"{bad!r} is not an integer")
    return ints


# Digraph and CycleBasis keep an instance __dict__ (no __slots__ = ()),
# where cached_property stores its values.
class Digraph(namedtuple("Digraph", "vertices arcs")):
    def __new__(cls, vertices, arcs):
        vertices, arcs = tuple(vertices), tuple((t, h) for t, h in arcs)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        declared = set(vertices)
        for a, (t, h) in enumerate(arcs):
            if t not in declared or h not in declared:
                raise ValueError(f"arc {a} = ({t}, {h}) references an undeclared vertex")
            if t == h:
                raise ValueError(f"arc {a} is a self-loop at {t}")
        return tuple.__new__(cls, (vertices, arcs))

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

    @cached_property
    def incidence(self):
        """Per vertex index, (arc, other end, True when the arc leaves the
        vertex) for each arc at it, in arc order: the graph's one adjacency."""
        at = [[] for _ in self.vertices]
        for a, (i, j) in enumerate(self.arc_index_pairs):
            at[i].append((a, j, True))
            at[j].append((a, i, False))
        return tuple(map(tuple, at))

    @cached_property
    def doubled_adjacency(self):
        """(out, into) of the doubled graph of ``polytropes.kappa`` (edge a
        is arc a, edge m + a its reversal), read off ``incidence``: (head,
        edge) per edge out of v in out[v], (tail, edge) per edge into v in
        into[v], the forward copies, then the reversals, each in arc order."""
        m, out, into = self.m, [], []
        for arcs in self.incidence:
            leaving = [(w, a) for a, w, leaves in arcs if leaves]
            entering = [(w, a) for a, w, leaves in arcs if not leaves]
            out.append(leaving + [(w, m + a) for w, a in entering])
            into.append(entering + [(w, m + a) for w, a in leaving])
        return out, into

    def is_connected(self):
        """Connectivity of the underlying undirected graph, walked once per
        graph."""
        return self._connected

    @cached_property
    def _connected(self):
        return self.n > 0 and len(tree_walk(self, range(self.m))) == self.n - 1

    @cached_property
    def _tree_count(self):
        return _kirchhoff(self)

    @cached_property
    def retry_trees(self):
        """The trees ``search.initial_solution`` retries with: ``spanning_trees``
        of the graph, or the greedy tree alone beyond ``RETRY_POOL`` trees."""
        if count_spanning_trees_determinant(self) > RETRY_POOL:
            return (greedy_spanning_tree(self),)
        return spanning_trees(self)


class CycleBasis(namedtuple("CycleBasis", "gamma tree")):
    """An ordered integral cycle basis: ``gamma``, the rows of its cycle
    matrix, one signed arc incidence vector per cycle made ints by
    ``integers``, all of one length (ValueError else); ``tree`` is set when
    it is fundamental."""

    def __new__(cls, gamma, tree=None):
        tree = None if tree is None else tuple(sorted(tree))
        gamma = tuple(map(integers, gamma))
        if len({len(row) for row in gamma}) > 1:
            raise ValueError("the rows of a cycle matrix differ in length")
        return tuple.__new__(cls, (gamma, tree))

    @property
    def mu(self):
        return len(self.gamma)

    def column(self, a):
        return tuple(row[a] for row in self.gamma)

    @cached_property
    def _sparse_rows(self):
        """The (arc, coefficient) pairs of each row's nonzero entries."""
        return tuple(tuple((a, s) for a, s in enumerate(row) if s) for row in self.gamma)

    def apply(self, v):
        """Gamma v for a vector v with one entry per arc (offsets, tensions,
        bounds); a vector of another length raises ValueError."""
        if self.gamma and len(v) != len(self.gamma[0]):
            raise ValueError(f"a vector of length {len(v)} does not fit the cycle matrix")
        return tuple([sum([s * v[a] for a, s in row]) for row in self._sparse_rows])

    @cached_property
    def moves(self):
        """The distinct nonzero columns of Gamma: the steps from one cycle
        offset to its neighbours."""
        return frozenset(col for col in zip(*self.gamma) if any(col))

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
        for k, row in enumerate(self._sparse_rows):
            outside = [(a, s) for a, s in row if a not in tree_set]
            if len(outside) != 1 or outside[0][1] != 1:
                raise ValueError(f"row {k} is not a fundamental cycle of the attached tree")
            owners.append(outside[0][0])
        return tuple(owners)

    @cached_property
    def cotree_frame(self):
        """(cotree, d, entries): a co-tree C of the basis, d with |d| =
        |det Gamma_C|, and d * Gamma_C^-1 stored sparsely by column.

        C is ``row_cotree_arcs`` for a fundamental basis, where distinct
        owners make Gamma_C = I and d = 1 with no elimination, and
        otherwise the first mu independent columns in arc order.  Every
        cycle basis is an integer matrix M times a fundamental one, whose
        co-tree minors are all +-1, so every co-tree has |det Gamma_C| =
        |det M|: 1 exactly for an integral basis, 0 for dependent rows,
        which leave C short and ``entries`` None.
        ``entries`` lists the nonzero entries of d * Gamma_C^-1 column by
        column as (arc, coefficient, k) triples, k the column and the row
        indexed by its arc in C: the product with a cycle offset is one loop.
        """
        if self.tree is not None:
            cotree = self.row_cotree_arcs
            if len(set(cotree)) == self.mu:
                # Each row is +1 on its own co-tree arc and 0 on the others.
                return cotree, 1, tuple((a, 1, k) for k, a in enumerate(cotree))
        else:
            columns = tuple(zip(*self.gamma))
            cotree = []
            for a, col in enumerate(columns):
                if len(cotree) == self.mu:
                    break
                trial = [columns[b] for b in cotree] + [col]
                gram = [[sum(x * y for x, y in zip(c, q)) for q in trial] for c in trial]
                if _eliminate(gram) is not None:
                    cotree.append(a)
        frame = _inverse_frame([self.column(a) for a in cotree]) if len(cotree) == self.mu else None
        if frame is None:
            return tuple(cotree), 0, None
        d, inverse = frame
        return tuple(cotree), d, tuple(
            (a, row[k], k) for k in range(self.mu) for a, row in zip(cotree, inverse) if row[k]
        )

    def permuted(self, order):
        """Same basis with rows reordered; stays fundamental if it was."""
        if sorted(order) != list(range(self.mu)):
            raise ValueError("order must be a permutation of the rows")
        return CycleBasis([self.gamma[k] for k in order], self.tree)


def _require_connected(g):
    if not g.is_connected():
        raise DisconnectedGraph(f"graph on {g.n} vertices with {g.m} arcs is not connected")


def fundamental_cycle_basis(g, tree):
    """Cycle basis from the fundamental cycles of a spanning tree.

    ``tree`` is a collection of arc indices.  Each co-tree arc a yields one
    cycle traversing a forward (coefficient +1) and closing up through the
    tree; rows are ordered by ascending co-tree arc index.
    """
    _require_connected(g)
    steps = spanning_tree_walk(g, tree)
    tree_ids = sorted(a for _, _, a, _ in steps)
    in_tree = set(tree_ids)

    # path[v][b] is the signed number of times the tree path from the root
    # to v runs along tree arc b, so the path j -> i closing co-tree arc
    # (i, j) runs along b path[i][b] - path[j][b] times.
    path = [None] * g.n
    path[0] = {}
    for v, w, a, s in steps:
        path[w] = {**path[v], a: s}

    gamma = []
    for a, (i, j) in enumerate(g.arc_index_pairs):
        if a in in_tree:
            continue
        sig = [0] * g.m
        sig[a] = 1
        for b in tree_ids:
            sig[b] = path[i].get(b, 0) - path[j].get(b, 0)
        gamma.append(sig)
    return CycleBasis(gamma, tree_ids)


def verify_kernel_property(basis, g):
    """True iff every row is a circuit (B row = 0, B the incidence matrix)
    and the rows are linearly independent: their Gram determinant is nonzero."""
    for row in basis.gamma:
        # (B row)[v]: the row's net flow out of v, summed over v's arcs.
        if len(row) != g.m or any(
            sum([row[a] if leaves else -row[a] for a, _, leaves in arcs]) for arcs in g.incidence
        ):
            return False
    gamma = basis.gamma
    gram = [[sum(x * y for x, y in zip(r, q)) for q in gamma] for r in gamma]
    return _eliminate(gram) is not None


def spanning_trees(g, budget=None):
    """All spanning trees of the underlying multigraph, as sorted tuples of
    arc indices, in canonical (sorted) order.  Parallel arcs give distinct
    trees.  Their count is charged to ``budget`` (None: a fresh
    ``Budget``) before the first."""
    (budget or Budget()).charge("spanning trees", count_spanning_trees_determinant(g))
    found = []

    def keep(tree, *_):
        found.append(tuple(sorted(tree)))

    zeros = (0,) * g.m
    grow_spanning_trees(g, keep, zeros, zeros)
    found.sort()
    return tuple(found)


def grow_spanning_trees(g, visit, away, toward, root=0):
    """Call ``visit(tree, run_toward, run_away, pi)`` once per spanning
    tree of the underlying multigraph, each grown from the vertex of index
    ``root``; raises DisconnectedGraph before any tree.

    ``tree`` lists the tree's arcs in the order they were grown,
    ``run_away`` and ``run_toward`` those the tree runs away from and
    toward the root, and ``pi`` the vertex potentials with pi[root] = 0
    and pi_w = pi_v + away[a] along an arc a = (v, w) run away from the
    root, pi_v = pi_w - toward[a] along one run toward it.  All four are
    live: ``visit`` copies what it keeps.

    At each depth the search takes the lowest usable arc with exactly one
    end reached, grows the tree by it, then drops it and takes the next,
    for as long as the dropped arc's far end still reaches the grown tree
    over the usable arcs (the bridge test: a depth-first walk that stops
    at the first reached vertex).  The unreached vertices stay joined to
    the grown tree, so every branch ends in a tree and the work is
    bounded by the trees visited (Gabow & Myers, SIAM J. Comput. 7,
    1978).  When the first arc taken at a depth fails the test, the test
    one depth up skips that arc, whose far side has no other way out, so
    a chain of degree-2 vertices is not walked once per arc along it.
    Vertex and arc sets are bit masks; ``cut`` holds the usable arcs with
    exactly one end reached.  Each depth is a frame on an explicit stack,
    not a Python call, so a graph of any size grows within the recursion
    limit.
    """
    _require_connected(g)
    pairs = g.arc_index_pairs
    incident = [sum([1 << a for a, _, _ in arcs]) for arcs in g.incidence]
    pi = [0] * g.n
    tree, run_toward, run_away = [], [], []

    def reaches_tree(v, cut, usable):
        seen = 1 << v
        stack = [v]
        while stack:
            u = stack.pop()
            if incident[u] & cut:
                return True
            # No arc of u reaches the tree, so its usable arcs lead on.
            arcs = incident[u] & usable
            while arcs:
                low = arcs & -arcs
                arcs ^= low
                i, j = pairs[low.bit_length() - 1]
                w = i if j == u else j
                if not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        return False

    if g.n == 1:
        visit(tree, run_toward, run_away, pi)
        return
    # One frame per depth above the current one: the state it resumes at,
    # the arc it took and that arc's far end.  ``dead`` is what the last
    # frame to pop handed up: its first arc when dropping it failed the
    # bridge test, so the far side of that arc joins the rest through it
    # alone and the test one depth up need not cross it; else 0.
    frames, last = [], g.n - 1
    reached, cut, usable, first, dead = 1 << root, incident[root], (1 << g.m) - 1, True, 0
    while True:
        low = cut & -cut
        a = low.bit_length() - 1
        i, j = pairs[a]
        if reached >> i & 1:
            far, side = j, run_away
            pi[j] = pi[i] + away[a]
        else:
            far, side = i, run_toward
            pi[i] = pi[j] - toward[a]
        tree.append(a)
        side.append(a)
        if len(tree) < last:
            # The far end's usable arcs now have one end reached or, those
            # back to the tree, two.
            frames.append((reached, cut, usable, first, low, far, side))
            reached, cut, first, dead = reached | 1 << far, cut ^ (incident[far] & usable), True, 0
            continue
        visit(tree, run_toward, run_away, pi)
        while True:
            side.pop()
            tree.pop()
            cut ^= low
            usable ^= low
            # Most far ends keep a usable arc straight back to the tree.
            if incident[far] & cut or reaches_tree(far, cut, usable & ~dead):
                first = False
                break
            if not frames:
                return
            dead = low if first else 0
            reached, cut, usable, first, low, far, side = frames.pop()


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


def tree_walk(g, tree, root=0):
    """The steps (v, w, a, s) of a depth-first walk from the root over the
    arcs of ``tree`` (arc indices): arc a joins the reached vertex v to the
    new vertex w, with s = +1 when it runs v -> w and -1 when it runs
    w -> v.  The walk takes each vertex's arcs in arc order, whatever the
    order of ``tree``, and skips an arc that closes a cycle; vertices the
    arcs do not reach get no step.
    """
    in_tree, incidence = set(tree), g.incidence
    seen = [False] * g.n
    seen[root] = True
    stack = [root]
    steps = []
    while stack:
        v = stack.pop()
        for a, w, leaves in incidence[v]:
            if not seen[w] and a in in_tree:
                seen[w] = True
                steps.append((v, w, a, 1 if leaves else -1))
                stack.append(w)
    return steps


def spanning_tree_walk(g, tree, root=0):
    """``tree_walk`` of arcs that must form a spanning tree; raises
    NotASpanningTree on a repeated or out-of-range arc index, on a count
    other than n - 1, and on arcs that do not reach every vertex."""
    tree = list(tree)
    if len(set(tree)) != len(tree):
        raise NotASpanningTree("repeated arc indices in tree")
    if any(a < 0 or a >= g.m for a in tree):
        raise NotASpanningTree("arc index out of range")
    if len(tree) != g.n - 1:
        raise NotASpanningTree(f"{len(tree)} arcs cannot span {g.n} vertices")
    steps = tree_walk(g, tree, root)
    if len(steps) != g.n - 1:
        raise NotASpanningTree("arc set does not span all vertices")
    return steps


def tree_potentials(g, tree, differences, root=0):
    """Vertex potentials with pi[root] = 0 and pi_head - pi_tail =
    differences[a] along every arc a of ``tree`` (arc indices;
    ``differences`` is indexed by arc), reached in ``tree_walk``'s arc
    order, whatever the order of ``tree``, so on an arc set with cycles
    the same arcs are skipped.  Vertices the tree does not reach keep
    None, and callers rely on that to detect an arc set that does not span.
    """
    in_tree, incidence = set(tree), g.incidence
    pi = [None] * g.n
    pi[root] = 0
    stack = [root]
    while stack:
        v = stack.pop()
        for a, w, leaves in incidence[v]:
            if pi[w] is None and a in in_tree:
                pi[w] = pi[v] + differences[a] if leaves else pi[v] - differences[a]
                stack.append(w)
    return pi


def default_basis(g):
    """Fundamental basis of the greedy spanning tree."""
    return fundamental_cycle_basis(g, greedy_spanning_tree(g))


def count_spanning_trees_determinant(g):
    """Spanning tree count of the underlying multigraph via a reduced
    Laplacian determinant (integer arithmetic throughout), taken once per
    graph and kept on it, so every charge of the same graph reads the one
    Kirchhoff count; DisconnectedGraph first on a graph that is not
    connected."""
    _require_connected(g)
    return g._tree_count


def _kirchhoff(g):
    """The reduced Laplacian determinant of the connected multigraph g.  An
    arc at a vertex of degree 1 is in every tree, so such vertices are
    peeled off first, from a worklist kept with one degree count, and a
    tree or path costs no elimination."""
    pairs, at = g.arc_index_pairs, g.incidence
    degree = list(map(len, at))
    kept = [True] * len(pairs)
    leaves = [v for v, d in enumerate(degree) if d == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] == 1:  # 0 when its last arc went with its neighbour
            k = next(a for a, _, _ in at[v] if kept[a])
            kept[k] = False
            for w in pairs[k]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    pairs = list(compress(pairs, kept))
    vertices = dict.fromkeys(v for pair in pairs for v in pair)  # a tree peels to none: det 1
    index = {v: k for k, v in enumerate(vertices)}
    lap = [[0] * len(index) for _ in index]
    for i, j in pairs:
        i, j = index[i], index[j]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return abs(_eliminate([row[1:] for row in lap[1:]]) or 0)


def _eliminate(rows):
    """Fraction-free (Bareiss) Gauss-Jordan elimination, in place, of the
    leading k x k block of the k integer ``rows``, which may run on past
    it: every division is exact.  Returns d with |d| = |det| of the block,
    the block then being d times the identity and the rest of the rows d
    times the block's inverse applied to them; None when the block is
    singular."""
    k = len(rows)
    prev = 1
    for c in range(k):
        pivot = next((r for r in range(c, k) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        d = top[c]
        for i in range(k):
            if i != c:
                f = rows[i][c]
                rows[i] = [(d * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = d
    return prev


def _inverse_frame(generators):
    """(d, d * G^-1) for the square matrix G whose columns are
    ``generators``, by ``_eliminate`` on [G | I], so |d| = |det G|.  None
    when G is singular."""
    mu = len(generators)
    rows = [
        [col[k] for col in generators] + [int(k == c) for c in range(mu)]
        for k in range(mu)
    ]
    d = _eliminate(rows)
    return None if d is None else (d, tuple(tuple(row[mu:]) for row in rows))
