"""Periodic offset classes as shortest-path polyhedra on the doubled graph.

Fixing an integer offset vector p turns the feasibility region for
timetables into the potential polyhedron of the doubled graph weighted by
kappa(p): the forward copy of arc a carries u_a - T p_a, the reverse copy
T p_a - l_a.  The region is nonempty exactly when that weighting has no
negative cycle, and its Kleene star (all-pairs shortest paths), whose
rows are the tropical vertices, is the canonical inequality description.
One Bellman-Ford kernel, ``_potentials``, finds every shortest path here,
in exact integer arithmetic like everything else; when it fails, its
parent edges lead ``negative_cycle`` to the cycle that proves the class
empty.  One class kernel, ``_face_classes``, finds the equality classes
(vertices tied by a zero cycle) from any feasible potentials: of a
polytrope, for its dimension, and of the optimal face of a solve, for
``fixedlp``.  A ``Polytrope`` is its offset, cycle offset and dimension;
its Kleene star, n more runs, is built only when ``dist`` is read.
"""

from collections import namedtuple
from functools import cached_property

from .errors import DisconnectedGraph, EmptyPolytrope, Infeasible, NotATension
from .graphs import _require_connected, integers, tree_potentials


def kappa(inst, p):
    """Weighted edge list of the doubled graph for offset p.

    Returns (tail_index, head_index, weight) triples: first the forward
    copies of all arcs in arc order, then the reverse copies.  An offset of
    another length than the arc count raises ValueError.
    """
    _require_length(p, inst.graph.m, "offset", "arcs")
    T = inst.period
    return _doubled_edges(inst, [T * pa for pa in p])


def _doubled_edges(inst, base):
    """The doubled graph weighted by a tension ``base``: the forward copy
    of arc a carries u_a - base_a, the reverse copy base_a - l_a."""
    pairs = inst.graph.arc_index_pairs
    forward = [(i, j, inst.upper[a] - base[a]) for a, (i, j) in enumerate(pairs)]
    reverse = [(j, i, base[a] - inst.lower[a]) for a, (i, j) in enumerate(pairs)]
    return forward + reverse


def _potentials(n, edges, source=None, parent=None):
    """Bellman-Ford over ``edges`` (tail, head, weight): shortest path
    lengths phi, with phi_j <= phi_i + w on every edge, or None when the
    edges hold a negative cycle.  With no ``source`` every vertex starts
    at 0 (a virtual source), so phi is feasible potentials, all <= 0.
    With a ``source`` it starts at 0 and the rest at the sum of the
    positive weights, above every path length, so on a strongly connected
    edge set (every kappa(p) of a connected instance) phi is the source's
    row of the Kleene star.  A vertex still lowered in pass n proves a
    negative cycle and stops the run.  A dict ``parent`` gets the edge that
    lowered each vertex last, in lowering order (``negative_cycle``)."""
    if source is None:
        phi = [0] * n
    else:
        phi = [sum(w for _, _, w in edges if w > 0)] * n
        phi[source] = 0
    for k in range(n):
        changed = False
        for i, j, w in edges:
            if phi[i] + w < phi[j]:
                if parent is not None:
                    parent.pop(j, None)
                    parent[j] = (i, j, w)
                if k == n - 1:
                    return None
                phi[j] = phi[i] + w
                changed = True
        if not changed:
            break
    return phi


def negative_cycle(edges, parent):
    """The negative cycle of ``edges``, 2m doubled edges as from ``kappa``,
    as an oriented cycle gamma: +1 on the arcs whose forward copy it runs
    and -1 on those whose reverse copy it runs.  The ``parent`` edges of a
    failed ``_potentials`` run lead from the vertex lowered in pass n onto
    a cycle, and each such cycle is negative (Cherkassky & Goldberg, 1999)."""
    m = len(edges) // 2
    index = {edge: k for k, edge in enumerate(edges)}
    v = next(reversed(parent))
    for _ in parent:  # onto the cycle: the walk meets only vertices in parent
        v = parent[v][0]
    gamma = [0] * m
    for _ in parent:  # around it, as often as that many steps go
        k = index[parent[v]]
        gamma[k % m] = 1 if k < m else -1
        v = edges[k][0]
    return tuple(gamma)


def _face_classes(n, edges, phi, flow=None):
    """For each vertex, the smallest vertex tied to it by a zero cycle, and
    its offset delta_v = phi_v - phi_rep from that vertex: the equality
    classes of the face of the potential polyhedron of ``edges`` (tail,
    head, weight) on which every edge that carries ``flow`` is tight, or
    of the whole polyhedron when there is no flow.

    ``phi`` is feasible for the face graph (the edges plus the reversal of
    every edge that carries flow), so a cycle of that graph has length
    zero exactly when each of its edges has reduced cost zero: the classes
    are the strongly connected components of those edges, found in one
    iterative pass of Tarjan's algorithm (SIAM J. Comput. 1, 1972).
    """
    ahead = [[] for _ in range(n)]
    for k, (t, h, c) in enumerate(edges):
        if c + phi[t] == phi[h]:
            ahead[t].append(h)
            if flow and flow[k]:
                ahead[h].append(t)
    # order[v]: v's discovery number; low[v]: the least one v reaches
    # through its subtree and one edge back to ``stack``, which holds the
    # vertices found and not yet given their rep.
    rep, order, low, stack, found = [None] * n, [None] * n, [0] * n, [], 0
    for root in range(n):
        if order[root] is not None:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        path = [(root, iter(ahead[root]))]
        while path:
            v, heads = path[-1]
            for w in heads:
                if order[w] is None:
                    order[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    path.append((w, iter(ahead[w])))
                    break
                if rep[w] is None and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:  # v roots a component: it and all above it
                    start = len(stack) - 1
                    while stack[start] != v:
                        start -= 1
                    component = stack[start:]
                    del stack[start:]
                    least = min(component)
                    for u in component:
                        rep[u] = least
    return rep, [phi[v] - phi[r] for v, r in enumerate(rep)]


def tension_system_feasible(inst, base):
    """Is there a real x with l <= x <= u and x = base - B^T pi for some pi?

    ``base`` is any integer particular solution; the system reduces to
    difference constraints, so feasibility is the absence of a negative
    cycle under weights u_a - base_a (forward) and base_a - l_a (reverse).
    A base of another length than the arc count raises ValueError.
    """
    _require_length(base, inst.graph.m, "base", "arcs")
    return _potentials(inst.graph.n, _doubled_edges(inst, base)) is not None


def polytrope_nonempty(inst, p):
    return _potentials(inst.graph.n, kappa(inst, p)) is not None


class Polytrope(namedtuple("Polytrope", "offset cycle_offset dimension instance")):
    """One offset class: canonical offset p, key z, and dimension, -1 for
    the empty class, else one less than the number of its equality classes.
    ``dist``, the Kleene star of kappa(p) (None for the empty class), runs
    its n rows on first read and keeps them in the record's __dict__."""

    @property
    def nonempty(self):
        return self.dimension >= 0

    @property
    def n(self):
        return self.instance.graph.n

    @cached_property
    def dist(self):
        if not self.nonempty:
            return None
        edges = kappa(self.instance, self.offset)
        # kappa(p) is strongly connected, so each run from a source is its row.
        return tuple(tuple(_potentials(self.n, edges, i)) for i in range(self.n))


def polytrope_build(inst, basis, p):
    """The polytrope of offset p, built from its class's canonical offset.
    An offset of another length than the arc count raises ValueError."""
    _require_length(p, inst.graph.m, "offset", "arcs")
    z = basis.apply(integers(p))
    # Offsets with the same cycle offset describe the same torus region, so
    # build from the canonical class representative; dist then depends on z
    # only, not on which preimage the caller happened to pass.
    p = offset_for(inst, basis, z)
    _require_connected(inst.graph)
    edges = kappa(inst, p)
    return _polytrope(inst, z, p, edges, _potentials(inst.graph.n, edges))


def _polytrope(inst, z, p, edges, phi):
    """The polytrope of cycle offset z, canonical offset p and kappa(p) =
    ``edges``, from any feasible potentials ``phi`` (None: it is empty)."""
    dimension = -1 if phi is None else len(set(_face_classes(inst.graph.n, edges, phi)[0])) - 1
    return Polytrope(p, z, dimension, inst)


def normalize_timetable(pi, root, period):
    """Shift so the root entry is 0 and reduce all entries into [0, period)."""
    base = pi[root]
    return tuple((x - base) % period for x in pi)


def _root_index(g, root):
    if root is None:
        return 0
    if root in g.vertices:
        return g.vertices.index(root)
    raise ValueError(f"unknown vertex {root!r}")


def anchor_timetable(pi, root_index):
    """Shift so the root entry is 0, without folding into [0, period).

    Folding can move a boundary vertex off its supporting inequalities, so
    vertex computations keep the plain shifted representative (an entry of
    exactly the period is legitimate there).
    """
    base = pi[root_index]
    return tuple(x - base for x in pi)


def tropical_vertices(poly, root=None):
    """The n generating timetables: row i of the distance matrix, anchored
    at the root vertex (default: first declared vertex).  Every returned
    timetable satisfies each canonical inequality pi_j - pi_i <= dist(i,
    j) of the class."""
    if not poly.nonempty:
        raise EmptyPolytrope("empty class has no tropical vertices")
    r = _root_index(poly.instance.graph, root)
    return tuple(anchor_timetable(row, r) for row in poly.dist)


def _require_length(values, count, what, unit):
    """Raise ValueError unless ``values`` has ``count`` entries, one per
    ``unit`` of the instance."""
    if len(values) != count:
        raise ValueError(f"{what} has {len(values)} entries, the instance has {count} {unit}")


def timetable_to_tension(inst, pi):
    """Per-arc tension and offset induced by a timetable.

    For arc a = (i, j) the offset p_a is the least integer putting
    pi_j - pi_i + T p_a at or above the lower bound; the arc is violated
    when that value overshoots the upper bound.  Raises Infeasible listing
    all violated arcs.
    """
    _require_length(pi, inst.graph.n, "timetable", "vertices")
    T = inst.period
    x, p, bad = [], [], []
    for a, (i, j) in enumerate(inst.graph.arc_index_pairs):
        d = pi[j] - pi[i]
        pa = -((d - inst.lower[a]) // T)
        xa = d + T * pa
        if xa > inst.upper[a]:
            bad.append(a)
        x.append(xa)
        p.append(pa)
    if bad:
        raise Infeasible(f"timetable violates arcs {bad}", bad)
    return tuple(x), tuple(p)


def tension_to_timetable(inst, x, root=None):
    """Recover a timetable from a periodic tension by propagating along a
    spanning tree from the root; raises NotATension if x is out of bounds
    or fails to close up modulo T on some arc, and DisconnectedGraph if
    the arcs do not reach every vertex."""
    g = inst.graph
    T = inst.period
    _require_length(x, g.m, "tension", "arcs")
    for a in range(g.m):
        if not inst.lower[a] <= x[a] <= inst.upper[a]:
            raise NotATension(f"arc {a}: {x[a]} outside [{inst.lower[a]}, {inst.upper[a]}]")
    pi = tree_potentials(g, range(g.m), x, _root_index(g, root))
    if None in pi:
        raise DisconnectedGraph(f"graph on {g.n} vertices with {g.m} arcs is not connected")
    for a, (i, j) in enumerate(g.arc_index_pairs):
        if (pi[j] - pi[i] - x[a]) % T != 0:
            raise NotATension(f"arc {a} does not close up modulo {T}")
    return tuple(v % T for v in pi)


def offset_from_cycle_offset(basis, z):
    """An integer offset p with Gamma p = z: 0 off the co-tree C of
    ``basis.cotree_frame`` and Gamma_C^-1 z on it.  For a fundamental basis
    Gamma_C = I, so p is z on the co-tree arcs and 0 on tree arcs.  Any two
    preimages differ by an integer cut, so they describe the same torus
    region."""
    if basis.mu == 0:
        raise ValueError("cannot size the offset vector of an empty basis")
    if len(z) != basis.mu:
        raise ValueError(f"cycle offset has {len(z)} entries, the basis has {basis.mu} rows")
    _, d, entries = basis.cotree_frame
    if not d:
        raise ValueError("cycle matrix does not have full row rank")
    p = [0] * len(basis.gamma[0])
    for a, c, k in entries:
        p[a] += c * z[k]
    if d != 1:
        if any(v % d for v in p):
            raise ValueError("no integer offset maps to this cycle offset")
        p = [v // d for v in p]
    return tuple(p)


def cycle_offset_form(basis, y):
    """The linear form y of offset space in cycle-offset coordinates: (ty,
    d) with y.p = ty.z / d for p = ``offset_from_cycle_offset(basis, z)``."""
    _, d, entries = basis.cotree_frame
    ty = [0] * basis.mu
    for a, c, k in entries:
        ty[k] += c * y[a]
    return ty, d


def offset_zero(inst):
    return (0,) * inst.graph.m


def offset_for(inst, basis, z):
    """The canonical offset of cycle offset z: ``offset_from_cycle_offset``,
    or the zero offset when the basis is empty (a tree instance)."""
    return offset_from_cycle_offset(basis, z) if basis.mu else offset_zero(inst)


def steps(basis, z):
    """The distinct cycle offsets one signed Gamma column away from z: a
    set, so an offset reached both as z + c and as z - (-c) appears once.
    A z of another length than the basis raises ValueError."""
    if len(z) != basis.mu:
        raise ValueError(f"cycle offset has {len(z)} entries, the basis has {basis.mu} rows")
    z = integers(z)
    return {
        tuple(v + sign * c for v, c in zip(z, col)) for col in basis.moves for sign in (1, -1)
    }


def neighbors(inst, basis, z):
    """Nonempty classes one signed Gamma column away from z, each distinct
    ``steps`` offset tested once."""
    return {
        z2
        for z2 in steps(basis, z)
        if polytrope_nonempty(inst, offset_from_cycle_offset(basis, z2))
    }
