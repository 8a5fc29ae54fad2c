"""The cycle offset zonotope: descriptor, box, width, lattice points,
volume, spanning tree tilings, and the width bound chain.

Every coordinate in this module is stored scaled by the period T so that
all arithmetic stays on integers; the real value is the stored value
divided by T.  A point is a lattice point exactly when every scaled
coordinate is divisible by T.

``BoxSearch`` is the one search over prefixes of the Odijk box it builds,
for ``search.OffsetMemo`` and the lattice walk of ``lattice_points`` and
``enumerate_polytropes`` (key (0, prefix), in sorted box order); forms
enter only as ``learn_row``'s Odijk rows and ``learn_cut``'s cuts, and
its ``leaves`` are the one record of the points it solved.
One ``TileKernel`` per (inst, basis) builds the tiles a structure implies,
for ``fine_tiling`` and ``validate_tiling``, from two tables that fill
themselves on lookup, and holds the volume, one Gram determinant, that
they and ``width_bound_report`` read.  A foreign tile,
and ``tile_contains_scaled``, test points against the frame (d, d * G^-1)
of ``graphs._inverse_frame``.  ``duality_check`` compares each tile's
pinned timetable with the root's row of the Kleene star.  Fractions
appear only in volumes and the width bound chain, which computes in
integers and builds one Fraction per value it reports.

No enumeration here is refused for the size of its box.  Each charges
the command's ``graphs.Budget`` as it works: a node graded or a point
tested, a root's row in ``duality_check``, a foreign tile's 2^mu corners,
and a tiling mu units a tile, its Kirchhoff count, before the first tile.
That count is the graph's one ``count_spanning_trees_determinant``, which
``width_bound_report`` reads too: one Laplacian elimination per graph.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from heapq import heappop, heappush

from .errors import EnumerationCapExceeded, FixedArcPresent, InvariantViolation
from .graphs import (
    Budget,
    _eliminate,
    _inverse_frame,
    _require_connected,
    count_spanning_trees_determinant,
    grow_spanning_trees,
    spanning_tree_walk,
    tree_potentials,
)
from .polytropes import (
    _polytrope,
    _potentials,
    _root_index,
    anchor_timetable,
    cycle_offset_form,
    kappa,
    negative_cycle,
    offset_for,
    offset_from_cycle_offset,
    tension_system_feasible,
)


class ZonotopeDescriptor(namedtuple("ZonotopeDescriptor", "basis period generators translation")):
    """Exact T-scaled generator presentation of the cycle offset zonotope.

    ``generators[a]`` is the basis column of arc a scaled by its span
    u_a - l_a; ``translation`` is the basis matrix applied to the lower
    bounds.  Divide by ``period`` to recover real coordinates.
    """

    __slots__ = ()

    @property
    def mu(self):
        return self.basis.mu


def zonotope_descriptor(inst, basis):
    for a in range(inst.graph.m):
        if inst.lower[a] == inst.upper[a]:
            raise FixedArcPresent(f"arc {a} has zero span; contract fixed arcs first")
    generators = _scaled_columns(inst, basis)
    return ZonotopeDescriptor(basis, inst.period, generators, basis.apply(inst.lower))


def _scaled_columns(inst, basis):
    """The T-scaled generator of every arc: its basis column times its span."""
    span = inst.span
    return tuple(
        tuple(row[a] * span[a] for row in basis.gamma) for a in range(inst.graph.m)
    )


def odijk_box(inst, basis):
    """Per-cycle interval of admissible (real) cycle offsets, T-scaled:
    row k spans [sum of lower bounds along the cycle minus upper bounds
    against it, and vice versa].  The box is the tightest axis-aligned one
    containing the zonotope."""
    return tuple(odijk_range(inst, row) for row in basis._sparse_rows)


def odijk_range(inst, terms):
    """(lo, hi), the range of row.x over the arc bounds for the (arc,
    coefficient) pairs of a row, its nonzeros or all: for an oriented cycle,
    every periodic tension meets lo <= T (row.p) <= hi, Odijk's inequality."""
    lo = sum(s * (inst.lower[a] if s > 0 else inst.upper[a]) for a, s in terms)
    hi = sum(s * (inst.upper[a] if s > 0 else inst.lower[a]) for a, s in terms)
    return lo, hi


def _box_integer_ranges(inst, basis):
    T = inst.period
    return [range(-(-lo // T), hi // T + 1) for lo, hi in odijk_box(inst, basis)]


def width(inst, basis):
    """Product over basis cycles of how many integers the cycle offset can
    take inside the box; equals the number of lattice points of the box."""
    return math.prod(len(r) for r in _box_integer_ranges(inst, basis))


def scaled_point_in_zonotope(inst, basis, point):
    """Membership of an arbitrary T-scaled integer point (not necessarily a
    lattice point): is there a real tension x in the bound box with
    basis matrix times x equal to the point?  The integer preimage of the
    point under ``basis.cotree_frame`` is one particular solution, which
    needs an integral basis (|d| = 1); any other raises ValueError."""
    if basis.mu == 0:
        return tuple(point) == ()
    _require_integral(basis)
    return tension_system_feasible(inst, offset_from_cycle_offset(basis, point))


def _require_integral(basis):
    d = abs(basis.cotree_frame[1])
    if d != 1:
        raise ValueError(f"basis is not integral: its co-tree minors have |det| {d}, not 1")


def odijk_row(inst, basis, gamma):
    """The Odijk row (ty, lo, hi) of the oriented cycle gamma, lo <= ty.z <=
    hi for every nonempty z: gamma.p = ty'.z / d (``cycle_offset_form``) in
    lo' <= T gamma.p <= hi' (``odijk_range``) gives ty = sign(d) ty',
    lo = ceil(lo' |d| / T) and hi = floor(hi' |d| / T)."""
    (ty, d), T = cycle_offset_form(basis, gamma), inst.period
    lo, hi = odijk_range(inst, tuple(enumerate(gamma)))
    return [v if d > 0 else -v for v in ty], -(-lo * abs(d) // T), hi * abs(d) // T


def suffix_extremes(ty, box):
    """(low, high): low[k] and high[k] the least and greatest ty.z over the
    box rows k.., so low[mu] = high[mu] = 0."""
    low, high = [0], [0]
    for t, r in zip(reversed(ty), reversed(box)):
        a, b = (t * r[0], t * r[-1]) if t >= 0 else (t * r[-1], t * r[0])
        low.append(low[-1] + a)
        high.append(high[-1] + b)
    return low[::-1], high[::-1]


class BoxSearch:
    """One best-first search over the prefixes of the points of the Odijk
    box of (inst, basis).  Learned ``forms`` (ty, low, high, lo, hi, const),
    low[k] and high[k] the least and greatest ty.z over box rows k..: a cut
    (``learn_cut``), objective >= const + ty.z, or a row (``learn_row``,
    const None), lo <= ty.z <= hi if z is nonempty.  ``leaves`` is the one
    record of what the search found: the answer a leaf keeps of each whole z
    it solved, None for an empty one.  Every node graded and every leaf is
    one unit of ``budget`` (None: a fresh ``Budget``), charged to ``layer``."""

    def __init__(self, inst, basis, budget, layer):
        self.inst, self.basis = inst, basis
        self.box = _box_integer_ranges(inst, basis)
        self.forms = []
        self.leaves = {}
        self.budget = budget or Budget()
        self.layer = layer

    def learn_row(self, z, gamma):
        """Learn the ``odijk_row`` of gamma, the negative cycle of the empty
        offset z; one that leaves z open or rules out a z2 of ``leaves``
        that holds an answer (not None) raises InvariantViolation."""
        ty, lo, hi = odijk_row(self.inst, self.basis, gamma)
        if lo <= sum(map(int.__mul__, ty, z)) <= hi:
            raise InvariantViolation(f"the row learned at the empty offset {z} leaves it open")
        for z2, answer in self.leaves.items():
            if answer is not None and not lo <= sum(map(int.__mul__, ty, z2)) <= hi:
                raise InvariantViolation(f"the row of {z} rules out {z2}, which is nonempty")
        self.forms.append((ty, *suffix_extremes(ty, self.box), lo, hi, None))

    def learn_cut(self, z, const, slope):
        """Learn the cut const + T slope.p of a solved offset's flow as const
        + ty.z, ty the ``cycle_offset_form`` of slope times T d (d = +-1 on
        an integral basis); returns its value at z."""
        ty, d = cycle_offset_form(self.basis, slope)
        ty = [self.inst.period * d * v for v in ty]
        self.forms.append((ty, *suffix_extremes(ty, self.box), None, None, const))
        return const + sum(map(int.__mul__, ty, z))

    def grade(self, prefix, relax, sums):
        """The heap entry (lower, prefix, relax, sums) of a prefix whose sums
        ty.prefix of the learned forms are ``sums``, or None when a row rules
        out all its completions; each cut may raise ``relax`` to lower."""
        k, lower = len(prefix), relax
        for s, (_, low, high, lo, hi, const) in zip(sums, self.forms):
            if const is not None:
                lower = max(lower, const + s + low[k])
            elif s + low[k] > hi or s + high[k] < lo:
                return None
        return lower, prefix, relax, sums

    def run(self, nodes, best, relax, leaf):
        """The least (objective, z) below ``best`` of the optima ``leaf``
        returns (None: none), or ``best``, searching from the (relax, prefix)
        ``nodes`` while the least (lower, prefix) is below the best so far;
        ``relax`` gives a child its relax.  A popped node, but a whole z in
        ``leaves``, is dropped or pushed back when forms learned since its
        push rule it out or raise its lower; else it is expanded or, as a
        whole z, handed with its lower and relax to ``leaf``.  The error of a
        budget that runs out gets the ``gap`` (least open lower, best or None)."""
        box, forms, leaves = self.box, self.forms, self.leaves
        charge, layer = self.budget.charge, self.layer
        heap = sorted((r, p, r, []) for r, p in nodes if r is not None)  # sorted: a heap
        start = best
        try:
            while heap and heap[0] < best:
                lower, prefix, own, sums = heappop(heap)
                if len(sums) < len(forms) and prefix not in leaves:
                    sums += [sum(map(int.__mul__, f[0], prefix)) for f in forms[len(sums) :]]
                    charge(layer)
                    entry = self.grade(prefix, own, sums)
                    if entry is None or entry[0] > lower:
                        if entry is not None:
                            heappush(heap, entry)
                        continue
                k = len(prefix)
                if k == len(box):
                    charge(layer)
                    found = leaf(prefix, lower, own)
                    if found is not None:
                        best = min(best, (found.objective, prefix))
                    continue
                charge(layer, len(box[k]))
                coefficients = [(s, f[0][k]) for s, f in zip(sums, forms)]
                for v in box[k]:
                    child = prefix + (v,)
                    entry = self.grade(child, relax(child), [s + t * v for s, t in coefficients])
                    if entry is not None and entry < best:
                        heappush(heap, entry)
        except EnumerationCapExceeded as stop:
            stop.gap = lower, None if best is start else best[0]
            raise
        return best


def lattice_points(inst, basis, budget=None):
    """The feasible cycle offsets, in sorted order, by the ``BoxSearch``
    with key (0, prefix) and one Bellman-Ford per point it reaches, charged
    to ``budget`` (None: a fresh ``Budget``)."""
    return _lattice_walk(inst, basis, budget, lambda z, p, edges, phi: z)


def enumerate_polytropes(inst, basis, budget=None):
    """The polytropes of the ``lattice_points``, from the same walk and
    charged to ``budget`` alike: each point's dimension is read off the
    potentials its Bellman-Ford found, and no Kleene-star row is built.
    DisconnectedGraph before any Bellman-Ford."""
    _require_connected(inst.graph)
    return _lattice_walk(inst, basis, budget, partial(_polytrope, inst))


def _lattice_walk(inst, basis, budget, keep):
    """``keep(z, p, edges, phi)`` of each lattice point z in sorted order,
    p its offset, ``edges`` kappa(p) and phi its Bellman-Ford's potentials,
    read off the search's ``leaves``, which fill in sorted box order and
    hold None at each empty z."""
    search = BoxSearch(inst, basis, budget, "lattice points")
    box, leaves = search.box, search.leaves
    if not all(box):
        return ()
    # Under a basis that is not integral, the corner (each r[False]), the
    # search's first point, and its unit steps generate the box modulo the
    # offset lattice: one raises ValueError if any point has no integer offset.
    for k in (k for k, r in enumerate(box) if len(r) > 1 and abs(basis.cotree_frame[1]) != 1):
        offset_for(inst, basis, tuple(r[j == k] for j, r in enumerate(box)))

    def leaf(z, lower, relax):
        p = offset_for(inst, basis, z)
        edges, parent = kappa(inst, p), {}
        phi = _potentials(inst.graph.n, edges, parent=parent)
        if phi is None:
            search.learn_row(z, negative_cycle(edges, parent))
        leaves[z] = None if phi is None else keep(z, p, edges, phi)

    search.run([(0, ())], (1, ()), lambda prefix: 0, leaf)
    return tuple(kept for kept in leaves.values() if kept is not None)


def volume(inst, basis):
    """Exact volume |det(G diag(s) G^t)| / (d * T^mu): G is the basis
    matrix, s the arc spans, and d = |det G_C| on the co-tree columns C of
    ``basis.cotree_frame``.  By Cauchy-Binet the determinant sums
    det(G_C)^2 times the spans in C over all mu-column sets C, and
    |det G_C| is d on every co-tree and 0 elsewhere, so the quotient is
    the sum of the tile volumes.  d = 1 for integral bases.  The Gram
    matrix is summed column by column over ``basis._sparse_rows``."""
    columns = [[] for _ in inst.span]
    for k, row in enumerate(basis._sparse_rows):
        for a, x in row:
            columns[a].append((k, x))
    gram = [[0] * basis.mu for _ in range(basis.mu)]
    for s, column in zip(inst.span, columns):
        for k, x in column:
            for q, y in column:
                gram[k][q] += s * x * y
    d = abs(basis.cotree_frame[1])
    # Dependent rows make every minor vanish, d included.
    return Fraction(abs(_eliminate(gram) or 0), d * inst.period**basis.mu) if d else Fraction(0)


class SpanningTreeStructure(namedtuple("SpanningTreeStructure", "tree at_lower at_upper")):
    """A spanning tree with every arc pinned to one of its bounds."""

    __slots__ = ()

    def __new__(cls, tree, at_lower, at_upper):
        tree, at_lower, at_upper = tuple(sorted(tree)), frozenset(at_lower), frozenset(at_upper)
        if at_lower | at_upper != set(tree) or at_lower & at_upper:
            raise ValueError("lower/upper arcs must partition the tree")
        return tuple.__new__(cls, (tree, at_lower, at_upper))


def structure_for_tree(g, tree, root=None):
    """Pin each tree arc by orienting the tree away from the root: arcs
    used in their native direction go to the upper side, reversed ones to
    the lower side."""
    steps = spanning_tree_walk(g, tree, _root_index(g, root))
    return SpanningTreeStructure(
        tuple(tree),
        frozenset(a for _, _, a, s in steps if s < 0),
        frozenset(a for _, _, a, s in steps if s > 0),
    )


class Tile(namedtuple("Tile", "structure generators translation lattice_point")):
    """Parallelotope tile of the zonotope: co-tree generator columns placed
    at the translation determined by the pinned tree arcs.  All T-scaled."""

    __slots__ = ()

    @property
    def mu(self):
        return len(self.generators)


def _pinned_tensions(inst, structure):
    """Tree arcs at the bound their structure pins them to, co-tree arcs at
    their lower bound."""
    x = list(inst.lower)
    for a in structure.at_upper:
        x[a] = inst.upper[a]
    return x


def _frame_contains(frame, translation, scaled_point):
    """Is the scaled point in the tile whose generator frame is ``frame``:
    every coordinate of (d * G^-1)(point - translation) between 0 and d.
    A singular tile (``frame`` None) contains nothing."""
    if frame is None:
        return False
    d, adj = frame
    lo, hi = (0, d) if d > 0 else (d, 0)
    offset = [p - t for p, t in zip(scaled_point, translation)]
    for row in adj:
        v = sum(a * x for a, x in zip(row, offset))
        if v < lo or v > hi:
            return False
    return True


def tile_contains_scaled(tile, scaled_point):
    return _frame_contains(_inverse_frame(tile.generators), tile.translation, scaled_point)


class _Table(dict):
    """A memo whose lookup of a missing key builds, stores and returns
    ``build(key)``."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _build_cotree(columns, all_rows, span, d, arcs, tree):
    """The co-tree entry (rows, generators, |det|) of the sorted ``tree``."""
    rows, generators, det = [], [], d
    # One loop for all three: a comprehension each took twice as long.
    for a in sorted(arcs.difference(tree)):
        rows.append(all_rows[a])
        generators.append(columns[a])
        det *= span[a]
    return rows, tuple(generators), det


def _build_translation(columns, base, at_upper):
    """``base`` plus the scaled columns of the arcs of ``at_upper``."""
    return tuple(map(sum, zip(base, *[columns[a] for a in at_upper])))


class TileKernel:
    """The tiles one (inst, basis) implies, built from their parts.

    Per instance it reads the scaled columns, one row (i, j, l_a, u_a,
    Gamma column of a) per arc a = (i, j), Gamma l and d = |d| of
    ``basis.cotree_frame``, and hands them to two tables that fill
    themselves on lookup: ``cotrees[tree]``, per sorted tree, its co-tree
    entry (rows, generators, |det|): the co-tree's rows, its scaled columns
    and d * the co-tree spans; and ``translations[at_upper]``, per
    frozenset of arcs pinned at their upper bound, the translation Gamma l
    + their scaled columns.  Lattice points depend on the potentials of the
    pinned tensions and are computed per tile by ``points``, never stored."""

    def __init__(self, inst, basis):
        self.inst = inst
        self.basis = basis
        self._period = inst.period
        self._origin = (0,) * basis.mu
        span = inst.span
        # Gamma's columns, read once for the rows and the scaled columns.
        columns = list(zip(*basis.gamma)) or [()] * inst.graph.m
        scaled = [tuple(c * s for c in col) for col, s in zip(columns, span)]
        rows = [
            (i, j, lower, upper, col)
            for (i, j), lower, upper, col in zip(
                inst.graph.arc_index_pairs, inst.lower, inst.upper, columns
            )
        ]
        d, arcs = abs(basis.cotree_frame[1]), frozenset(range(inst.graph.m))
        # The builders hold the kernel's parts, not the kernel: bound methods
        # put each kernel in a reference cycle, and the zonotope-analyze
        # benchmark ran about 5 % slower.
        self.cotrees = _Table(partial(_build_cotree, scaled, rows, span, d, arcs))
        self.translations = _Table(partial(_build_translation, scaled, basis.apply(inst.lower)))

    @cached_property
    def zonotope_volume(self):
        """``volume`` of the kernel's instance and basis."""
        return volume(self.inst, self.basis)

    def points(self, entry, pi):
        """The lattice points, unsorted, of the tile with the co-tree
        ``entry`` whose pinned tensions have the potentials ``pi``: Gamma p
        for the offsets p that are 0 on the tree and have
        l_a <= pi_j - pi_i + T p_a <= u_a on each co-tree arc a = (i, j).
        Each point is a sum of the Gamma columns of its co-tree arcs.  A
        flat tile, |det| 0 from a zero-span co-tree arc or from d = 0,
        holds no point."""
        rows, _, det = entry
        if not det:
            return []
        T = self._period
        choices = []
        for i, j, lower, upper, column in rows:
            delta = pi[j] - pi[i]
            first, last = -((delta - lower) // T), (upper - delta) // T
            if first > last:
                return []
            if first or last:
                choices.append((column, range(first, last + 1)))
        points = [self._origin]
        for column, picks in choices:
            points = [
                tuple(x + p * c for x, c in zip(point, column)) for point in points for p in picks
            ]
        return points


def _own_kernel(inst, basis, kernel):
    """``kernel``, or a fresh ``TileKernel`` when it is None; a kernel of
    another instance or basis raises ValueError."""
    if kernel is None:
        return TileKernel(inst, basis)
    if kernel.inst is not inst or kernel.basis is not basis:
        raise ValueError("the tile kernel belongs to another instance or basis")
    return kernel


def fine_tiling(inst, basis, root=None, kernel=None, budget=None):
    """One tile per spanning tree, pinned by the root orientation (upper
    bounds on the arcs run away from the root), in sorted tree order, with
    the first lattice point it contains or None.  ``grow_spanning_trees``
    hands each tree its potentials, so no tree is walked.  ``kernel`` is a
    ``TileKernel`` of the same instance and basis to share (None: a fresh
    one).  A tile is mu units of ``budget`` (None: a fresh ``Budget``), all
    charged by the Kirchhoff count before the first."""
    g = inst.graph
    kernel = _own_kernel(inst, basis, kernel)
    (budget or Budget()).charge("tiling", basis.mu * count_spanning_trees_determinant(g))
    cotrees, translations, points = kernel.cotrees, kernel.translations, kernel.points
    new = tuple.__new__
    tiles = []

    def add_tile(grown, run_toward, run_away, pi):
        tree = tuple(sorted(grown))
        at_upper = frozenset(run_away)
        entry = cotrees[tree]
        held = points(entry, pi)
        # Built by tuple.__new__: the grown frozensets partition the sorted
        # tree, so the structure's check could find nothing.
        structure = new(SpanningTreeStructure, (tree, frozenset(run_toward), at_upper))
        shift = translations[at_upper]
        tiles.append(new(Tile, (structure, entry[1], shift, min(held) if held else None)))

    grow_spanning_trees(g, add_tile, inst.upper, inst.lower, _root_index(g, root))
    tiles.sort(key=lambda tile: tile.structure.tree)
    return tuple(tiles)


class TilingReport(
    namedtuple(
        "TilingReport",
        "tile_count nondegenerate tile_volume_sum zonotope_volume volume_match tiles_inside"
        " all_points_covered at_most_one_point lattice_points_recorded incidences",
    )
):
    __slots__ = ()

    @property
    def ok(self):
        return (
            self.nondegenerate
            and self.volume_match
            and self.tiles_inside
            and self.all_points_covered
            and self.at_most_one_point
            and self.lattice_points_recorded
        )


def validate_tiling(inst, basis, tiles, points=None, kernel=None, budget=None):
    """Certify a tiling: nonzero tile volumes summing exactly to the
    zonotope volume, every tile inside the zonotope, the tiles' lattice
    points exactly ``points`` (the sorted ``lattice_points``, computed
    here when not given), no tile holding two of them, and each tile's
    recorded ``lattice_point`` the first it holds (None when none).

    An implied tile, one ``fine_tiling`` would build from its structure,
    is inside by construction, has the |det| of its ``TileKernel`` co-tree
    entry, and holds the points its own potentials give: each tile's
    potentials are recomputed here, ``tree_potentials`` of its tree under
    its ``_pinned_tensions``, and no point is taken from the tiling.  Any
    other, foreign, tile takes |det| and points from its frame and has its
    vertices tested one by one.
    Independent of the walk: the volume match (Cauchy-Binet sums
    d * (co-tree spans) over all co-trees), the cover (equality with the
    Bellman-Ford ``lattice_points``), and ``duality_check``.  ``kernel``
    is shared as in ``fine_tiling``; the points and the corners of foreign
    tiles are charged to ``budget`` (None: a fresh ``Budget``)."""
    T = inst.period
    kernel = _own_kernel(inst, basis, kernel)
    budget = budget or Budget()
    if points is None:
        points = lattice_points(inst, basis, budget)
    vol = kernel.zonotope_volume
    g = inst.graph
    cotrees, translations, points_of = kernel.cotrees, kernel.translations, kernel.points
    dets, inside, held = [], [], []
    for tile in tiles:
        structure = tile.structure
        tree = structure.tree
        pi = tree_potentials(g, tree, _pinned_tensions(inst, structure))
        # A tree that does not reach every vertex implies no tile.
        if None not in pi:
            entry = cotrees[tree]
            if entry[1] == tile.generators and translations[structure.at_upper] == tile.translation:
                dets.append(entry[2])
                inside.append(True)
                held.append(sorted(points_of(entry, pi)))
                continue
        frame = _inverse_frame(tile.generators)
        dets.append(abs(frame[0]) if frame else 0)
        inside.append(_tile_inside(inst, basis, tile, budget))
        scaled = ((z, [T * v for v in z]) for z in points)
        held.append([z for z, x in scaled if _frame_contains(frame, tile.translation, x)])
    tile_sum = Fraction(sum(dets), T**basis.mu)
    by_point = sorted((z, t) for t, h in enumerate(held) for z in h)
    return TilingReport(
        tile_count=len(tiles),
        nondegenerate=all(dets),
        tile_volume_sum=tile_sum,
        zonotope_volume=vol,
        volume_match=tile_sum == vol,
        tiles_inside=all(inside),
        all_points_covered={z for z, _ in by_point} == set(points),
        at_most_one_point=all(len(h) <= 1 for h in held),
        lattice_points_recorded=all(
            tile.lattice_point == next(iter(h), None) for tile, h in zip(tiles, held)
        ),
        incidences=tuple((t, z) for z, t in by_point),
    )


def _tile_inside(inst, basis, tile, budget):
    """Every vertex of the tile, and so the tile, lies in the zonotope; its
    2^mu vertices are charged to ``budget`` before the first test."""
    budget.charge("tile corners", 2 ** len(tile.generators))
    vertices = [tile.translation]
    for col in tile.generators:
        vertices += [tuple(v + c for v, c in zip(vertex, col)) for vertex in vertices]
    return all(scaled_point_in_zonotope(inst, basis, vertex) for vertex in vertices)


class DualityEntry(
    namedtuple(
        "DualityEntry",
        "tile_index cycle_offset tension timetable feasible_vertex matches_tropical_vertex",
    )
):
    __slots__ = ()


class DualityReport(namedtuple("DualityReport", "entries")):
    __slots__ = ()

    @property
    def checked(self):
        return len(self.entries)

    @property
    def ok(self):
        return all(e.feasible_vertex and e.matches_tropical_vertex for e in self.entries)


def duality_check(inst, basis, root=None, tiles=None, budget=None):
    """For every tile holding a lattice point z: pinning the tree arcs to
    their bounds extends to a feasible tension whose timetable is the
    root's tropical vertex of the offset class of z.  ``tiles`` is the
    ``fine_tiling`` for the same root, built here when not given; it and
    each Kleene-star row are charged to ``budget`` (None: a fresh ``Budget``).

    The root's tropical vertex is the root's row of the Kleene star of
    kappa(p) for the canonical offset p of z, so each distinct z takes p
    and one Bellman-Ford from the root, and no polytrope is built.  A
    negative cycle (an empty class) matches nothing."""
    g = inst.graph
    T = inst.period
    ridx = _root_index(g, root)
    budget = budget or Budget()
    if tiles is None:
        tiles = fine_tiling(inst, basis, root, budget=budget)
    entries, rows = [], {}  # z -> (its offset p, the root's row or None for a negative cycle)
    for t, tile in enumerate(tiles):
        z = tile.lattice_point
        if z is None:
            continue
        if z not in rows:
            budget.charge("Kleene-star rows")
            p = offset_for(inst, basis, z)
            rows[z] = p, _potentials(g.n, kappa(inst, p), ridx)
        p, row = rows[z]
        structure = tile.structure
        x = _pinned_tensions(inst, structure)
        pi = tree_potentials(g, structure.tree, [v - T * q for v, q in zip(x, p)], ridx)
        feasible = True
        for a, (i, j) in enumerate(g.arc_index_pairs):
            if a not in structure.tree:
                x[a] = pi[j] - pi[i] + T * p[a]
            if not inst.lower[a] <= x[a] <= inst.upper[a]:
                feasible = False
        timetable = anchor_timetable(tuple(pi), ridx)
        matches = row is not None and timetable == tuple(row)
        entries.append(DualityEntry(t, z, tuple(x), timetable, feasible, matches))
    return DualityReport(tuple(entries))


class WidthBoundReport(
    namedtuple(
        "WidthBoundReport",
        "width mu num_spanning_trees epsilon volume cycle_slacks cycle_lengths lower_bound"
        " slack_product refined_upper coarse_upper chain_holds strict_upper_vacuous"
        " trees_within_length_product infeasible infeasible_cycles",
    )
):
    __slots__ = ()

    @property
    def ok(self):
        if self.infeasible:
            return False
        return self.chain_holds and self.trees_within_length_product


def width_bound_report(inst, basis, kernel=None):
    """Exact rational sandwich for the zonotope volume in terms of the
    width, plus the spanning-tree versus cycle-length product comparison.
    A width of zero short-circuits into infeasibility evidence.  ``kernel``
    is a ``TileKernel`` of the same instance and basis to take the volume of.

    Each row k's slack is s_k / T for the integer sum s_k of its arc spans,
    so the chain is integer products over the common denominator T^mu:
    lower trees eps^mu, slack product prod s_k, and refined upper
    W prod s_k / prod max(floor(s_k / T), 1); one Fraction per value."""
    T = inst.period
    mu = basis.mu
    ranges = _box_integer_ranges(inst, basis)
    w = math.prod(map(len, ranges))
    trees = count_spanning_trees_determinant(inst.graph)
    span = inst.span
    eps = min(span) if span else 0
    vol = (volume(inst, basis) if kernel is None
           else _own_kernel(inst, basis, kernel).zonotope_volume)
    rows = basis._sparse_rows
    sums = [sum([span[a] for a, _ in row]) for row in rows]
    product, scale = math.prod(sums), T**mu
    slacks = tuple(Fraction(s, T) for s in sums)
    lengths = tuple(map(len, rows))
    lower = Fraction(trees * eps**mu, scale)
    slack_product = Fraction(product, scale)
    # The chain needs W >= 1.  A width of zero reports the empty box rows
    # as infeasibility evidence instead (the tree/length comparison and the
    # volume sandwich below W are unconditional, so they stay), and both
    # upper bounds are 0.
    bad = tuple(
        (k, *(Fraction(v, T) for v in odijk_range(inst, rows[k])))
        for k, r in enumerate(ranges)
        if not r
    )
    refined = Fraction(w * product, scale * math.prod([max(s // T, 1) for s in sums]))
    coarse = Fraction(w * 2**mu)
    strict_vacuous = w > 0 and mu == 0
    chain = w > 0 and lower <= vol <= slack_product <= refined and (
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
