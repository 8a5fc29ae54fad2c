"""The cycle offset zonotope: descriptor, box, width, lattice points,
volume, spanning tree tilings, and the width bound chain.

Every coordinate in this module is stored scaled by the period T so that
all arithmetic stays on integers; the real value is the stored value
divided by T.  A point is a lattice point exactly when every scaled
coordinate is divisible by T.

Tile containment is integer-only too: each tile's generator matrix G is
inverted once, fraction-free, into a frame (d, d * G^-1) with |d| = |det G|,
and a point lies in the tile when every coordinate of d * G^-1 applied to
its offset from the translation falls between 0 and d.  Fractions appear
only in volumes and the width bound chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationCapExceeded, FixedArcPresent, NotASpanningTree
from .graphs import (
    DEFAULT_ENUMERATION_CAP,
    _bareiss_det,
    count_spanning_trees_determinant,
    spanning_trees,
    tree_potentials,
)
from .polytropes import (
    anchor_timetable,
    offset_from_cycle_offset,
    offset_zero,
    polytrope_build,
    polytrope_nonempty,
    tension_system_feasible,
    tropical_vertices,
)

DEFAULT_WIDTH_CAP = 10_000


@dataclass(frozen=True)
class ZonotopeDescriptor:
    """Exact T-scaled generator presentation of the cycle offset zonotope.

    ``generators[a]`` is the basis column of arc a scaled by its span
    u_a - l_a; ``translation`` is the basis matrix applied to the lower
    bounds.  Divide by ``period`` to recover real coordinates.
    """

    basis: object
    period: int
    generators: tuple
    translation: tuple

    @property
    def mu(self):
        return self.basis.mu


def zonotope_descriptor(inst, basis):
    for a in range(inst.graph.m):
        if inst.lower[a] == inst.upper[a]:
            raise FixedArcPresent(f"arc {a} has zero span; contract fixed arcs first")
    generators = _scaled_columns(inst, basis)
    translation = tuple(
        sum(row[a] * inst.lower[a] for a in range(inst.graph.m)) for row in basis.gamma
    )
    return ZonotopeDescriptor(basis, inst.period, generators, translation)


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
    box = []
    for row in basis.gamma:
        lo = sum(
            s * (inst.lower[a] if s > 0 else inst.upper[a]) for a, s in enumerate(row) if s
        )
        hi = sum(
            s * (inst.upper[a] if s > 0 else inst.lower[a]) for a, s in enumerate(row) if s
        )
        box.append((lo, hi))
    return tuple(box)


def _box_integer_ranges(inst, basis):
    T = inst.period
    ranges = []
    for lo, hi in odijk_box(inst, basis):
        first = -((-lo) // T)  # ceil(lo / T)
        last = hi // T  # floor(hi / T)
        ranges.append(range(first, last + 1))
    return ranges


def width(inst, basis):
    """Product over basis cycles of how many integers the cycle offset can
    take inside the box; equals the number of lattice points of the box."""
    total = 1
    for r in _box_integer_ranges(inst, basis):
        total *= max(len(r), 0)
    return total


def zonotope_membership(inst, basis, z):
    """Is the integer point z a feasible cycle offset (some tension in the
    bound box maps onto it)?"""
    if basis.mu == 0:
        return polytrope_nonempty(inst, offset_zero(inst))
    return polytrope_nonempty(inst, offset_from_cycle_offset(basis, z))


def scaled_point_in_zonotope(inst, basis, point):
    """Membership of an arbitrary T-scaled integer point (not necessarily a
    lattice point): is there a real tension x in the bound box with
    basis matrix times x equal to the point?"""
    if basis.mu == 0:
        return tuple(point) == ()
    base = [0] * inst.graph.m
    for k, a in enumerate(basis.row_cotree_arcs):
        base[a] = int(point[k])
    return tension_system_feasible(inst, base)


def lattice_points(inst, basis, cap=DEFAULT_WIDTH_CAP):
    """Integer points of the box that are feasible cycle offsets, sorted."""
    if basis.mu == 0:
        return ((),) if polytrope_nonempty(inst, offset_zero(inst)) else ()
    ranges = _box_integer_ranges(inst, basis)
    count = 1
    for r in ranges:
        count *= max(len(r), 0)
    if count > cap:
        raise EnumerationCapExceeded(f"box holds {count} integer points, cap is {cap}")
    return tuple(
        z for z in itertools.product(*ranges) if zonotope_membership(inst, basis, z)
    )


def volume(inst, basis):
    """Exact volume: sum of the absolute minor determinants of the scaled
    generator matrix over all column subsets of full size, divided by the
    period power.  Coincides with summing the co-tree span products over
    spanning trees."""
    mu = basis.mu
    if mu == 0:
        return Fraction(1)
    cols = _scaled_columns(inst, basis)
    total = 0
    for subset in itertools.combinations(range(inst.graph.m), mu):
        mat = [[cols[c][k] for c in subset] for k in range(mu)]
        total += abs(_bareiss_det(mat))
    return Fraction(total, inst.period**mu)


def volume_by_tree_sum(inst, tree_cap=None):
    """Independent volume computation: span products over co-tree arcs,
    summed over all spanning trees."""
    cap = DEFAULT_ENUMERATION_CAP if tree_cap is None else tree_cap
    T = inst.period
    span = inst.span
    arcs = set(range(inst.graph.m))
    total = Fraction(0)
    for tree in spanning_trees(inst.graph, cap):
        term = Fraction(1)
        for a in sorted(arcs - set(tree)):
            term *= Fraction(span[a], T)
        total += term
    return total


@dataclass(frozen=True)
class SpanningTreeStructure:
    """A spanning tree with every arc pinned to one of its bounds."""

    tree: tuple
    at_lower: frozenset
    at_upper: frozenset

    def __post_init__(self):
        object.__setattr__(self, "tree", tuple(sorted(self.tree)))
        object.__setattr__(self, "at_lower", frozenset(self.at_lower))
        object.__setattr__(self, "at_upper", frozenset(self.at_upper))
        if self.at_lower | self.at_upper != set(self.tree) or self.at_lower & self.at_upper:
            raise ValueError("lower/upper arcs must partition the tree")


def structure_for_tree(g, tree, root=None):
    """Pin each tree arc by orienting the tree away from the root: arcs
    used in their native direction go to the upper side, reversed ones to
    the lower side."""
    ridx = g.vindex[root] if root is not None else 0
    adj = [[] for _ in range(g.n)]
    for a in tree:
        i, j = g.arc_index_pairs[a]
        adj[i].append((j, a, True))
        adj[j].append((i, a, False))
    lower, upper = set(), set()
    seen = [False] * g.n
    seen[ridx] = True
    stack = [ridx]
    while stack:
        v = stack.pop()
        for w, a, native in adj[v]:
            if not seen[w]:
                seen[w] = True
                (upper if native else lower).add(a)
                stack.append(w)
    if not all(seen):
        raise NotASpanningTree("arc set does not span all vertices")
    return SpanningTreeStructure(tuple(tree), frozenset(lower), frozenset(upper))


@dataclass(frozen=True)
class Tile:
    """Parallelotope tile of the zonotope: co-tree generator columns placed
    at the translation determined by the pinned tree arcs.  All T-scaled."""

    structure: SpanningTreeStructure
    generators: tuple
    translation: tuple
    lattice_point: tuple | None

    @property
    def mu(self):
        return len(self.generators)


def _tile_translation(inst, basis, structure):
    v = [inst.upper[a] if a in structure.at_upper else inst.lower[a] for a in range(inst.graph.m)]
    return tuple(sum(r * x for r, x in zip(row, v)) for row in basis.gamma)


def _tile_frame(generators):
    """(d, d * G^-1) for the matrix G whose columns are ``generators``, by
    fraction-free (Bareiss) Gauss-Jordan elimination on [G | I]: every
    division is exact and |d| = |det G|.  None when G is singular."""
    mu = len(generators)
    rows = [
        [col[k] for col in generators] + [int(k == c) for c in range(mu)]
        for k in range(mu)
    ]
    prev = 1
    for k in range(mu):
        pivot = next((r for r in range(k, mu) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        d = top[k]
        for i in range(mu):
            if i != k:
                f = rows[i][k]
                rows[i] = [(d * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = d
    return prev, tuple(tuple(row[mu:]) for row in rows)


def _frame_contains(frame, translation, scaled_point):
    """Is the scaled point in the tile whose generator frame is ``frame``:
    every coordinate of (d * G^-1)(point - translation) between 0 and d."""
    d, adj = frame
    lo, hi = (0, d) if d > 0 else (d, 0)
    offset = [p - t for p, t in zip(scaled_point, translation)]
    for row in adj:
        v = sum(a * x for a, x in zip(row, offset))
        if v < lo or v > hi:
            return False
    return True


def tile_contains_scaled(tile, scaled_point):
    frame = _tile_frame(tile.generators)
    return frame is not None and _frame_contains(frame, tile.translation, scaled_point)


def fine_tiling(inst, basis, root=None, tree_cap=None, width_cap=DEFAULT_WIDTH_CAP):
    """One tile per spanning tree, pinned by the root orientation.  Each
    tile records the first lattice point (in sorted order) it contains, if
    any."""
    cap = DEFAULT_ENUMERATION_CAP if tree_cap is None else tree_cap
    trees = spanning_trees(inst.graph, cap)
    points = lattice_points(inst, basis, cap=width_cap)
    T = inst.period
    scaled = [tuple(T * v for v in z) for z in points]
    columns = _scaled_columns(inst, basis)
    arcs = set(range(inst.graph.m))
    tiles = []
    for tree in trees:
        structure = structure_for_tree(inst.graph, tree, root)
        generators = tuple(columns[a] for a in sorted(arcs.difference(tree)))
        translation = _tile_translation(inst, basis, structure)
        frame = _tile_frame(generators)
        contained = None
        if frame is not None:
            contained = next(
                (z for z, s in zip(points, scaled) if _frame_contains(frame, translation, s)),
                None,
            )
        tiles.append(Tile(structure, generators, translation, contained))
    return tuple(tiles)


@dataclass
class TilingReport:
    tile_count: int
    nondegenerate: bool
    tile_volume_sum: Fraction
    zonotope_volume: Fraction
    volume_match: bool
    tiles_inside: bool
    all_points_covered: bool
    at_most_one_point: bool
    incidences: tuple

    @property
    def ok(self):
        return (
            self.nondegenerate
            and self.volume_match
            and self.tiles_inside
            and self.all_points_covered
            and self.at_most_one_point
        )


def validate_tiling(inst, basis, tiles, width_cap=DEFAULT_WIDTH_CAP):
    """Certify a tiling: nonzero tile volumes summing exactly to the
    zonotope volume, every tile inside the zonotope, every lattice point
    covered, and no tile holding two lattice points."""
    T = inst.period
    vol = volume(inst, basis)
    frames = [_tile_frame(tile.generators) for tile in tiles]
    nondegenerate = all(frame is not None for frame in frames)
    tile_sum = Fraction(
        sum(abs(frame[0]) for frame in frames if frame is not None), T**basis.mu
    )

    columns = _scaled_columns(inst, basis)
    tiles_inside = all(_tile_inside(inst, basis, tile, columns) for tile in tiles)

    points = lattice_points(inst, basis, cap=width_cap)
    incidences = []
    per_tile_counts = [0] * len(tiles)
    covered = []
    for z in points:
        scaled = tuple(T * v for v in z)
        hit = False
        for t, (tile, frame) in enumerate(zip(tiles, frames)):
            if frame is not None and _frame_contains(frame, tile.translation, scaled):
                incidences.append((t, z))
                per_tile_counts[t] += 1
                hit = True
        covered.append(hit)

    return TilingReport(
        tile_count=len(tiles),
        nondegenerate=nondegenerate,
        tile_volume_sum=tile_sum,
        zonotope_volume=vol,
        volume_match=tile_sum == vol,
        tiles_inside=tiles_inside,
        all_points_covered=all(covered),
        at_most_one_point=all(c <= 1 for c in per_tile_counts),
        incidences=tuple(incidences),
    )


def _tile_inside(inst, basis, tile, columns):
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
    if tile.generators == implied and tile.translation == _tile_translation(inst, basis, structure):
        return True
    base = [inst.upper[a] if a in structure.at_upper else inst.lower[a] for a in range(m)]
    span = inst.span
    for picks in itertools.product((0, 1), repeat=len(cotree)):
        corner = list(base)
        for take, a in zip(picks, cotree):
            if take:
                corner[a] += span[a]
        expected = tuple(
            sum(row[a] * corner[a] for a in range(m)) for row in basis.gamma
        )
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


@dataclass
class DualityEntry:
    tile_index: int
    cycle_offset: tuple
    tension: tuple
    timetable: tuple
    feasible_vertex: bool
    matches_tropical_vertex: bool


@dataclass
class DualityReport:
    entries: tuple

    @property
    def checked(self):
        return len(self.entries)

    @property
    def ok(self):
        return all(e.feasible_vertex and e.matches_tropical_vertex for e in self.entries)


def duality_check(
    inst, basis, root=None, tree_cap=None, width_cap=DEFAULT_WIDTH_CAP, tiles=None
):
    """For every tile holding a lattice point z: pinning the tree arcs to
    their bounds extends to a feasible tension whose timetable is the
    root's tropical vertex of the offset class of z.  ``tiles`` is the
    ``fine_tiling`` for the same root, built here when not given."""
    g = inst.graph
    T = inst.period
    ridx = g.vindex[root] if root is not None else 0
    if tiles is None:
        tiles = fine_tiling(inst, basis, root, tree_cap=tree_cap, width_cap=width_cap)
    entries = []
    for t, tile in enumerate(tiles):
        z = tile.lattice_point
        if z is None:
            continue
        if basis.mu == 0:
            p = offset_zero(inst)
        else:
            p = offset_from_cycle_offset(basis, z)
        structure = tile.structure
        x = [None] * g.m
        for a in structure.at_lower:
            x[a] = inst.lower[a]
        for a in structure.at_upper:
            x[a] = inst.upper[a]
        differences = {a: x[a] - T * p[a] for a in structure.tree}
        pi = tree_potentials(g, structure.tree, differences, ridx)
        feasible = True
        for a, (i, j) in enumerate(g.arc_index_pairs):
            if x[a] is None:
                x[a] = pi[j] - pi[i] + T * p[a]
            if not inst.lower[a] <= x[a] <= inst.upper[a]:
                feasible = False
        timetable = anchor_timetable(tuple(pi), ridx)
        poly = polytrope_build(inst, basis, p)
        matches = False
        if poly.nonempty:
            matches = timetable == tropical_vertices(poly, g.vertices[ridx])[ridx]
        entries.append(
            DualityEntry(t, z, tuple(x), timetable, feasible, matches)
        )
    return DualityReport(tuple(entries))


@dataclass
class WidthBoundReport:
    width: int
    mu: int
    num_spanning_trees: int
    epsilon: int
    volume: Fraction
    cycle_slacks: tuple
    cycle_lengths: tuple
    lower_bound: Fraction
    slack_product: Fraction
    refined_upper: Fraction
    coarse_upper: Fraction
    chain_holds: bool
    strict_upper_vacuous: bool
    trees_within_length_product: bool
    infeasible: bool
    infeasible_cycles: tuple

    @property
    def ok(self):
        if self.infeasible:
            return False
        return self.chain_holds and self.trees_within_length_product


def width_bound_report(inst, basis):
    """Exact rational sandwich for the zonotope volume in terms of the
    width, plus the spanning-tree versus cycle-length product comparison.
    A width of zero short-circuits into infeasibility evidence."""
    T = inst.period
    mu = basis.mu
    w = width(inst, basis)
    box = odijk_box(inst, basis)
    trees = count_spanning_trees_determinant(inst.graph)
    span = inst.span
    eps = min(span) if span else 0
    vol = volume(inst, basis)
    slacks = tuple(
        Fraction(sum(span[a] for a in c.support), T) for c in basis.cycles
    )
    lengths = tuple(len(c) for c in basis.cycles)
    lower = trees * Fraction(eps, T) ** mu if mu else Fraction(trees)
    slack_product = math.prod(slacks, start=Fraction(1))
    length_product = math.prod(lengths, start=1)
    if w == 0:
        # The chain needs W >= 1; report the empty box rows as
        # infeasibility evidence instead (the tree/length comparison and
        # the volume sandwich below W are unconditional, so keep them).
        bad = tuple(
            (k, Fraction(lo, T), Fraction(hi, T))
            for k, (lo, hi) in enumerate(box)
            if hi // T - (-((-lo) // T)) + 1 <= 0
        )
        return WidthBoundReport(
            width=0,
            mu=mu,
            num_spanning_trees=trees,
            epsilon=eps,
            volume=vol,
            cycle_slacks=slacks,
            cycle_lengths=lengths,
            lower_bound=lower,
            slack_product=slack_product,
            refined_upper=Fraction(0),
            coarse_upper=Fraction(0),
            chain_holds=False,
            strict_upper_vacuous=False,
            trees_within_length_product=trees <= length_product,
            infeasible=True,
            infeasible_cycles=bad,
        )
    refined = w * math.prod(
        (s / max(math.floor(s), 1) for s in slacks), start=Fraction(1)
    )
    coarse = Fraction(w * 2**mu)
    strict_vacuous = mu == 0
    chain = lower <= vol <= slack_product <= refined
    if not strict_vacuous:
        chain = chain and refined < coarse
    else:
        chain = chain and refined <= coarse
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
        trees_within_length_product=trees <= length_product,
        infeasible=False,
        infeasible_cycles=(),
    )
