import functools
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    EnumerationCapExceeded,
    FixedArcPresent,
    InvariantViolation,
    PespInstance,
    SpanningTreeStructure,
    Tile,
    TileKernel,
    default_basis,
    duality_check,
    fine_tiling,
    fundamental_cycle_basis,
    lattice_points,
    contract_fixed_arcs,
    odijk_box,
    offset_for,
    parse_instance,
    scaled_point_in_zonotope,
    offset_from_cycle_offset,
    tension_to_timetable,
    offset_zero,
    spanning_trees,
    structure_for_tree,
    tile_contains_scaled,
    validate_tiling,
    volume,
    width,
    width_bound_report,
    zonotope_descriptor,
)
from peritrope import graphs, polytropes, zonotopes
from peritrope.graphs import _inverse_frame, tree_potentials
from helpers import (
    _bareiss_det,
    box_points,
    check_empty_certificate,
    count_bellman_ford,
    duality_check_by_polytropes,
    fine_tiling_by_tree_walks,
    implied_tile_by_dense_products,
    lattice_points_by_box_scan,
    random_bases,
    random_corpus,
    random_instance,
    solve_parallelotope_coords,
    square_basis,
    square_instance,
    triangle_graph,
    triangle_instance,
    validate_tiling_by_frame_scan,
    volume_by_minor_sum,
    volume_by_tree_sum,
    width_bound_by_fractions,
)

TREE_TEXT = "PERIOD 10\nARC a b 2 6 1\n"


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def test_descriptor_triangle():
    inst, basis = _triangle()
    desc = zonotope_descriptor(inst, basis)
    assert desc.mu == 1
    assert desc.period == 10
    assert desc.generators == ((9,), (-8,), (9,))
    assert desc.translation == (5,)


def test_descriptor_rejects_fixed_arcs():
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 10, (2, 5), (6, 5), (1, 1))
    with pytest.raises(FixedArcPresent):
        zonotope_descriptor(inst, default_basis(g))


def test_boxes():
    inst, basis = _triangle()
    assert odijk_box(inst, basis) == ((-3, 23),)
    sq = square_instance()
    assert odijk_box(sq, square_basis()) == ((9, 27), (-18, 18), (7, 25))


def test_width():
    inst, basis = _triangle()
    assert width(inst, basis) == 3
    assert width(square_instance(), square_basis()) == 12


def test_lattice_points_triangle():
    inst, basis = _triangle()
    assert lattice_points(inst, basis) == ((0,), (1,), (2,))


def test_lattice_points_square():
    sq = square_instance()
    pts = lattice_points(sq, square_basis())
    assert len(pts) == 11
    box = odijk_box(sq, square_basis())
    for z in pts:
        assert polytropes.polytrope_nonempty(sq, offset_for(sq, square_basis(), z))
        for k, (lo, hi) in enumerate(box):
            assert lo <= 10 * z[k] <= hi


def test_membership_rejects_outside_offsets():
    inst, basis = _triangle()
    member = [
        polytropes.polytrope_nonempty(inst, offset_for(inst, basis, (v,))) for v in (0, 2, 3, -1)
    ]
    assert member == [True, True, False, False]


def test_scaled_membership_hits_the_segment_ends():
    inst, basis = _triangle()
    assert scaled_point_in_zonotope(inst, basis, (-3,))
    assert scaled_point_in_zonotope(inst, basis, (5,))
    assert scaled_point_in_zonotope(inst, basis, (23,))
    assert not scaled_point_in_zonotope(inst, basis, (-4,))
    assert not scaled_point_in_zonotope(inst, basis, (24,))


def test_lattice_cap():
    """The walk's gradings and Bellman-Fords are charged to its budget, and
    one too few units stop it in the lattice points layer."""
    sq = square_instance()
    budget = Budget()
    points = lattice_points(sq, square_basis(), budget)
    assert lattice_points(sq, square_basis(), Budget(budget.spent)) == points
    with pytest.raises(EnumerationCapExceeded, match=" ran out in lattice points: "):
        lattice_points(sq, square_basis(), Budget(budget.spent - 1))


# mu 1,199 and a one-point box: a recursive walk, one Python frame per box
# row, would pass the recursion limit.
DEEP_TEXT = "PERIOD 10\n" + "ARC a b 5 6 1\n" * 1200


def _lattice_cases():
    """The property corpus, every ``_tiling_cases`` basis (the rational
    ones have d = 2) and the 1,200 parallel arcs of ``DEEP_TEXT``."""
    cases = [(inst, basis) for inst, basis, _, _ in random_corpus(100)]
    cases += [(inst, basis) for inst, basis, _ in _tiling_cases()]
    deep = parse_instance(DEEP_TEXT)
    return cases + [(deep, default_basis(deep.graph))]


def _points_or_error(find, inst, basis):
    try:
        return find(inst, basis)
    except ValueError as exc:
        return repr(exc)


def test_lattice_points_match_the_box_scan():
    """The walk gives the points, or raises the error, that testing every
    box point gives (``lattice_points_by_box_scan``), also where some box
    point of a rational basis has no integer offset."""
    seen = dict.fromkeys(("points", "error", "d = 2"), 0)
    for inst, basis in _lattice_cases():
        found = _points_or_error(lattice_points, inst, basis)
        assert found == _points_or_error(lattice_points_by_box_scan, inst, basis)
        if isinstance(found, str):
            seen["error"] += 1
            continue
        seen["points"] += len(found)
        seen["d = 2"] += basis.mu and abs(basis.cotree_frame[1]) == 2
    assert seen["points"] >= 250 and seen["error"] >= 40 and seen["d = 2"] >= 5, seen


def test_every_row_the_walk_learns_proves_its_point_empty(monkeypatch):
    """Each row comes from the negative cycle of an empty box point, which
    ``check_empty_certificate`` accepts; the walk runs one virtual-source
    Bellman-Ford per point it reaches, a nonempty one or a row's."""
    honest = zonotopes.BoxSearch.learn_row
    learned = []

    def recording(search, z, gamma):
        learned.append((z, gamma))
        honest(search, z, gamma)

    monkeypatch.setattr(zonotopes.BoxSearch, "learn_row", recording)
    runs = count_bellman_ford(monkeypatch)
    rows = 0
    for inst, basis in _lattice_cases():
        learned.clear()
        runs.clear()
        points = _points_or_error(lattice_points, inst, basis)
        if isinstance(points, str):
            continue
        assert runs == [(inst.graph.n, None)] * (len(points) + len(learned))
        for z, gamma in learned:
            assert check_empty_certificate(inst, offset_for(inst, basis, z), gamma) == []
        rows += len(learned)
    assert rows >= 180, rows


def test_the_keep_all_search_hands_its_leaf_the_box_points_in_sorted_order(monkeypatch):
    """``lattice_points`` runs the ``BoxSearch`` with key (0, prefix), which
    pops in box order: its leaf gets box points in sorted order, each once,
    the nonempty ones among them are the points, and every box point it
    never gets is ruled out by a row the search learned."""
    searches = []

    class Recording(zonotopes.BoxSearch):
        def run(self, nodes, best, relax, leaf):
            handed = []
            searches.append((self, handed))

            def recording(z, lower, bound):
                handed.append(z)
                return leaf(z, lower, bound)

            return super().run(nodes, best, relax, recording)

    monkeypatch.setattr(zonotopes, "BoxSearch", Recording)
    handed_count = skipped = 0
    for inst, basis in _lattice_cases():
        searches.clear()
        points = _points_or_error(lattice_points, inst, basis)
        if isinstance(points, str) or not searches:
            continue
        [(search, handed)] = searches
        assert handed == sorted(set(handed))
        kept = set(points)
        assert points == tuple(z for z in handed if z in kept)
        rows = [(ty, lo, hi) for ty, _, _, lo, hi, const in search.forms if const is None]
        assert len(rows) == len(search.forms) == len(handed) - len(points)
        for z in set(box_points(inst, basis)) - set(handed):
            assert any(not lo <= sum(map(int.__mul__, ty, z)) <= hi for ty, lo, hi in rows)
            skipped += 1
        handed_count += len(handed)
    assert handed_count >= 450 and skipped >= 250, (handed_count, skipped)


def test_a_row_that_rules_out_a_walked_nonempty_point_is_an_invariant_violation(monkeypatch):
    # The range (1, 0) holds no integer, so the shared row rules out every
    # offset.  This box's first point, (0, 1), is nonempty and its second
    # empty, whose row then rules out the first.
    inst = parse_instance(
        "PERIOD 11\nARC v1 v0 8 15 1\nARC v1 v2 2 6 1\nARC v1 v3 5 12 1\n"
        "ARC v1 v0 5 13 1\nARC v0 v2 1 10 1\n"
    )
    basis = default_basis(inst.graph)
    assert list(box_points(inst, basis)) == [(0, 1), (0, 2)]
    assert lattice_points(inst, basis) == ((0, 1),)
    honest = zonotopes.odijk_row
    monkeypatch.setattr(zonotopes, "odijk_row", lambda *args: (honest(*args)[0], 1, 0))
    with pytest.raises(InvariantViolation, match=r"^the row of \(0, 2\) rules out \(0, 1\), which"):
        lattice_points(inst, basis)


def test_a_box_of_1199_rows_is_walked_without_recursion(monkeypatch):
    inst = parse_instance(DEEP_TEXT)
    basis = default_basis(inst.graph)
    assert basis.mu == 1199 and width(inst, basis) == 1
    runs = count_bellman_ford(monkeypatch)
    assert lattice_points(inst, basis) == ((0,) * 1199,)
    assert runs == [(2, None)]


def test_volume_values():
    inst, basis = _triangle()
    assert volume(inst, basis) == Fraction(13, 5)
    assert volume_by_tree_sum(inst) == Fraction(13, 5)
    sq = square_instance()
    assert volume(sq, square_basis()) == Fraction(2187, 250)
    assert volume_by_tree_sum(sq) == Fraction(2187, 250)


def _multigraph_instance(rng):
    """A random instance plus a parallel copy of one arc and a reversed copy
    of another, each with bounds of its own; in one instance of four a
    random arc gets zero span."""
    base = random_instance(rng, max_vertices=5, max_arcs=6, max_period=10)
    g, T = base.graph, base.period
    arcs, lower, upper = list(g.arcs), list(base.lower), list(base.upper)
    for reverse in (False, True):
        tail, head = rng.choice(g.arcs)
        arcs.append((head, tail) if reverse else (tail, head))
        lower.append(rng.randrange(T))
        upper.append(lower[-1] + rng.randint(1, T - 1))
    if rng.random() < 0.25:
        a = rng.randrange(len(arcs))
        upper[a] = lower[a]
    return PespInstance(
        Digraph(g.vertices, tuple(arcs)), T, tuple(lower), tuple(upper), (1,) * len(arcs)
    )


def test_volume_matches_the_minor_and_tree_sums():
    """The Gram determinant equals both oracles on fundamental bases of
    random trees, their row permutations and a unimodular non-fundamental
    basis (row 0 added to row 1).  On the rational basis {c0 + c1, c0 - c1}
    only the minor sum applies: it is twice the tree sum, since every
    co-tree minor is +-2 there.  Rows that are not independent span no
    volume."""
    seen = dict.fromkeys(("zero span", "parallel", "antiparallel"), 0)
    for seed in range(80):
        rng = random.Random(900 + seed)
        inst = _multigraph_instance(rng)
        g = inst.graph
        pairs = set(g.arcs)
        seen["zero span"] += 0 in inst.span
        seen["parallel"] += len(pairs) < g.m
        seen["antiparallel"] += any((h, t) in pairs for t, h in pairs)
        tree_sum = volume_by_tree_sum(inst)
        *integral, rational = random_bases(rng, g)
        for b in integral:
            assert volume(inst, b) == volume_by_minor_sum(inst, b) == tree_sum
        assert volume(inst, rational) == volume_by_minor_sum(inst, rational) == 2 * tree_sum
        c0, _, *rest = integral[0].gamma
        repeated = CycleBasis((c0, c0, *rest))
        assert repeated.cotree_frame[1] == 0
        assert volume(inst, repeated) == volume_by_minor_sum(inst, repeated) == 0
    assert min(seen.values()) >= 10, seen


def test_tree_instance_conventions():
    inst = parse_instance(TREE_TEXT)
    basis = default_basis(inst.graph)
    assert width(inst, basis) == 1
    assert volume(inst, basis) == 1
    assert lattice_points(inst, basis) == ((),)


def test_volume_and_count_are_basis_independent():
    sq = square_instance()
    rng = random.Random(7)
    trees = spanning_trees(sq.graph)
    for _ in range(6):
        tree = rng.choice(trees)
        basis = fundamental_cycle_basis(sq.graph, tree)
        if rng.random() < 0.5:
            order = list(range(basis.mu))
            rng.shuffle(order)
            basis = basis.permuted(tuple(order))
        assert volume(sq, basis) == Fraction(2187, 250)
        assert len(lattice_points(sq, basis)) == 11
        assert width(sq, basis) >= 11


def test_random_instances_lattice_width_tree_inequalities():
    checked = 0
    for seed in range(25):
        rng = random.Random(300 + seed)
        inst = random_instance(rng, max_vertices=5, max_arcs=7, max_period=10)
        basis = default_basis(inst.graph)
        w = width(inst, basis)
        if w > 2000:
            continue
        pts = lattice_points(inst, basis)
        trees = len(spanning_trees(inst.graph))
        assert len(pts) <= min(w, trees)
        assert volume(inst, basis) == volume_by_tree_sum(inst)
        checked += 1
    assert checked >= 15


def test_structure_for_tree_orients_away_from_the_root():
    g = triangle_graph()
    s = structure_for_tree(g, (0, 1), root="v1")
    assert (sorted(s.at_lower), sorted(s.at_upper)) == ([0], [1])
    s = structure_for_tree(g, (0, 2), root="v1")
    assert (sorted(s.at_lower), sorted(s.at_upper)) == ([0], [2])
    s = structure_for_tree(g, (1, 2), root="v1")
    assert (sorted(s.at_lower), sorted(s.at_upper)) == ([1], [2])
    # from v0 both tree arcs leave the root in their native direction
    s = structure_for_tree(g, (0, 1), root="v0")
    assert (sorted(s.at_lower), sorted(s.at_upper)) == ([], [0, 1])


def test_structure_partition_is_validated():
    from peritrope import SpanningTreeStructure

    with pytest.raises(ValueError):
        SpanningTreeStructure((0, 1), frozenset({0}), frozenset({0, 1}))
    with pytest.raises(ValueError):
        SpanningTreeStructure((0, 1), frozenset({0}), frozenset())


def test_fine_tiling_triangle():
    inst, basis = _triangle()
    tiles = fine_tiling(inst, basis, root="v1")
    got = [
        (t.structure.tree, t.translation, t.generators, t.lattice_point) for t in tiles
    ]
    assert got == [
        ((0, 1), (-3,), ((9,),), (0,)),
        ((0, 2), (14,), ((-8,),), (1,)),
        ((1, 2), (14,), ((9,),), (2,)),
    ]
    ends = set()
    for t in tiles:
        ends.add(t.translation[0])
        ends.add(t.translation[0] + t.generators[0][0])
    assert ends == {-3, 6, 14, 23}


def test_fine_tiling_square_covers_each_point_once():
    sq = square_instance()
    tiles = fine_tiling(sq, square_basis())
    assert len(tiles) == 12
    pts = [t.lattice_point for t in tiles if t.lattice_point is not None]
    # one lattice point sits on a shared facet and is recorded by both tiles
    assert len(pts) == 12
    assert len(set(pts)) == 11
    assert set(pts) == set(lattice_points(sq, square_basis()))


def test_validate_tiling_accepts_the_real_tilings():
    inst, basis = _triangle()
    report = validate_tiling(inst, basis, fine_tiling(inst, basis, root="v1"))
    assert report.ok
    assert report.tile_count == 3
    assert report.tile_volume_sum == report.zonotope_volume == Fraction(13, 5)
    sq = square_instance()
    for root in (None, "v2"):
        rep = validate_tiling(sq, square_basis(), fine_tiling(sq, square_basis(), root=root))
        assert rep.ok
        assert rep.tile_count == 12
        assert len(rep.incidences) == 12


def test_validate_tiling_flags_a_missing_tile():
    inst, basis = _triangle()
    tiles = fine_tiling(inst, basis, root="v1")
    report = validate_tiling(inst, basis, tiles[:-1])
    assert not report.ok
    assert not report.volume_match


def test_validate_tiling_flags_a_tampered_lattice_point():
    inst, basis = _triangle()
    tiles = list(fine_tiling(inst, basis, root="v1"))
    assert validate_tiling(inst, basis, tiles).lattice_points_recorded
    for point in ((1,), None):
        tampered = list(tiles)
        tampered[0] = tiles[0]._replace(lattice_point=point)
        report = validate_tiling(inst, basis, tampered)
        assert not report.lattice_points_recorded
        assert not report.ok
        assert report.volume_match and report.tiles_inside
        assert report.all_points_covered and report.at_most_one_point


def test_tiles_flat_on_a_zero_span_arc_record_no_point():
    """The triangle plus a zero-span arc parallel to arc 0, tiled without
    contraction: a tile whose co-tree holds that arc is flat and records no
    point, although its pinned tree can put the arc at its one admissible
    tension.  Every other tile records the first point its frame holds."""
    inst = parse_instance(
        "PERIOD 10\nARC v0 v1 3 12 1\nARC v0 v2 2 10 1\nARC v1 v2 4 13 1\nARC v0 v1 3 3 1\n"
    )
    basis = default_basis(inst.graph)
    points = lattice_points(inst, basis)
    flat = 0
    for tile in fine_tiling(inst, basis, root="v1"):
        if 3 not in tile.structure.tree:
            assert tile.lattice_point is None
            flat += 1
            continue
        held = [z for z in points if tile_contains_scaled(tile, tuple(10 * v for v in z))]
        assert tile.lattice_point == (held[0] if held else None)
    assert flat == 3
    report = validate_tiling(inst, basis, fine_tiling(inst, basis, root="v1"))
    assert report.lattice_points_recorded
    assert not report.nondegenerate


def test_a_tile_holding_two_points_records_the_first():
    """Spans of one whole period (which ``validate`` refuses, but the tiling
    takes as given) give each co-tree arc two admissible offsets, so every
    tile of this triangle holds two lattice points and records the smaller
    one."""
    inst = PespInstance(triangle_graph(), 10, (0, 0, 0), (10, 10, 10), (1, 1, 1))
    basis = default_basis(inst.graph)
    tiles = fine_tiling(inst, basis, root="v1")
    assert [t.lattice_point for t in tiles] == [(-1,), (0,), (1,)]
    report = validate_tiling(inst, basis, tiles)
    assert report.incidences == (
        (0, (-1,)), (0, (0,)), (1, (0,)), (1, (1,)), (2, (1,)), (2, (2,))
    )
    assert report.lattice_points_recorded
    assert not report.at_most_one_point


def test_validate_tiling_flags_a_shifted_tile():
    inst, basis = _triangle()
    tiles = list(fine_tiling(inst, basis, root="v1"))
    tiles[0] = tiles[0]._replace(translation=(-40,))
    report = validate_tiling(inst, basis, tiles)
    assert not report.ok
    assert not report.tiles_inside


def test_validate_tiling_flags_tampered_generators(monkeypatch):
    calls = []
    real = zonotopes.scaled_point_in_zonotope

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zonotopes, "scaled_point_in_zonotope", counting)
    inst, basis = _triangle()
    tiles = list(fine_tiling(inst, basis, root="v1"))
    assert validate_tiling(inst, basis, tiles).ok
    assert calls == []  # untampered tiles are inside without a membership test
    tiles[0] = tiles[0]._replace(generators=((40,),))
    report = validate_tiling(inst, basis, tiles)
    assert calls
    assert not report.tiles_inside
    assert not report.ok
    # the same parallelotope with its generators listed in another order
    # takes the per-vertex fallback and is still inside
    sq, sq_basis = square_instance(), square_basis()
    tiles = list(fine_tiling(sq, sq_basis))
    tiles[0] = tiles[0]._replace(generators=tiles[0].generators[::-1])
    calls.clear()
    report = validate_tiling(sq, sq_basis, tiles)
    assert calls
    assert report.tiles_inside
    assert report.ok


def test_a_reflected_tile_is_foreign_and_still_inside(monkeypatch):
    """One generator of a square tile negated and the translation moved by
    it: the same parallelotope, but not the tile its structure implies, so
    only it builds a frame, and the report is the untampered one."""
    frames = []
    real = zonotopes._inverse_frame
    monkeypatch.setattr(zonotopes, "_inverse_frame", lambda g: frames.append(g) or real(g))
    sq, basis = square_instance(), square_basis()
    tiles = list(fine_tiling(sq, basis))
    untampered = validate_tiling(sq, basis, tiles)
    assert untampered.ok
    assert frames == []  # implied tiles never build a frame
    first, *rest = tiles[0].generators
    tiles[0] = tiles[0]._replace(
        generators=(tuple(-v for v in first), *rest),
        translation=tuple(t + v for t, v in zip(tiles[0].translation, first)),
    )
    assert validate_tiling(sq, basis, tiles) == untampered
    assert frames == [tiles[0].generators]


def test_a_reflected_tile_keeps_the_report_under_every_integral_basis():
    """A multigraph tile reflected into a foreign one (a nonzero generator
    negated, the translation moved by it) is checked through the basis's
    co-tree frame, which serves every integral basis of ``random_bases``:
    the fundamental one, its row permutation and the unimodular one that
    is not fundamental.  The report is the unreflected one."""
    seen = dict.fromkeys(("fundamental", "not fundamental", "ok", "not ok"), 0)
    for seed in range(30):
        rng = random.Random(1700 + seed)
        inst = _multigraph_instance(rng)
        for basis in random_bases(rng, inst.graph)[:3]:
            tiles = list(fine_tiling(inst, basis, rng.choice(inst.graph.vertices)))
            untampered = validate_tiling(inst, basis, tiles)
            t = rng.randrange(len(tiles))
            tile = tiles[t]
            k = rng.choice([k for k, col in enumerate(tile.generators) if any(col)])
            flipped = tile.generators[k]
            generators = list(tile.generators)
            generators[k] = tuple(-v for v in flipped)
            tiles[t] = tile._replace(
                generators=tuple(generators),
                translation=tuple(x + v for x, v in zip(tile.translation, flipped)),
            )
            assert validate_tiling(inst, basis, tiles) == untampered
            seen["fundamental" if basis.tree is not None else "not fundamental"] += 1
            seen["ok" if untampered.ok else "not ok"] += 1
    assert min(seen.values()) >= 10, seen


def test_scaled_points_need_an_integral_basis():
    """The scaled-point test takes its particular solution from the co-tree
    frame; the rational basis (|d| = 2) has none and says so."""
    inst = _multigraph_instance(random.Random(5))
    rational = random_bases(random.Random(5), inst.graph)[3]
    with pytest.raises(ValueError, match="basis is not integral: .* 2, not 1"):
        scaled_point_in_zonotope(inst, rational, (0,) * rational.mu)


def test_a_tile_whose_structure_moved_an_arc_is_foreign(monkeypatch):
    """One tree arc of a square tile moved from its lower to its upper
    bound, generators and translation kept: the structure now implies
    another translation (Gamma l plus the scaled columns of its upper arcs),
    so the tile is foreign, only it builds a frame, and the report is the
    untampered one."""
    frames = []
    real = zonotopes._inverse_frame
    monkeypatch.setattr(zonotopes, "_inverse_frame", lambda g: frames.append(g) or real(g))
    sq, basis = square_instance(), square_basis()
    tiles = list(fine_tiling(sq, basis))
    untampered = validate_tiling(sq, basis, tiles)
    t = next(t for t, tile in enumerate(tiles) if tile.structure.at_lower)
    structure = tiles[t].structure
    arc = min(structure.at_lower)
    moved = SpanningTreeStructure(
        structure.tree, structure.at_lower - {arc}, structure.at_upper | {arc}
    )
    tiles[t] = tiles[t]._replace(structure=moved)
    assert frames == []
    assert validate_tiling(sq, basis, tiles) == untampered
    assert frames == [tiles[t].generators]


def test_a_tile_on_a_non_spanning_tree_is_foreign():
    """A structure whose tree does not reach every vertex (the square's
    antiparallel arcs 0 and 4 close a 2-cycle, and v3 is left out) implies
    no tile, so its tile is checked by its frame, which is the untampered
    one: the report is unchanged."""
    sq, basis = square_instance(), square_basis()
    tiles = list(fine_tiling(sq, basis))
    untampered = validate_tiling(sq, basis, tiles)
    cyclic = SpanningTreeStructure((0, 1, 4), (0, 1), (4,))
    tiles[0] = tiles[0]._replace(structure=cyclic)
    assert validate_tiling(sq, basis, tiles) == untampered


TAMPER_TESTS = (
    test_validate_tiling_flags_a_missing_tile,
    test_validate_tiling_flags_a_tampered_lattice_point,
    test_validate_tiling_flags_a_shifted_tile,
    test_validate_tiling_flags_tampered_generators,
    test_a_reflected_tile_is_foreign_and_still_inside,
    test_a_reflected_tile_keeps_the_report_under_every_integral_basis,
    test_a_tile_whose_structure_moved_an_arc_is_foreign,
    test_a_tile_on_a_non_spanning_tree_is_foreign,
)


@pytest.mark.parametrize("tamper_test", TAMPER_TESTS, ids=lambda test: test.__name__[5:])
def test_tampering_is_caught_on_a_kernel_shared_with_the_tiling(tamper_test, monkeypatch):
    """Each tamper test above, rerun with ``fine_tiling`` and
    ``validate_tiling`` of one (inst, basis) sharing one ``TileKernel``,
    as ``analyze`` runs them: the co-trees and translations the tiling
    memoized serve the validation of tampered tiles, and every tamper is
    still caught, with the same report."""
    kernels, served = [], []

    def kernel_of(inst, basis):
        kernel = next((k for k in kernels if k.inst is inst and k.basis is basis), None)
        if kernel is None:
            kernel = TileKernel(inst, basis)
            kernels.append(kernel)
        return kernel

    def shared_tiling(inst, basis, root=None):
        kernel = kernel_of(inst, basis)
        served.append(("tiling", kernel))
        return zonotopes.fine_tiling(inst, basis, root, kernel)

    def shared_validation(inst, basis, tiles, points=None):
        kernel = kernel_of(inst, basis)
        served.append(("validation", kernel))
        return zonotopes.validate_tiling(inst, basis, tiles, points, kernel)

    monkeypatch.setitem(globals(), "fine_tiling", shared_tiling)
    monkeypatch.setitem(globals(), "validate_tiling", shared_validation)
    tamper_test(*[monkeypatch] * tamper_test.__code__.co_argcount)
    assert kernels
    for kernel in kernels:
        assert {use for use, k in served if k is kernel} == {"tiling", "validation"}
        assert kernel.cotrees and kernel.translations


@pytest.mark.parametrize("function", ("fine_tiling", "validate_tiling"))
def test_a_tile_kernel_serves_only_its_own_instance_and_basis(function):
    inst, basis = _triangle()
    tiles = fine_tiling(inst, basis)
    other_inst = triangle_instance()
    other_basis = default_basis(inst.graph)
    call = {
        "fine_tiling": lambda kernel: fine_tiling(inst, basis, None, kernel),
        "validate_tiling": lambda kernel: validate_tiling(inst, basis, tiles, None, kernel),
    }[function]
    for kernel in (TileKernel(other_inst, basis), TileKernel(inst, other_basis)):
        with pytest.raises(ValueError, match="another instance or basis"):
            call(kernel)
    assert call(TileKernel(inst, basis)) == call(None)


def test_validation_reads_points_from_its_own_walk(monkeypatch):
    """With a kernel shared with the tiling, validation still takes each
    tile's points from its own walk (``tree_potentials``): a walk that moves
    one vertex by 100 periods moves the points of every tile, and the
    report sees it, though the kernel's co-trees and translations, built
    by the tiling, still match."""
    sq, basis = square_instance(), square_basis()
    kernel = TileKernel(sq, basis)
    tiles = fine_tiling(sq, basis, "v2", kernel)
    assert validate_tiling(sq, basis, tiles, kernel=kernel).ok
    real = zonotopes.tree_potentials

    def shifted(*args):
        pi = real(*args)
        pi[-1] += 100 * sq.period
        return pi

    monkeypatch.setattr(zonotopes, "tree_potentials", shifted)
    report = validate_tiling(sq, basis, tiles, kernel=kernel)
    assert report.volume_match and report.tiles_inside
    assert not report.all_points_covered and not report.lattice_points_recorded


def test_one_kernel_builds_each_cotree_and_translation_once(monkeypatch):
    """Over ``fine_tiling`` and ``validate_tiling`` on one kernel, each
    tree's co-tree entry is built once and each translation once per
    distinct upper-pinned set, while lattice points are computed afresh
    for each tile by each of the two.  Separate kernels build each twice."""
    built = {name: [] for name in ("_build_cotree", "_build_translation", "points")}
    for name, calls in built.items():
        # The builders take the kernel's parts and then the key; points
        # takes the kernel and then the co-tree entry.
        owner, at = (TileKernel, 1) if name == "points" else (zonotopes, -1)

        def counted(*args, real=getattr(owner, name), calls=calls, at=at):
            calls.append(args[at])
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    seen = dict.fromkeys(("cases", "repeated translations"), 0)
    cases = [(square_instance(), square_basis(), "v2")] + list(_tiling_cases())[:40]
    for inst, basis, root in cases:
        for key in built:
            built[key].clear()
        kernel = TileKernel(inst, basis)
        tiles = fine_tiling(inst, basis, root, kernel)
        shared = functools.partial(validate_tiling, kernel=kernel)
        report = _report_or_error(shared, inst, basis, tiles)
        trees = [t.structure.tree for t in tiles]
        uppers = sorted({t.structure.at_upper for t in tiles}, key=sorted)
        assert sorted(built["_build_cotree"]) == trees
        assert sorted(built["_build_translation"], key=sorted) == uppers
        if isinstance(report, str):
            continue
        # One points call per tile while tiling, and one per implied tile
        # (here every tile) while validating.
        assert len(built["points"]) == 2 * len(tiles)
        for key in built:
            built[key].clear()
        validate_tiling(inst, basis, fine_tiling(inst, basis, root))
        assert sorted(built["_build_cotree"]) == sorted(trees * 2)
        assert sorted(built["_build_translation"], key=sorted) == sorted(uppers * 2, key=sorted)
        seen["cases"] += 1
        seen["repeated translations"] += len(uppers) < len(tiles)
    assert min(seen.values()) >= 10, seen


def _tiling_cases():
    """Multigraph instances (zero-span, parallel and antiparallel arcs)
    under the four ``random_bases`` (the rational one has d = 2), each tiled from
    a random root; then the triangle with spans of one period, whose tiles
    hold two points each."""
    for seed in range(60):
        rng = random.Random(1300 + seed)
        inst = _multigraph_instance(rng)
        for b in random_bases(rng, inst.graph):
            yield inst, b, rng.choice(inst.graph.vertices)
    inst = PespInstance(triangle_graph(), 10, (0, 0, 0), (10, 10, 10), (1, 1, 1))
    yield inst, default_basis(inst.graph), "v1"


def _report_or_error(validate, inst, basis, tiles):
    try:
        return validate(inst, basis, tiles)
    except ValueError as exc:
        return repr(exc)


def test_validate_tiling_matches_the_frame_scan():
    """Deciding once per tile whether it is implied gives the report, field
    by field, that treating every tile as foreign and scanning its frame
    against every lattice point gives; a basis whose lattice points have no
    integer offset raises the same error in both."""
    seen = dict.fromkeys(("ok", "not ok", "error", "zero span", "d = 2", "two points"), 0)
    for inst, basis, root in _tiling_cases():
        tiles = fine_tiling(inst, basis, root)
        report = _report_or_error(validate_tiling, inst, basis, tiles)
        assert report == _report_or_error(validate_tiling_by_frame_scan, inst, basis, tiles)
        if isinstance(report, str):
            seen["error"] += 1
            continue
        seen["ok" if report.ok else "not ok"] += 1
        seen["zero span"] += 0 in inst.span
        seen["d = 2"] += report.tile_volume_sum != volume_by_tree_sum(inst)
        seen["two points"] += not report.at_most_one_point
    assert seen["ok"] >= 100 and seen["two points"] == 1, seen
    assert min(seen["not ok"], seen["error"], seen["zero span"]) >= 25, seen
    assert seen["d = 2"] >= 5, seen


def test_tiles_match_the_dense_per_tile_oracle():
    """Every tile of ``fine_tiling``, and the points ``validate_tiling``
    takes from implied tiles, equal what each tile's own dense path gives
    (``implied_tile_by_dense_products``): on the ``_tiling_cases`` and, for
    d = 0, on each multigraph's first basis with row 0 repeated."""
    seen = dict.fromkeys(("zero span", "d = 0", "points", "validated"), 0)
    cases = list(_tiling_cases())
    for inst, basis, root in cases[:-1:4]:  # each multigraph's fundamental basis
        c0, _, *rest = basis.gamma
        repeated = CycleBasis((c0, c0, *rest))
        cases.append((inst, repeated, root))
    for inst, basis, root in cases:
        tiles = fine_tiling(inst, basis, root)
        held = []
        for tile in tiles:
            generators, translation, points = implied_tile_by_dense_products(
                inst, basis, tile.structure
            )
            assert (tile.generators, tile.translation) == (generators, translation)
            assert tile.lattice_point == next(iter(points), None)
            held.append(points)
        report = _report_or_error(validate_tiling, inst, basis, tiles)
        if not isinstance(report, str):
            by_point = sorted((z, t) for t, h in enumerate(held) for z in h)
            assert report.incidences == tuple((t, z) for z, t in by_point)
            seen["validated"] += 1
        seen["zero span"] += 0 in inst.span
        seen["d = 0"] += basis.cotree_frame[1] == 0
        seen["points"] += any(held)
    assert min(seen.values()) >= 25, seen


def test_no_walk_while_tiling_and_one_per_validated_tile(monkeypatch):
    """``fine_tiling`` takes each tree's orientation and pinned potentials
    from its growth, with no walk of either kind: no ``tree_walk`` and no
    ``tree_potentials``.  ``validate_tiling`` takes one ``tree_potentials``
    per tile, of its tree, and no ``tree_walk``.  ``tree_walk`` is counted
    in ``graphs`` and ``tree_potentials`` in ``zonotopes``, where their
    callers look them up; the only ``tree_walk`` here is the connectivity
    check of the first enumeration on a graph object, over every arc,
    which later enumerations on that object reuse."""
    walks, potential_walks = [], []
    walk, potentials = graphs.tree_walk, zonotopes.tree_potentials

    def counted_walk(g, tree, *args):
        walks.append(tuple(tree))
        return walk(g, tree, *args)

    def counted_potentials(g, tree, *args):
        potential_walks.append(tuple(tree))
        return potentials(g, tree, *args)

    monkeypatch.setattr(graphs, "tree_walk", counted_walk)
    monkeypatch.setattr(zonotopes, "tree_potentials", counted_potentials)
    sq, basis = square_instance(), square_basis()
    walks.clear()
    spanning_trees(sq.graph)
    assert walks == [tuple(range(sq.graph.m))]
    walks.clear()
    tiles = fine_tiling(sq, basis, "v2")
    assert walks == []
    assert potential_walks == []
    assert validate_tiling(sq, basis, tiles).ok
    assert potential_walks == [t.structure.tree for t in tiles]
    assert walks == []


def test_fine_tiling_matches_the_tree_walk_oracle():
    """Growing each tree from the root gives the tiles of walking every
    tree of the contraction-deletion recursion from it, for every root of
    the ``_duality_corpus`` instances (the acceptance corpus among them)."""
    tilings = 0
    for inst, basis in _duality_corpus():
        for root in inst.graph.vertices:
            assert fine_tiling(inst, basis, root) == fine_tiling_by_tree_walks(inst, basis, root)
            tilings += 1
    assert tilings >= 700, tilings


def _random_generators(rng, mu, singular):
    """Random integer columns; a singular draw makes one column an integer
    combination of the others (the zero column when mu = 1)."""
    cols = [[rng.randint(-5, 5) for _ in range(mu)] for _ in range(mu)]
    if singular:
        i = rng.randrange(mu)
        others = [col for k, col in enumerate(cols) if k != i] or [[0] * mu]
        x, y = rng.choice(others), rng.choice(others)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        cols[i] = [a * u + b * v for u, v in zip(x, y)]
    return tuple(tuple(col) for col in cols)


def _frame_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        mu = k % 7
        yield rng, mu, _random_generators(rng, mu, singular=mu > 0 and rng.random() < 0.2)


def test_tile_frame_is_a_scaled_inverse():
    kinds = {"singular": 0, "negative": 0, "positive": 0}
    for _, mu, gens in _frame_cases(700, 41):
        det = _bareiss_det([[col[k] for col in gens] for k in range(mu)])
        frame = _inverse_frame(gens)
        if det == 0:
            assert frame is None
            kinds["singular"] += 1
            continue
        d, adj = frame
        assert abs(d) == abs(det)
        for i in range(mu):
            for c in range(mu):
                assert sum(adj[i][j] * gens[c][j] for j in range(mu)) == (d if i == c else 0)
        kinds["negative" if det < 0 else "positive"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_tile_containment_matches_the_fraction_oracle():
    """Points t + G c / q for integer c in [-1, q + 1]^mu put lambda = c / q
    inside, on a facet (lambda = 0 or 1) and just outside the tile."""
    seen = dict.fromkeys(("singular", "negative", "lambda=0", "lambda=1", "inside", "outside"), 0)
    cases = 0
    for rng, mu, base in _frame_cases(600, 43):
        q = rng.randint(1, 4)
        gens = tuple(tuple(q * v for v in col) for col in base)
        translation = tuple(rng.randint(-20, 20) for _ in range(mu))
        tile = Tile(SpanningTreeStructure((), (), ()), gens, translation, None)
        det = _bareiss_det([[col[k] for col in gens] for k in range(mu)])
        seen["singular"] += det == 0
        seen["negative"] += det < 0
        for _ in range(4):
            c = [rng.choice((-1, 0, q, q + 1, rng.randint(0, q))) for _ in range(mu)]
            point = tuple(
                t + sum(ck * col[k] for ck, col in zip(c, base)) for k, t in enumerate(translation)
            )
            if rng.random() < 0.25:
                point = tuple(v + rng.randint(-3, 3) for v in point)
            coords = solve_parallelotope_coords(gens, translation, point)
            expected = coords is not None and all(0 <= lam <= 1 for lam in coords)
            assert tile_contains_scaled(tile, point) == expected, (gens, translation, point)
            seen["inside" if expected else "outside"] += 1
            if expected:
                seen["lambda=0"] += 0 in coords
                seen["lambda=1"] += 1 in coords
            cases += 1
    assert cases >= 500
    assert min(seen.values()) >= 50, seen


def test_tiles_hold_the_offsets_whose_pinned_tree_extends():
    """Tile/tension correspondence: T z lies in a tree's tile exactly when
    pinning the tree arcs to their bounds and propagating potentials under
    the offset p(z) puts every co-tree arc within its bounds.  The tile's
    lattice point is the first such z in sorted order."""
    checked = 0
    for seed in range(40):
        rng = random.Random(700 + seed)
        inst = random_instance(rng, max_vertices=5, max_arcs=7, max_period=10)
        g, T = inst.graph, inst.period
        basis = default_basis(g)
        if width(inst, basis) > 200:
            continue
        if basis.mu and rng.random() < 0.5:
            basis = fundamental_cycle_basis(g, rng.choice(spanning_trees(g)))
        offsets = list(
            itertools.product(*(range(-(-lo // T), hi // T + 1) for lo, hi in odijk_box(inst, basis)))
        )
        for tile in fine_tiling(inst, basis, root=rng.choice(g.vertices)):
            s = tile.structure
            holding = []
            for z in offsets:
                p = offset_from_cycle_offset(basis, z) if basis.mu else offset_zero(inst)
                pinned = {
                    a: (inst.upper[a] if a in s.at_upper else inst.lower[a]) - T * p[a]
                    for a in s.tree
                }
                pi = tree_potentials(g, s.tree, pinned)
                extends = all(
                    inst.lower[a] <= pi[j] - pi[i] + T * p[a] <= inst.upper[a]
                    for a, (i, j) in enumerate(g.arc_index_pairs)
                    if a not in s.tree
                )
                assert tile_contains_scaled(tile, tuple(T * v for v in z)) == extends
                if extends:
                    holding.append(z)
            assert tile.lattice_point == (holding[0] if holding else None)
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize(
    "call",
    [
        lambda inst, basis, root: structure_for_tree(inst.graph, (0, 1), root),
        lambda inst, basis, root: fine_tiling(inst, basis, root),
        lambda inst, basis, root: duality_check(inst, basis, root),
        lambda inst, basis, root: tension_to_timetable(inst, (8, 2, 4), root),
    ],
    ids=(
        "structure_for_tree",
        "fine_tiling",
        "duality_check",
        "tension_to_timetable",
    ),
)
def test_an_unknown_root_is_a_value_error(call):
    inst, basis = _triangle()
    with pytest.raises(ValueError, match="unknown vertex 'v9'"):
        call(inst, basis, "v9")


def test_duality_triangle_values():
    inst, basis = _triangle()
    report = duality_check(inst, basis, root="v1")
    assert report.ok
    assert report.checked == 3
    got = [(e.cycle_offset, e.tension, e.timetable) for e in report.entries]
    assert got == [
        ((0,), (3, 10, 7), (-3, 0, 7)),
        ((1,), (3, 6, 13), (-3, 0, 3)),
        ((2,), (9, 2, 13), (-9, 0, -7)),
    ]
    assert all(e.feasible_vertex and e.matches_tropical_vertex for e in report.entries)


def test_duality_holds_for_every_root():
    inst, basis = _triangle()
    for root in inst.graph.vertices:
        assert duality_check(inst, basis, root=root).ok
    sq = square_instance()
    for root in sq.graph.vertices:
        rep = duality_check(sq, square_basis(), root=root)
        assert rep.ok
        assert rep.checked == 12
        tiles = fine_tiling(sq, square_basis(), root=root)
        assert duality_check(sq, square_basis(), root=root, tiles=tiles) == rep


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _duality_corpus():
    """(inst, basis) pairs: the worked instances, the golden instance
    files (fixed arcs contracted, as ``analyze`` does) but the frontier
    solves s8800 and l5, whose tilings are over the default budget, and 200
    seeded random instances, of which the first 100 are the acceptance
    corpus."""
    yield _triangle()
    yield square_instance(), square_basis()
    for path in sorted(GOLDEN.glob("*.pesp")):
        if path.stem in ("s8800", "l5"):
            continue
        inst = parse_instance(path.read_text(encoding="utf-8"))
        if any(l == u for l, u in zip(inst.lower, inst.upper)):
            inst = contract_fixed_arcs(inst).instance
        yield inst, default_basis(inst.graph)
    for inst, basis, _, _ in random_corpus(200):
        yield inst, basis


def test_duality_matches_the_full_polytrope_oracle():
    """``duality_check`` reads one shortest path row per entry and gives
    the report the full polytrope gives, for every root: on its own
    tiling, on the tiling of another root, and on tiles whose lattice
    point is swapped for another box point, whose pinned tensions then
    break an arc or whose class is empty."""
    reports = infeasible = unmatched = empty = 0
    for inst, basis in _duality_corpus():
        vertices = inst.graph.vertices
        assert duality_check(inst, basis) == duality_check_by_polytropes(inst, basis)
        box = list(box_points(inst, basis))
        for k, root in enumerate(vertices):
            tiles = fine_tiling(inst, basis, root)
            other = vertices[(k + 1) % len(vertices)]
            swapped = [
                tile._replace(lattice_point=box[(t * 7 + k) % len(box)])
                for t, tile in enumerate(tiles)
                if box
            ]
            for checked_root, checked in ((root, tiles), (other, tiles), (root, swapped)):
                report = duality_check(inst, basis, checked_root, tiles=checked)
                assert report == duality_check_by_polytropes(inst, basis, checked_root, checked)
                reports += 1
                infeasible += sum(not e.feasible_vertex for e in report.entries)
                unmatched += sum(not e.matches_tropical_vertex for e in report.entries)
            empty += sum(
                not polytropes.polytrope_nonempty(inst, offset_for(inst, basis, tile.lattice_point))
                for tile in swapped
            )
    counts = (reports, infeasible, unmatched, empty)
    assert reports >= 2100 and infeasible >= 5000 and unmatched >= 7000 and empty >= 3000, counts


def test_duality_check_builds_no_polytrope(monkeypatch):
    """No polytrope or tropical vertex list: one Bellman-Ford from the
    root per distinct lattice point of the checked tiles (the square's 12
    tiles hold 11), and none from the virtual source."""

    def refuse(*args):
        raise AssertionError("duality_check built a polytrope")

    patched = [(polytropes, "Polytrope"), (polytropes, "_polytrope"), (zonotopes, "_polytrope")]
    for module, name in patched + [(polytropes, "tropical_vertices")]:
        monkeypatch.setattr(module, name, refuse)
    sq, basis = square_instance(), square_basis()
    tiles = fine_tiling(sq, basis, "v2")
    runs = count_bellman_ford(monkeypatch)
    report = duality_check(sq, basis, "v2", tiles=tiles)
    assert report.ok and report.checked == 12
    assert runs == [(sq.graph.n, 2)] * 11


def test_duality_check_runs_one_bellman_ford_per_distinct_lattice_point(monkeypatch):
    """The root's Kleene-star row depends on z alone, so mu6's 185 tiles,
    55 of them holding a point, take 35 runs from the root, one per
    distinct point, and every entry is the one the polytrope oracle gives."""
    inst, basis = _mu6()
    tiles = fine_tiling(inst, basis)
    expected = duality_check_by_polytropes(inst, basis, None, tiles)
    runs = count_bellman_ford(monkeypatch)
    report = duality_check(inst, basis, tiles=tiles)
    assert len(tiles) == 185 and report.checked == 55
    assert runs == [(inst.graph.n, 0)] * 35
    assert report == expected


def test_width_bound_report_triangle():
    inst, basis = _triangle()
    rep = width_bound_report(inst, basis)
    assert rep.width == 3
    assert rep.num_spanning_trees == 3
    assert rep.epsilon == 8
    assert rep.volume == Fraction(13, 5)
    assert rep.lower_bound == Fraction(12, 5)
    assert rep.slack_product == Fraction(13, 5)
    assert rep.refined_upper == Fraction(39, 10)
    assert rep.coarse_upper == 6
    assert rep.cycle_lengths == (3,)
    assert rep.chain_holds
    assert rep.trees_within_length_product
    assert not rep.infeasible
    assert rep.ok


def test_width_bound_report_square():
    rep = width_bound_report(square_instance(), square_basis())
    assert rep.width == 12
    assert rep.num_spanning_trees == 12
    assert rep.chain_holds
    assert rep.ok


def test_zero_width_is_infeasibility_evidence():
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 10, (1, 1), (2, 2), (1, 1))
    basis = default_basis(g)
    assert width(inst, basis) == 0
    rep = width_bound_report(inst, basis)
    assert rep.infeasible
    assert rep.infeasible_cycles == ((0, Fraction(1, 5), Fraction(2, 5)),)
    assert not rep.chain_holds
    assert not rep.ok
    # the quantities that do not depend on W >= 1 stay honest
    assert rep.epsilon == 1
    assert rep.volume == Fraction(1, 5)
    assert rep.lower_bound <= rep.volume <= rep.slack_product
    assert rep.trees_within_length_product
    assert lattice_points(inst, basis) == ()


def test_width_bound_report_handles_trees():
    inst = parse_instance(TREE_TEXT)
    rep = width_bound_report(inst, default_basis(inst.graph))
    assert rep.mu == 0
    assert rep.strict_upper_vacuous
    assert rep.chain_holds
    assert rep.ok


def _mu6():
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text(encoding="utf-8"))
    return inst, default_basis(inst.graph)


def _two_rows_one_empty():
    g = Digraph(("a", "b", "c"), (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")))
    inst = PespInstance(g, 10, (1, 1, 0, 0), (2, 2, 9, 9), (1, 1, 1, 1))
    return inst, default_basis(g)


def test_width_bound_report_reads_the_cycles_from_the_sparse_rows():
    """Cycle slacks and lengths read off the nonzeros of each row equal
    the span sums and lengths of the cycles' supports, and a report given
    a kernel equals one without, on every ``_tiling_cases`` basis (d = 0
    from a repeated row and d = 2 among them)."""
    seen = dict.fromkeys(("d = 0", "d = 2", "infeasible"), 0)
    cases = list(_tiling_cases())
    for inst, basis, _ in cases[:-1:4]:  # each multigraph's fundamental basis
        c0, _, *rest = basis.gamma
        cases.append((inst, CycleBasis((c0, c0, *rest)), None))
    for inst, basis, _ in cases:
        rep = width_bound_report(inst, basis)
        T = inst.period
        assert rep.cycle_slacks == tuple(
            Fraction(sum(inst.span[a] for a, s in enumerate(row) if s), T) for row in basis.gamma
        )
        assert rep.cycle_lengths == tuple(sum(map(bool, row)) for row in basis.gamma)
        assert width_bound_report(inst, basis, TileKernel(inst, basis)) == rep
        seen["d = 0"] += basis.cotree_frame[1] == 0
        seen["d = 2"] += abs(basis.cotree_frame[1]) == 2
        seen["infeasible"] += rep.infeasible
    assert min(seen.values()) >= 5, seen


def test_width_bound_report_takes_the_volume_of_its_kernel(monkeypatch):
    """Given a kernel, the report reads the kernel's volume, which the
    kernel computes once for the report and the validation together; a
    kernel of another basis raises ValueError."""
    inst, basis = _mu6()
    calls = []
    real = zonotopes.volume
    monkeypatch.setattr(zonotopes, "volume", lambda *a: calls.append(a) or real(*a))
    kernel = TileKernel(inst, basis)
    rep = width_bound_report(inst, basis, kernel)
    report = validate_tiling(inst, basis, fine_tiling(inst, basis, None, kernel), kernel=kernel)
    assert calls == [(inst, basis)]
    assert rep.volume == report.zonotope_volume == real(inst, basis)
    with pytest.raises(ValueError, match="another instance or basis"):
        width_bound_report(inst, basis, TileKernel(inst, basis.permuted((1, 0, 2, 3, 4, 5))))


@pytest.mark.parametrize("name", ["triangle", "square", "two rows, one empty", "mu6"])
def test_width_bound_report_builds_the_odijk_box_once(monkeypatch, name):
    """One box per report, where ``width``, the report itself and
    ``_box_integer_ranges`` each built one; an empty row's ends come from
    that row's ``odijk_range`` alone."""
    inst, basis = {
        "triangle": _triangle,
        "square": lambda: (square_instance(), square_basis()),
        "two rows, one empty": _two_rows_one_empty,
        "mu6": _mu6,
    }[name]()
    T, box = inst.period, odijk_box(inst, basis)
    empty = tuple(
        (k, Fraction(lo, T), Fraction(hi, T))
        for k, (lo, hi) in enumerate(box)
        if -(-lo // T) > hi // T
    )
    calls = []
    real = zonotopes.odijk_box
    monkeypatch.setattr(zonotopes, "odijk_box", lambda *a: calls.append(a) or real(*a))
    rep = width_bound_report(inst, basis)
    assert len(calls) == 1
    assert rep.infeasible_cycles == empty
    assert rep.infeasible == bool(empty) == (name == "two rows, one empty")


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _bound_cases():
    """The ``random_corpus`` under its default basis and, at mu >= 2, each
    of its ``random_bases`` (one with d = 2), a tree, then every golden
    instance, contracted where it has a fixed arc, under its default basis."""
    for inst, basis, _, rng in random_corpus(40):
        yield inst, basis
        if basis.mu >= 2:
            for other in random_bases(rng, inst.graph):
                yield inst, other
    tree = parse_instance(TREE_TEXT)
    yield tree, default_basis(tree.graph)
    for path in sorted(GOLDEN.glob("*.pesp")):
        inst = parse_instance(path.read_text())
        if any(l == u for l, u in zip(inst.lower, inst.upper)):
            inst = contract_fixed_arcs(inst).instance
        yield inst, default_basis(inst.graph)


def test_the_integer_bound_chain_equals_the_fraction_formulas():
    """Every field of the report, computed from integer row sums over the
    common denominator T^mu, equals the Fraction formulas of
    ``width_bound_by_fractions``, type included (the reprs match: Fraction,
    int and bool alike), on feasible and infeasible boxes and under a
    basis that is not integral."""
    seen = dict.fromkeys(("infeasible", "not integral", "mu 0", "goldens"), 0)
    for inst, basis in _bound_cases():
        rep = width_bound_report(inst, basis)
        reference = width_bound_by_fractions(inst, basis)
        assert repr(rep) == repr(reference), (inst, basis)
        assert rep == reference
        seen["infeasible"] += rep.infeasible
        seen["not integral"] += abs(basis.cotree_frame[1]) != 1
        seen["mu 0"] += rep.mu == 0
        seen["goldens"] += rep.num_spanning_trees > 10_000
    assert min(seen.values()) >= 1, seen
