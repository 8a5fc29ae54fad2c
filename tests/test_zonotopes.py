import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from peritrope import (
    Digraph,
    EnumerationCapExceeded,
    FixedArcPresent,
    PespInstance,
    SpanningTreeStructure,
    Tile,
    default_basis,
    duality_check,
    fine_tiling,
    fundamental_cycle_basis,
    lattice_points,
    odijk_box,
    parse_instance,
    scaled_point_in_zonotope,
    offset_from_cycle_offset,
    offset_zero,
    spanning_trees,
    structure_for_tree,
    tile_contains_scaled,
    validate_tiling,
    volume,
    volume_by_tree_sum,
    width,
    width_bound_report,
    zonotope_descriptor,
    zonotope_membership,
)
from peritrope import zonotopes
from peritrope.graphs import _bareiss_det, tree_potentials
from peritrope.zonotopes import _tile_frame
from helpers import (
    random_instance,
    solve_parallelotope_coords,
    square_basis,
    square_instance,
    triangle_graph,
    triangle_instance,
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
        assert zonotope_membership(sq, square_basis(), z)
        for k, (lo, hi) in enumerate(box):
            assert lo <= 10 * z[k] <= hi


def test_membership_rejects_outside_offsets():
    inst, basis = _triangle()
    assert zonotope_membership(inst, basis, (0,))
    assert zonotope_membership(inst, basis, (2,))
    assert not zonotope_membership(inst, basis, (3,))
    assert not zonotope_membership(inst, basis, (-1,))


def test_scaled_membership_hits_the_segment_ends():
    inst, basis = _triangle()
    assert scaled_point_in_zonotope(inst, basis, (-3,))
    assert scaled_point_in_zonotope(inst, basis, (5,))
    assert scaled_point_in_zonotope(inst, basis, (23,))
    assert not scaled_point_in_zonotope(inst, basis, (-4,))
    assert not scaled_point_in_zonotope(inst, basis, (24,))


def test_lattice_cap():
    sq = square_instance()
    with pytest.raises(EnumerationCapExceeded):
        lattice_points(sq, square_basis(), cap=5)


def test_volume_values():
    inst, basis = _triangle()
    assert volume(inst, basis) == Fraction(13, 5)
    assert volume_by_tree_sum(inst) == Fraction(13, 5)
    sq = square_instance()
    assert volume(sq, square_basis()) == Fraction(2187, 250)
    assert volume_by_tree_sum(sq) == Fraction(2187, 250)


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


def test_validate_tiling_flags_a_shifted_tile():
    inst, basis = _triangle()
    tiles = list(fine_tiling(inst, basis, root="v1"))
    tiles[0] = dataclasses.replace(tiles[0], translation=(-40,))
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
    tiles[0] = dataclasses.replace(tiles[0], generators=((40,),))
    report = validate_tiling(inst, basis, tiles)
    assert calls
    assert not report.tiles_inside
    assert not report.ok
    # the same parallelotope with its generators listed in another order
    # takes the per-vertex fallback and is still inside
    sq, sq_basis = square_instance(), square_basis()
    tiles = list(fine_tiling(sq, sq_basis))
    tiles[0] = dataclasses.replace(tiles[0], generators=tiles[0].generators[::-1])
    calls.clear()
    report = validate_tiling(sq, sq_basis, tiles)
    assert calls
    assert report.tiles_inside
    assert report.ok


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
        frame = _tile_frame(gens)
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
