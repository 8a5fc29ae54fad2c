"""The nine acceptance checks, one test per criterion.

Each test pins the externally agreed numbers exactly (integers and
Fractions, no float tolerances); the terminal summary prints one
PASS/FAIL line per criterion via conftest.
"""

import json
import random
from fractions import Fraction

import pytest

from peritrope import (
    EnumerationCapExceeded,
    Infeasible,
    RetriesExhausted,
    brute_force_timetable,
    count_spanning_trees_determinant,
    default_basis,
    duality_check,
    enumerate_polytropes,
    fine_tiling,
    fundamental_cycle_basis,
    initial_solution,
    lattice_points,
    neighbourhood_graph,
    odijk_box,
    offset_from_cycle_offset,
    polytrope_build,
    render_torus,
    render_zonotope,
    solution_from_timetable,
    solve_exact,
    spanning_trees,
    timetable_to_tension,
    tns,
    tropical_vertices,
    validate_tiling,
    volume,
    width,
    width_bound_report,
    zonotope_descriptor,
)
from helpers import random_instance, run_cli, square_basis, square_instance, triangle_instance

TRIANGLE_TEXT = """\
PERIOD 10
ARC v0 v1 3 12 1
ARC v0 v2 2 10 1
ARC v1 v2 4 13 1
"""


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def test_criterion_1_running_example_feasibility():
    inst, basis = _triangle()
    x, p = timetable_to_tension(inst, (0, 8, 2))
    assert x == (8, 2, 4)
    assert p == (0, 0, 1)
    z = tuple(sum(row[a] * p[a] for a in range(3)) for row in basis.gamma)
    assert z == (1,)


def test_criterion_2_polytrope_census():
    inst, basis = _triangle()
    polys = enumerate_polytropes(inst, basis)
    assert [poly.cycle_offset for poly in polys] == [(0,), (1,), (2,)]
    assert all(poly.dimension == 2 for poly in polys)
    # viewed in the timetable plane: two triangles around one hexagon
    from peritrope import polytrope_polygon

    assert [len(polytrope_polygon(poly)) for poly in polys] == [3, 6, 3]


def test_criterion_3_tropical_vertices():
    inst, basis = _triangle()
    expected = {0: (0, 3, 10), 1: (0, 3, 6), 2: (0, 9, 2)}
    for z, want in expected.items():
        poly = polytrope_build(inst, basis, (0, 0, z))
        assert tropical_vertices(poly)[1] == want


def test_criterion_4_neighbourhood_descent():
    inst, basis = _triangle()
    graph = neighbourhood_graph(inst, basis)
    assert set(graph.nodes) == {(0,), (1,), (2,)}
    assert set(graph.edges) == {((0,), (1,)), ((1,), (2,))}
    optimum = brute_force_timetable(inst, basis).objective
    assert optimum == 14
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    assert start.cycle_offset == (2,)
    best, trace = tns(inst, basis, start)
    assert best.objective == optimum
    assert len(trace) == 2


def test_criterion_5_zonotope_numbers():
    inst, basis = _triangle()
    T = inst.period
    desc = zonotope_descriptor(inst, basis)
    scaled = [Fraction(g[0], T) for g in desc.generators]
    assert scaled == [Fraction(9, 10), Fraction(-8, 10), Fraction(9, 10)]
    assert Fraction(desc.translation[0], T) == Fraction(1, 2)
    ((lo, hi),) = odijk_box(inst, basis)
    assert (Fraction(lo, T), Fraction(hi, T)) == (Fraction(-3, 10), Fraction(23, 10))
    breakpoints = set()
    for tile in fine_tiling(inst, basis, root="v1"):
        start = tile.translation[0]
        breakpoints.add(Fraction(start, T))
        breakpoints.add(Fraction(start + tile.generators[0][0], T))
    assert breakpoints == {
        Fraction(-3, 10),
        Fraction(6, 10),
        Fraction(14, 10),
        Fraction(23, 10),
    }
    assert lattice_points(inst, basis) == ((0,), (1,), (2,))


def test_criterion_6_second_instance_numbers():
    inst = square_instance()
    basis = square_basis()
    T = inst.period
    trees = spanning_trees(inst.graph)
    assert len(trees) == 12
    assert count_spanning_trees_determinant(inst.graph) == 12
    assert len(fine_tiling(inst, basis)) == 12
    assert len(lattice_points(inst, basis)) == 11
    assert width(inst, basis) == 12
    box = odijk_box(inst, basis)
    factors = []
    for lo, hi in box:
        low = -((-lo) // T)
        high = hi // T
        factors.append(high - low + 1)
    assert factors == [2, 3, 2]
    scaled = [(Fraction(lo, T), Fraction(hi, T)) for lo, hi in box]
    assert scaled == [
        (Fraction(9, 10), Fraction(27, 10)),
        (Fraction(-9, 5), Fraction(9, 5)),
        (Fraction(7, 10), Fraction(5, 2)),
    ]


def test_criterion_7_duality_everywhere():
    for inst, basis in ((triangle_instance(), default_basis(triangle_instance().graph)), (square_instance(), square_basis())):
        for root in inst.graph.vertices:
            report = duality_check(inst, basis, root=root)
            assert report.ok
            assert report.checked == len(spanning_trees(inst.graph))
            for entry in report.entries:
                assert entry.feasible_vertex
                assert entry.matches_tropical_vertex


def _random_corpus(count):
    accepted = []
    seed = 0
    while len(accepted) < count:
        rng = random.Random(9000 + seed)
        seed += 1
        inst = random_instance(rng, max_vertices=5, max_arcs=8, max_period=12)
        basis = default_basis(inst.graph)
        trees = spanning_trees(inst.graph)
        if len(trees) > 120 or width(inst, basis) > 400:
            continue
        accepted.append((inst, basis, trees, rng))
    return accepted


def test_criterion_8_property_suite():
    corpus = _random_corpus(100)
    oracle_agreements = 0
    for inst, basis, trees, rng in corpus:
        # (a) the two exact oracles agree, including on infeasibility
        try:
            exact_obj = solve_exact(inst, basis).objective
        except Infeasible:
            exact_obj = None
        try:
            grid_obj = brute_force_timetable(inst, basis).objective
        except Infeasible:
            grid_obj = None
        assert exact_obj == grid_obj
        oracle_agreements += 1

        # (b) volume and the set of offset classes are basis independent
        vol = volume(inst, basis)
        ref_points = set(lattice_points(inst, basis))
        for _ in range(5):
            alt = fundamental_cycle_basis(inst.graph, rng.choice(trees))
            assert volume(inst, alt) == vol
            mapped = set()
            for z in lattice_points(inst, alt, cap=100_000):
                p = offset_from_cycle_offset(alt, z) if alt.mu else (0,) * inst.graph.m
                mapped.add(
                    tuple(
                        sum(row[a] * p[a] for a in range(inst.graph.m))
                        for row in basis.gamma
                    )
                )
            assert mapped == ref_points

        # (c) lattice count against width and tree count
        assert len(ref_points) <= min(width(inst, basis), len(trees))

        # (d) the spanning tree tiling validates from every root
        for root in inst.graph.vertices:
            tiles = fine_tiling(inst, basis, root=root)
            assert validate_tiling(inst, basis, tiles).ok

        # (e) + (f) exact rational bound chain and the tree-count bound;
        # the chain's theorem assumes width >= 1, so zero width must come
        # with infeasibility evidence and the unconditional sandwich intact
        rep = width_bound_report(inst, basis)
        if rep.width >= 1:
            assert rep.chain_holds
            assert rep.ok
        else:
            assert rep.infeasible
            assert rep.lower_bound <= rep.volume <= rep.slack_product
        assert rep.trees_within_length_product

        # (g) the heuristic only descends and never beats the optimum
        if exact_obj is not None:
            try:
                start = initial_solution(inst, seed=7, basis=basis)
            except RetriesExhausted:
                start = None
            if start is not None:
                best, trace = tns(inst, basis, start)
                objectives = [entry["objective"] for entry in trace]
                assert all(a > b for a, b in zip(objectives, objectives[1:]))
                assert best.objective >= exact_obj
    assert oracle_agreements == 100


def test_criterion_9_determinism(tmp_path):
    path = tmp_path / "triangle.pesp"
    path.write_text(TRIANGLE_TEXT)

    def run(args):
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    assert run(["solve", str(path), "--method", "exact"]) == run(
        ["solve", str(path), "--method", "exact"]
    )
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    run(["render", str(path), "--out", str(svg_a)])
    run(["render", str(path), "--out", str(svg_b)])
    assert svg_a.read_bytes() == svg_b.read_bytes()
    zono_a = tmp_path / "za.svg"
    zono_b = tmp_path / "zb.svg"
    run(["render", str(path), "--what", "zonotope", "--out", str(zono_a)])
    run(["render", str(path), "--what", "zonotope", "--out", str(zono_b)])
    assert zono_a.read_bytes() == zono_b.read_bytes()
    # the in-process renderers are part of the same guarantee
    inst, basis = _triangle()
    assert render_torus(inst, basis) == render_torus(inst, basis)
    assert render_zonotope(inst, basis) == render_zonotope(inst, basis)
