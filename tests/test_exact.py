import json
import pathlib
import random

import pytest

import peritrope.fixedlp
import peritrope.search
from peritrope import (
    CycleBasis,
    Digraph,
    EnumerationCapExceeded,
    Infeasible,
    InvariantViolation,
    PespInstance,
    brute_force_timetable,
    default_basis,
    fundamental_cycle_basis,
    offset_for,
    parse_instance,
    solve_exact,
    spanning_trees,
    verify_solution,
)
from peritrope.fixedlp import cycle_relaxation_bound
from peritrope.zonotopes import lattice_points
from helpers import (
    box_points,
    count_bellman_ford,
    count_polytrope_solves,
    drop_learned_cuts,
    drop_learned_rows,
    random_bases,
    random_corpus,
    random_instance,
    solve_exact_by_full_scan,
    square_basis,
    square_instance,
    triangle_instance,
    varied_instance,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def test_solve_exact_triangle():
    inst, basis = _triangle()
    sol = solve_exact(inst, basis)
    assert sol.objective == 14
    # two classes attain 14; ties break toward the smaller cycle offset
    assert sol.cycle_offset == (0,)
    assert sol.timetable == (0, 3, 7)
    assert sol.tension == (3, 7, 4)
    assert verify_solution(inst, basis, sol) == []


def test_brute_force_triangle():
    inst, basis = _triangle()
    sol = brute_force_timetable(inst, basis)
    assert sol.objective == 14
    # the grid scan breaks ties toward the smallest timetable instead
    assert sol.timetable == (0, 3, 2)
    assert verify_solution(inst, basis, sol) == []


def test_square_objective():
    sq = square_instance()
    assert solve_exact(sq, square_basis()).objective == 26
    assert brute_force_timetable(sq, square_basis()).objective == 26


def test_solve_exact_is_basis_independent():
    sq = square_instance()
    rng = random.Random(5)
    trees = spanning_trees(sq.graph)
    for _ in range(4):
        basis = fundamental_cycle_basis(sq.graph, rng.choice(trees))
        assert solve_exact(sq, basis).objective == 26


def test_both_oracles_report_infeasibility():
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 10, (1, 1), (2, 2), (1, 1))
    with pytest.raises(Infeasible):
        solve_exact(inst)
    with pytest.raises(Infeasible):
        brute_force_timetable(inst)
    assert _both_oracles(inst) is None


def test_brute_force_caps():
    inst, _ = _triangle()
    with pytest.raises(EnumerationCapExceeded):
        brute_force_timetable(inst, max_period=5)


def _outcome(solve, inst, basis):
    try:
        return solve(inst, basis)
    except Infeasible:
        return None


def _both_oracles(inst, basis=None):
    """The common objective of ``solve_exact`` and ``brute_force_timetable``,
    or None when both report infeasible; each solution must pass
    ``verify_solution``."""
    if basis is None:
        basis = default_basis(inst.graph)
    exact = _outcome(solve_exact, inst, basis)
    grid = _outcome(brute_force_timetable, inst, basis)
    assert (exact is None) == (grid is None)
    if exact is None:
        return None
    assert exact.objective == grid.objective
    assert verify_solution(inst, basis, exact) == []
    assert verify_solution(inst, basis, grid) == []
    return exact.objective


def test_crosscheck_triangle():
    inst, basis = _triangle()
    assert _both_oracles(inst, basis) == 14


def test_crosscheck_tree_instance():
    inst = parse_instance("PERIOD 10\nARC a b 2 6 3\n")
    assert _both_oracles(inst) == 6
    assert solve_exact(inst).tension == (2,)


def test_crosscheck_on_random_instances():
    feasible = 0
    for seed in range(25):
        rng = random.Random(6000 + seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=6, max_period=9)
        feasible += _both_oracles(inst) is not None
    assert feasible > 0


def test_verify_solution_spots_corruption():
    inst, basis = _triangle()
    sol = solve_exact(inst, basis)
    bad_tension = sol._replace(tension=(3, 7, 5))
    assert verify_solution(inst, basis, bad_tension)
    bad_offset = sol._replace(cycle_offset=(1,))
    assert verify_solution(inst, basis, bad_offset)
    bad_value = sol._replace(objective=13)
    assert verify_solution(inst, basis, bad_value)
    out_of_bounds = sol._replace(tension=(99, *sol.tension[1:]))
    assert "arc 0: tension 99 outside bounds" in verify_solution(inst, basis, out_of_bounds)


def test_solve_exact_matches_the_full_scan():
    # Pruning by the relaxation bound keeps the (objective, z) argmin of
    # the scan over every lattice point, Solution for Solution.
    solved = non_fundamental = graded = 0
    for seed in range(120):
        rng = random.Random(7300 + seed)
        inst = varied_instance(rng)
        bases = [default_basis(inst.graph)]
        if inst.graph.m - inst.graph.n + 1 >= 2:
            bases += random_bases(rng, inst.graph)[1:3]
        for basis in bases:
            expected = _outcome(solve_exact_by_full_scan, inst, basis)
            assert _outcome(solve_exact, inst, basis) == expected
            solved += expected is not None
            non_fundamental += expected is not None and basis.tree is None
        if inst.graph.n <= 5 and inst.period <= 10:
            assert _both_oracles(inst) == (None if expected is None else expected.objective)
            graded += 1
    assert solved >= 150 and non_fundamental >= 30 and graded >= 40


# (solved, empty) of each golden's solve_exact: a row-free replay that
# reads the learned cuts, and the search with its learned rows as well.
# The parametrized counts are those of the cut-free, row-free replay.
_WITH_CUTS = {"bench7": (2, 4), "mu6": (5, 9)}
_WITH_ROWS = {"bench7": (2, 2), "mu6": (5, 4)}


@pytest.mark.parametrize(
    "name, scanned, solved, empty", [("bench7", 15, 3, 5), ("mu6", 35, 16, 26)]
)
def test_solve_exact_optimizes_only_the_offsets_that_can_win(
    monkeypatch, name, scanned, solved, empty
):
    # Each offset that can still win is solved once; the empty ones among
    # them are found by that solve, not by a scan of the box.  Replayed
    # without learned cuts and rows, the relaxation bound alone prunes, and
    # the search reaches the same argmin with more solves; each empty
    # offset's row then rules out offsets that the row-free replay solves.
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    basis = default_basis(inst.graph)
    assert len(lattice_points(inst, basis)) == scanned
    counts = []
    for learn_cuts in (False, True):
        with monkeypatch.context() as patch:
            if not learn_cuts:
                drop_learned_cuts(patch)
            drop_learned_rows(patch)
            solves, empties, _ = count_polytrope_solves(patch, peritrope.search)
            replayed = solve_exact(inst, basis)
        assert replayed == solve_exact_by_full_scan(inst, basis)
        assert len(set(solves)) == len(solves) and len(set(empties)) == len(empties)
        counts.append((len(solves), len(empties)))
    assert counts == [(solved, empty), _WITH_CUTS[name]]
    solves, empties, vertices = count_polytrope_solves(monkeypatch, peritrope.search)
    assert solve_exact(inst, basis) == replayed
    assert (len(solves), len(empties)) == _WITH_ROWS[name]
    assert len(set(solves)) == len(solves) and len(set(empties)) == len(empties)
    assert vertices == [offset_for(inst, basis, replayed.cycle_offset)]


def test_solve_exact_runs_nine_bellman_fords_and_five_flows_on_mu6(monkeypatch):
    # The cut-free, row-free replay runs 42 Bellman-Fords and 16 flows, the
    # row-free one 14 and 5.  Rows save five empty solves: five solves and
    # four empty ones are left, and each row comes from its failed solve's
    # run, with no extraction run of its own.
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    honest, counts = peritrope.fixedlp._reduced_cost_flow, []
    for learn in ("nothing", "cuts", "cuts and rows"):
        with monkeypatch.context() as patch:
            if learn == "nothing":
                drop_learned_cuts(patch)
            if learn != "cuts and rows":
                drop_learned_rows(patch)
            runs, flows = count_bellman_ford(patch), []
            patch.setattr(
                peritrope.fixedlp,
                "_reduced_cost_flow",
                lambda *args: flows.append(args) or honest(*args),
            )
            sol = solve_exact(inst, basis)
        counts.append((len(runs), len(flows)))
        assert sol.objective == json.loads((GOLDEN / "mu6.solve.json").read_text())["objective"]
    assert counts == [(42, 16), (14, 5), (9, 5)]


def test_each_solve_of_solve_exact_is_its_only_bellman_ford(monkeypatch):
    # Over the property corpus every Bellman-Ford of solve_exact opens a
    # polytrope solve: an empty offset's row comes from the negative cycle
    # of its failed solve, with no second run.
    runs = count_bellman_ford(monkeypatch)
    solves, empties, _ = count_polytrope_solves(monkeypatch, peritrope.search)
    learned = 0
    for inst, basis, _, _ in random_corpus(100):
        del runs[:], solves[:], empties[:]
        try:
            solve_exact(inst, basis)
        except Infeasible:
            pass
        assert runs == [(inst.graph.n, None)] * (len(solves) + len(empties))
        learned += len(empties)
    assert learned >= 40, learned


def test_an_offset_a_cut_skips_still_needs_an_integer_offset(monkeypatch):
    # A basis of determinant -2, where some box points have no integer
    # offset.  Which of them a search reaches depends on what it learned
    # first, so the memo refuses the basis before any solve, with or
    # without learned cuts.
    graph = Digraph(
        ("v0", "v1", "v2"),
        (("v0", "v1"), ("v2", "v1"), ("v0", "v2"), ("v2", "v0"), ("v1", "v0")),
    )
    inst = PespInstance(graph, 8, (6, 4, 2, 5, 5), (6, 11, 9, 8, 12), (2, 4, 4, 1, 4))
    rows = ((1, -1, 1, 2, 0), (1, -1, -1, 0, 0), (0, 1, 0, -1, 1))
    basis = CycleBasis(rows)
    assert basis.cotree_frame[1] == -2
    for learn in (False, True):
        with monkeypatch.context() as patch:
            if not learn:
                drop_learned_cuts(patch)
            solves, empties, _ = count_polytrope_solves(patch, peritrope.search)
            runs = count_bellman_ford(patch)
            with pytest.raises(ValueError, match=r"^basis is not integral: .* \|det\| 2, not 1$"):
                solve_exact(inst, basis)
        assert (solves, empties, runs) == ([], [], [])


# The empty offsets each golden's zero-weight solve finds: in the row-free
# replay, every box point before the first nonempty one, and with rows.
_ZERO_WEIGHT_EMPTIES = {"bench7": (9, 3), "mu6": (26, 3)}


@pytest.mark.parametrize("name", ["bench7", "mu6"])
def test_a_zero_weight_instance_solves_the_box_up_to_its_first_nonempty_point(
    monkeypatch, name
):
    # Every bound is 0, so once a point solves to 0 a later one could only
    # tie it with a larger z: the box points after the first nonempty one
    # are never solved.  The row-free replay solves every box point before
    # it; with rows, each empty one rules out some of those after it.
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    inst = inst._replace(weight=(0,) * inst.graph.m)
    basis = default_basis(inst.graph)
    points = list(box_points(inst, basis))
    first = points.index(lattice_points(inst, basis)[0])
    assert 0 < first < len(points) - 1
    expected = solve_exact_by_full_scan(inst, basis)
    before = [offset_for(inst, basis, z) for z in points[:first]]
    for learn_rows in (False, True):
        with monkeypatch.context() as patch:
            if not learn_rows:
                drop_learned_rows(patch)
            solves, empties, _ = count_polytrope_solves(patch, peritrope.search)
            assert solve_exact(inst, basis) == expected
        assert solves == [offset_for(inst, basis, points[first])]
        assert empties == sorted(empties, key=before.index)
        assert len(empties) == _ZERO_WEIGHT_EMPTIES[name][learn_rows]
    assert _ZERO_WEIGHT_EMPTIES[name][0] == len(before)


def test_an_empty_relaxation_at_a_lattice_point_is_an_invariant_violation(monkeypatch):
    # A hand-built row on arc 2 alone cannot close its gap at z = 0, a
    # lattice point that Bellman-Ford found nonempty.
    inst, basis = _triangle()
    lone = CycleBasis([(0, 0, 1)])
    monkeypatch.setattr(
        peritrope.search, "cycle_relaxation_bound", lambda i, b: cycle_relaxation_bound(i, lone)
    )
    with pytest.raises(InvariantViolation, match="rules out .*, a point of the box"):
        solve_exact(inst, basis)


def test_an_optimum_below_its_bound_is_an_invariant_violation(monkeypatch):
    inst, basis = _triangle()
    monkeypatch.setattr(peritrope.search, "cycle_relaxation_bound", lambda i, b: lambda z: 15)
    with pytest.raises(InvariantViolation, match="below its cycle relaxation bound"):
        solve_exact(inst, basis)


def test_a_tie_is_kept_when_the_smaller_offset_has_the_larger_bound():
    # Three parallel arcs: offsets (0, -1) and (0, 0) both cost 8, but the
    # bound of (0, 0) is 6 and that of (0, -1) is 8, so the winner is
    # solved second and a bound equal to the incumbent must not stop the
    # scan.
    g = Digraph(("v0", "v1"), (("v0", "v1"),) * 3)
    inst = PespInstance(g, 6, (3, 4, 1), (7, 8, 5), (1, 0, 1))
    basis = default_basis(g)
    bound = cycle_relaxation_bound(inst, basis)
    assert lattice_points(inst, basis) == ((0, -1), (0, 0))
    assert (bound((0, -1)), bound((0, 0))) == (8, 6)
    sol = solve_exact(inst, basis)
    assert (sol.cycle_offset, sol.objective) == ((0, -1), 8)
    assert sol == solve_exact_by_full_scan(inst, basis)
