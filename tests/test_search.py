import json
import pathlib
import random
from collections import Counter

import pytest

import peritrope.graphs
import peritrope.polytropes
import peritrope.search
import peritrope.zonotopes
from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    EnumerationCapExceeded,
    InvariantViolation,
    OffsetMemo,
    PeritropeError,
    PespInstance,
    RetriesExhausted,
    Solution,
    default_basis,
    greedy_spanning_tree,
    initial_solution,
    lattice_points,
    minimize_over_polytrope,
    neighbors,
    neighbourhood_graph,
    offset_for,
    parse_instance,
    polytrope_nonempty,
    solution_from_timetable,
    solve_exact,
    tns,
    tns_restarts,
    trace_to_jsonl,
    verify_solution,
    width,
)
from peritrope.fixedlp import cycle_relaxation_bound
from peritrope.zonotopes import BoxSearch
from helpers import (
    box_points,
    check_empty_certificate,
    count_bellman_ford,
    count_polytrope_solves,
    drop_learned_cuts,
    drop_learned_rows,
    lattice_points_by_box_scan,
    objective_floor,
    random_corpus,
    random_bases,
    random_instance,
    solve_exact_by_box_scan,
    square_basis,
    square_instance,
    tns_restarts_by_eager_steps,
    triangle_instance,
    varied_instance,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def test_solution_from_timetable():
    inst, basis = _triangle()
    sol = solution_from_timetable(inst, basis, (0, 8, 2))
    assert sol.tension == (8, 2, 4)
    assert sol.periodic_offset == (0, 0, 1)
    assert sol.cycle_offset == (1,)
    assert sol.objective == 14
    assert verify_solution(inst, basis, sol) == []


@pytest.mark.parametrize("pi", [(0, 8), (0, 8, 2, 5), ()])
def test_solution_from_timetable_refuses_a_timetable_of_the_wrong_length(pi):
    inst, basis = _triangle()
    message = f"^timetable has {len(pi)} entries, the instance has 3 vertices$"
    with pytest.raises(ValueError, match=message):
        solution_from_timetable(inst, basis, pi)


def test_initial_solution_from_the_greedy_tree():
    inst, basis = _triangle()
    sol = initial_solution(inst, seed=0)
    assert sol.timetable == (0, 3, 2)
    assert sol.periodic_offset == (0, 0, 1)
    assert sol.objective == 14
    assert verify_solution(inst, basis, sol) == []


def test_initial_solution_enumerates_no_tree_when_the_first_attempt_lands(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the first attempt uses the greedy tree only")

    monkeypatch.setattr(peritrope.graphs, "spanning_trees", refuse)
    assert initial_solution(triangle_instance(), seed=0).timetable == (0, 3, 2)
    sq = initial_solution(square_instance(), seed=0)
    assert sq.timetable == (0, 7, 0, 7)
    assert sq.objective == 26


# The greedy tree (arcs 0, 1) at its lower bounds puts arc 2 at 11 > 10,
# so every start on this instance comes from a retry over the graph's trees.
RETRIED = "PERIOD 10\nARC v1 v0 2 8 1\nARC v0 v2 1 7 3\nARC v0 v2 5 10 3\n"


def _count_spanning_trees(monkeypatch):
    calls, honest = [], peritrope.graphs.spanning_trees

    def counting(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(peritrope.graphs, "spanning_trees", counting)
    return calls


def test_initial_solution_enumerates_the_tree_pool_once_for_its_retries(monkeypatch):
    """The graph keeps the trees that retries draw from: the first start on
    it enumerates them, every later start on the same graph reuses them."""
    inst = parse_instance(RETRIED)
    calls = _count_spanning_trees(monkeypatch)
    expected = {0: (0, 2, 7), 1: (0, 6, 3), 2: (0, 2, 7), 3: (0, 6, 1)}
    for seed, timetable in expected.items():
        assert initial_solution(inst, seed=seed).timetable == timetable
        assert initial_solution(parse_instance(RETRIED), seed=seed).timetable == timetable
    assert len(calls) == 1 + len(expected)  # one per graph


def test_tns_restarts_enumerate_the_tree_pool_at_most_once(monkeypatch):
    """The restarts of one solve draw their retry trees from the graph's
    list: one ``spanning_trees`` call per graph when first attempts fail,
    none when every first attempt lands, and none for a later solve on the
    same graph.  The starts are those of a fresh graph per start, also when
    the list is the greedy tree alone, since the Kirchhoff count is beyond
    its pool of trees, and no tree is enumerated."""
    calls = _count_spanning_trees(monkeypatch)
    for restarts in (1, 3, 5):
        inst = parse_instance(RETRIED)
        basis = default_basis(inst.graph)
        calls.clear()
        tns_restarts(inst, basis, restarts, seed=restarts)
        tns_restarts(inst, basis, restarts, seed=restarts + 1)
        assert len(calls) == 1
    for inst, basis in ((triangle_instance(), None), (square_instance(), square_basis())):
        calls.clear()
        tns_restarts(inst, basis or default_basis(inst.graph), 3)
        assert calls == []
    counts = []
    for inst, basis in _restart_instances(12):
        calls.clear()
        try:
            tns_restarts(inst, basis, 3, max_iterations=2)
        except RetriesExhausted:
            pass
        counts.append(len(calls))
    assert set(counts) == {0, 1}, counts
    monkeypatch.setattr(peritrope.graphs, "RETRY_POOL", 1)
    inst = parse_instance(RETRIED)
    calls.clear()
    starts = [initial_solution(inst, seed=k) for k in range(4)]
    assert calls == []  # a count beyond the pool enumerates no tree
    assert inst.graph.retry_trees == (greedy_spanning_tree(inst.graph),)
    assert starts == [initial_solution(parse_instance(RETRIED), seed=k) for k in range(4)]


def test_initial_solution_gives_up_on_an_infeasible_instance():
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 10, (1, 1), (2, 2), (1, 1))
    with pytest.raises(RetriesExhausted, match="^no feasible start found in 200 attempts$"):
        initial_solution(inst, seed=0)


def test_initial_solution_always_lands_when_all_arcs_are_free():
    for seed in range(10):
        rng = random.Random(500 + seed)
        inst = random_instance(rng, max_vertices=5, max_arcs=7, max_period=9)
        free = PespInstance(
            inst.graph,
            inst.period,
            (0,) * inst.graph.m,
            (inst.period - 1,) * inst.graph.m,
            inst.weight,
        )
        sol = initial_solution(free, seed=seed)
        assert verify_solution(free, default_basis(free.graph), sol) == []


def test_tns_descends_from_the_expensive_class():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    assert start.cycle_offset == (2,)
    assert start.objective == 24
    best, trace = tns(inst, basis, start)
    assert best.objective == 14
    assert [entry["z"] for entry in trace] == [[2], [1]]
    assert [entry["move"] for entry in trace] == ["start", "best-improvement"]
    objectives = [entry["objective"] for entry in trace]
    assert objectives == sorted(objectives, reverse=True)
    assert objectives[0] > objectives[-1]


def test_tns_stays_put_at_a_local_optimum():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 3, 7))
    assert start.objective == 14
    best, trace = tns(inst, basis, start)
    assert best.objective == 14
    assert len(trace) == 1


def test_tns_on_a_tree_instance_returns_immediately():
    inst = parse_instance("PERIOD 10\nARC a b 2 6 1\n")
    basis = default_basis(inst.graph)
    start = initial_solution(inst, seed=0)
    best, trace = tns(inst, basis, start)
    assert best is start or best.objective == start.objective
    assert len(trace) == 1


def test_iteration_cap_limits_the_walk():
    """On mu6 the walk from the seed 6 start makes 4 moves; a cap of k
    moves keeps the first k of them."""
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    start = initial_solution(inst, seed=6, basis=basis)
    best, trace = tns(inst, basis, start)
    assert len(trace) == 5
    for cap in range(1, 6):
        capped, capped_trace = tns(inst, basis, start, max_iterations=cap)
        assert capped_trace == trace[: cap + 1]
        assert capped.objective == capped_trace[-1]["objective"]
    assert capped == best


# A seventh entry on mu6 used to be dropped without a word by ``steps``,
# ``neighbors`` and every tns step, whose trace kept the 7-entry z, and
# made ``OffsetMemo.bound`` raise a bare IndexError.
@pytest.mark.parametrize(
    "caller, length",
    [(caller, 7) for caller in ("steps", "neighbors", "tns", "bound")]
    + [(caller, 5) for caller in ("steps", "neighbors", "tns")],
)
def test_a_cycle_offset_of_the_wrong_length_is_refused(caller, length):
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    start = initial_solution(inst, seed=6, basis=basis)
    z = (start.cycle_offset + (0,))[:length]
    memo = OffsetMemo(inst, basis)
    assert memo.bound(z[:5]) is not None  # a prefix is bounded
    run = {
        "steps": lambda: peritrope.polytropes.steps(basis, z),
        "neighbors": lambda: neighbors(inst, basis, z),
        "tns": lambda: tns(inst, basis, start._replace(cycle_offset=z)),
        "bound": lambda: memo.bound(z),
    }[caller]
    message = f"^cycle offset has {length} entries, the basis has 6 rows$"
    with pytest.raises(ValueError, match=message):
        run()


def test_config_validation():
    """tns refuses a cap of fewer than one move."""
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    with pytest.raises(ValueError, match="^max_iterations must be at least 1$"):
        tns(inst, basis, start, max_iterations=0)


@pytest.mark.parametrize(
    "restarts, max_iterations, name",
    [(0, 9, "restarts"), (-1, 9, "restarts"), (1, 0, "max_iterations"), (3, -2, "max_iterations")],
)
def test_tns_restarts_refuses_fewer_than_one_walk_or_move(restarts, max_iterations, name):
    """Zero restarts is refused, not run as one walk, like a cap of zero
    moves, also on an instance where no start can be found."""
    infeasible = parse_instance("PERIOD 10\nARC a b 1 2 1\nARC b a 1 2 1\n")
    for inst in (triangle_instance(), infeasible):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
            tns_restarts(inst, default_basis(inst.graph), restarts, max_iterations)


def test_traces_are_strictly_decreasing_on_random_instances():
    ran = 0
    for seed in range(20):
        rng = random.Random(4000 + seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=6, max_period=9)
        basis = default_basis(inst.graph)
        try:
            start = initial_solution(inst, seed=seed, basis=basis)
        except RetriesExhausted:
            continue
        best, trace = tns(inst, basis, start)
        objectives = [entry["objective"] for entry in trace]
        assert all(a > b for a, b in zip(objectives, objectives[1:]))
        assert best.objective == objectives[-1]
        assert verify_solution(inst, basis, best) == []
        seen = [tuple(entry["z"]) for entry in trace]
        assert len(seen) == len(set(seen))
        ran += 1
    assert ran >= 15


def test_trace_jsonl_round_trips():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    _, trace = tns(inst, basis, start)
    text = trace_to_jsonl(trace)
    lines = text.strip().split("\n")
    assert len(lines) == len(trace)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["move"] == "start"
    assert sorted(parsed[0]) == ["move", "objective", "z"]


def test_neighbourhood_graph_is_a_path_on_the_triangle():
    inst, basis = _triangle()
    graph = neighbourhood_graph(inst, basis)
    assert set(graph.nodes) == {(0,), (1,), (2,)}
    assert set(graph.edges) == {((0,), (1,)), ((1,), (2,))}
    assert graph.objective == {(0,): 14, (1,): 14, (2,): 24}


def test_neighbourhood_graph_square():
    sq = square_instance()
    graph = neighbourhood_graph(sq, square_basis())
    assert len(graph.nodes) == 11
    assert len(graph.edges) == 25
    nodes = set(graph.nodes)
    for a, b in graph.edges:
        assert a in nodes and b in nodes
        assert a < b
    assert min(graph.objective.values()) == 26


def test_neighbourhood_graph_solves_only_the_lattice_points(monkeypatch):
    """mu6 (288 box points, 35 nodes): the memo's own search from the root
    prefix (), keeping every leaf, gives the graph that testing every box
    point and then solving the nodes gives, with 44 Bellman-Ford runs in
    place of 323.  Each solve is the one test of its box point, so no
    separate ``lattice_points`` walk (46 runs) comes first: the 35 nodes
    and 9 empty offsets are solved once each, and the rows of the empty
    ones rule out the rest of the box.  Its gradings, its solves and the
    optimal faces of its nodes are charged to the budget: one unit too few
    stops the last face, and 50 units the search."""
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    nodes = lattice_points_by_box_scan(inst, basis)
    objective = {
        z: minimize_over_polytrope(inst, offset_for(inst, basis, z)).objective for z in nodes
    }
    moves = peritrope.polytropes.steps
    edges = sorted({tuple(sorted((z, y))) for z in nodes for y in moves(basis, z) if y in objective})
    tested = count_bellman_ford(monkeypatch)
    budget = Budget()
    graph = neighbourhood_graph(inst, basis, budget)
    assert (graph.nodes, list(graph.edges), graph.objective) == (nodes, edges, objective)
    assert len(tested) == 35 + 9 and len(nodes) == 35 and width(inst, basis) == 288
    assert neighbourhood_graph(inst, basis, Budget(budget.spent)) == graph
    for units, layer in ((budget.spent - 1, "face vertices"), (50, "offset search")):
        with pytest.raises(EnumerationCapExceeded, match=f" ran out in {layer}: "):
            neighbourhood_graph(inst, basis, Budget(units))


_CALLERS = {
    "solve_exact": solve_exact,
    # z = 2 (objective 24), whose neighbour z = 1 (objective 14) improves.
    "tns": lambda inst, basis: tns(inst, basis, solution_from_timetable(inst, basis, (0, 9, 2))),
    "neighbourhood_graph": neighbourhood_graph,
}


def _corrupted(change):
    """A step of the polytrope solve that applies ``change`` to each honest
    result."""
    return lambda honest: lambda *args: change(honest(*args))


# Each fault patches ``search`` to break one invariant of ``OffsetMemo``:
# (attribute, replacement given the honest function, message).
_FAULTS = {
    "ruled-out": (
        "cycle_relaxation_bound",
        lambda honest: lambda i, b: lambda z: None,
        "rules out .*, a point of the box",
    ),
    "below-bound": (
        "cycle_relaxation_bound",
        lambda honest: lambda i, b: lambda z: 15,
        "below its cycle relaxation bound 15",
    ),
    "below-cut": (
        "certified_optimum",
        _corrupted(lambda res: res._replace(cut=(res.cut[0] + 1, res.cut[1]))),
        r"\(objective 14\) is below the learned cut 15$",
    ),
    "offset-drift": (
        "optimal_vertex",
        _corrupted(lambda res: res._replace(timetable=(0, 9, 2))),
        r"rebuilt into \(2,\) \(objective 24\)",
    ),
    "objective-drift": (
        "certified_optimum",
        _corrupted(lambda res: res._replace(objective=res.objective + 1)),
        r"\(objective 15\) rebuilt into \(\d,\) \(objective 14\)",
    ),
}


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("caller", _CALLERS)
def test_every_caller_runs_every_offset_check(monkeypatch, caller, fault):
    """solve_exact, tns and neighbourhood_graph get every bound, optimum
    and rebuilt solution from one ``OffsetMemo``, so each of them raises
    on a box point the relaxation rules out, an optimum below its bound
    or below a learned cut (a cut planted one above the flow's is above
    the optimum it was learned at), and an optimum whose vertex rebuilds
    into another offset or objective."""
    inst, basis = _triangle()
    name, corrupt, message = _FAULTS[fault]
    monkeypatch.setattr(peritrope.search, name, corrupt(getattr(peritrope.search, name)))
    with pytest.raises(InvariantViolation, match=message):
        _CALLERS[caller](inst, basis)


@pytest.mark.parametrize("caller", ["solve_exact", "tns_restarts", "lattice_points"])
def test_a_row_that_leaves_its_own_offset_open_is_an_invariant_violation(monkeypatch, caller):
    # A zero vector in place of the solve's negative cycle gives the shared
    # row 0 <= 0 <= 0, which every offset meets, the empty one it was
    # learned at included.  The walk of mu6's box meets an empty point first.
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    honest = peritrope.zonotopes.odijk_row
    monkeypatch.setattr(
        peritrope.zonotopes, "odijk_row", lambda i, b, gamma: honest(i, b, (0,) * len(gamma))
    )
    run = {
        "solve_exact": solve_exact,
        "tns_restarts": lambda i, b: tns_restarts(i, b, 3, seed=1),
        "lattice_points": lattice_points,
    }
    with pytest.raises(InvariantViolation, match=r"learned at the empty offset .* leaves it open$"):
        run[caller](inst, basis)


def test_a_row_that_rules_out_a_nonempty_offset_is_an_invariant_violation(monkeypatch):
    # The range (1, 0) holds no integer, so the shared row rules out every
    # offset.  The first walk on mu6 solves nonempty offsets before its
    # first empty one, whose row then rules them out; so does the lattice
    # walk, in box order, on corpus instance 15.
    inst = parse_instance((GOLDEN / "mu6.pesp").read_text())
    basis = default_basis(inst.graph)
    corpus, corpus_basis, _, _ = random_corpus(16)[15]
    points = lattice_points(corpus, corpus_basis)
    assert min(points) < min(z for z in box_points(corpus, corpus_basis) if z not in points)
    honest = peritrope.zonotopes.odijk_row
    monkeypatch.setattr(peritrope.zonotopes, "odijk_row", lambda *args: (honest(*args)[0], 1, 0))
    for run in (
        lambda: tns_restarts(inst, basis, 3, seed=1),
        lambda: lattice_points(corpus, corpus_basis),
    ):
        with pytest.raises(InvariantViolation, match=r"rules out .*, which is nonempty$"):
            run()


def test_every_learned_row_is_an_oriented_cycle_that_rules_out_only_empty_offsets(monkeypatch):
    # On the property corpus the memo solves every box point in box order
    # and learns a row at each empty one, from the negative cycle its solve
    # found (recorded here as ``learn_row`` gets it).  Each row comes from an
    # oriented cycle of the graph that proves its offset empty
    # (``check_empty_certificate``) and is negative there as oriented, and
    # every box point it rules out is empty.
    honest = OffsetMemo.learn_row
    cycles = []

    def recording(memo, z, gamma):
        cycles.append(gamma)
        honest(memo, z, gamma)

    monkeypatch.setattr(OffsetMemo, "learn_row", recording)
    learned = ruled_out = 0
    for inst, basis, _, _ in random_corpus(100):
        T = inst.period
        memo = OffsetMemo(inst, basis)
        points = list(box_points(inst, basis))
        empty = {z for z in points if not polytrope_nonempty(inst, offset_for(inst, basis, z))}
        cycles.clear()
        for z in points:
            memo.optimum(z)
        rows = [form for form in memo.forms if form[5] is None]
        assert len(cycles) == len(rows) == len(empty)
        for z, gamma, (ty, _, _, lo, hi, _) in zip(sorted(empty), cycles, rows):
            p = offset_for(inst, basis, z)
            assert check_empty_certificate(inst, p, gamma) == []
            length = sum(
                inst.upper[a] - T * p[a] if g > 0 else T * p[a] - inst.lower[a]
                for a, g in enumerate(gamma)
                if g
            )
            assert length < 0
            out = [y for y in points if not lo <= sum(map(int.__mul__, ty, y)) <= hi]
            assert z in out and set(out) <= empty
            ruled_out += len(out)
        learned += len(cycles)
    assert learned >= 180 and ruled_out >= 1500


@pytest.mark.parametrize(
    "name, rows, cuts, units, points, walk_rows",
    [("s8800", 4, 11, 9_584, 183, 18), ("l5", 14, 19, 4_399, 112, 44)],
)
def test_every_form_enters_through_learn_row_or_learn_cut(
    monkeypatch, name, rows, cuts, units, points, walk_rows
):
    """Each form of the memo of ``solve_exact`` and of the lattice walk of
    ``lattice_points`` is one call of ``BoxSearch.learn_row`` or
    ``learn_cut``, and both do the work pinned on the golden: the memo's
    rows, cuts and offset search units, the walk's points and rows."""
    calls, spent = {}, Counter()
    for method in ("learn_row", "learn_cut"):
        honest = getattr(BoxSearch, method)

        def counting(search, *args, honest=honest, method=method):
            calls.setdefault(search, Counter())[method] += 1
            return honest(search, *args)

        monkeypatch.setattr(BoxSearch, method, counting)
    charge = Budget.charge

    def tallied(budget, layer, units=1):
        charge(budget, layer, units)
        spent[layer] += units

    monkeypatch.setattr(Budget, "charge", tallied)
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    basis = default_basis(inst.graph)
    solve_exact(inst, basis)
    assert len(lattice_points(inst, basis)) == points
    memo, walk = calls
    assert isinstance(memo, OffsetMemo) and not isinstance(walk, OffsetMemo)
    assert calls[memo] == {"learn_row": rows, "learn_cut": cuts}
    assert len(memo.forms) == rows + cuts and sum(f[5] is None for f in memo.forms) == rows
    assert calls[walk] == {"learn_row": walk_rows} and len(walk.forms) == walk_rows
    assert spent["offset search"] == units


def _restart_instances(count):
    """Seeded random instances with 5 to 7 events, each with its default
    basis."""
    rng = random.Random(9000)
    while count:
        inst = random_instance(rng, max_vertices=7, max_arcs=10, max_period=10, min_span=3)
        if inst.graph.n >= 5:
            count -= 1
            yield inst, default_basis(inst.graph)


def _restarts_without_a_memo(inst, basis, restarts, max_iterations, seed):
    """Reference for tns_restarts: each walk solves every offset afresh."""
    best = None
    for k in range(restarts):
        try:
            start = initial_solution(inst, seed=seed + k, basis=basis)
        except RetriesExhausted:
            continue
        walk = tns(inst, basis, start, max_iterations)
        if best is None or walk[0].objective < best[0].objective:
            best = walk
    if best is None:
        raise RetriesExhausted("no start")
    return best


# (seed offset, max_iterations) of the walks the differential tests run
# on each instance: capped and uncapped walks from several starts.
_WALKS = ((0, 1), (100, 2), (200, 4), (300, 100))


def test_shared_offset_memo_changes_no_result():
    compared = 0
    moved = 0
    for k, (inst, basis) in enumerate(_restart_instances(36)):
        for j, (offset, max_iterations) in enumerate(_WALKS):
            args = (inst, basis, 1 + (k + j) % 3, max_iterations, k + offset)
            try:
                expected = _restarts_without_a_memo(*args)
            except RetriesExhausted:
                with pytest.raises(RetriesExhausted):
                    tns_restarts(*args)
                continue
            assert tns_restarts(*args) == expected
            compared += 1
            moved += len(expected[1]) > 1
    assert compared >= 130 and moved >= 55


def test_each_offset_is_solved_once_per_restart_solve(monkeypatch):
    solved, scanned = [], []

    def optimum(inst, p, *args, **kwargs):
        solved.append(tuple(p))
        return certified(inst, p, *args, **kwargs)

    def steps(basis, z):
        scanned.append(tuple(z))
        return peritrope.polytropes.steps(basis, z)

    monkeypatch.setattr(peritrope.search, "steps", steps)
    totals = []
    for learn in ("nothing", "cuts", "cuts and rows"):
        with monkeypatch.context() as patch:
            if learn == "nothing":
                drop_learned_cuts(patch)
            if learn != "cuts and rows":
                drop_learned_rows(patch)
            certified = peritrope.search.certified_optimum
            patch.setattr(peritrope.search, "certified_optimum", optimum)
            solves = solved_total = repeated_without_sharing = 0
            for k, (inst, basis) in enumerate(_restart_instances(12)):
                solved.clear()
                scanned.clear()
                try:
                    _restarts_without_a_memo(inst, basis, 3, 100, k)
                except RetriesExhausted:
                    continue
                repeated_without_sharing += len(solved) - len(set(solved))
                solved.clear()
                scanned.clear()
                tns_restarts(inst, basis, 3, seed=k)
                assert len(solved) == len(set(solved))
                assert scanned and len(scanned) == len(set(scanned))
                solves += 1
                solved_total += len(solved)
        assert solves >= 10
        assert repeated_without_sharing > 0
        totals.append(solved_total)
    # Learned cuts skip 10 of the 33 solves the replay without cuts and
    # rows makes, and learned rows 4 of the 23 left.
    assert totals == [33, 23, 19]


def test_a_memo_serves_only_its_own_instance_and_basis():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    memo = OffsetMemo(inst, basis)
    assert tns(inst, basis, start, memo=memo) == tns(inst, basis, start)
    with pytest.raises(ValueError):
        tns(triangle_instance(weights=(1, 2, 3)), basis, start, memo=memo)


def _never_prunes(inst, basis):
    """A bound below every objective of the instance: no neighbour dropped."""
    floor = objective_floor(inst)
    return lambda z: floor


def test_pruned_neighbours_change_no_walk(monkeypatch):
    # tns drops only neighbours it could not choose, by their bound, by a
    # learned cut or by a learned row, so every walk, trace included,
    # equals one that optimizes every unvisited neighbour.
    # Weights of 0 and 1 on half of the varied cases make ties, so
    # neighbours whose bound equals the objective occur.
    compared = moved = 0
    rng = random.Random(9100)
    cases = list(_restart_instances(24))
    while len(cases) < 60:
        inst = varied_instance(rng, max_vertices=7, max_arcs=10)
        if len(cases) % 2 == 0:
            inst = inst._replace(weight=tuple(rng.randint(0, 1) for _ in inst.weight))
        if inst.graph.n >= 5:
            cases.append((inst, default_basis(inst.graph)))
    for k, (inst, basis) in enumerate(cases):
        for j, (offset, max_iterations) in enumerate(_WALKS):
            args = (inst, basis, 1 + (k + j) % 3, max_iterations, k + offset)
            try:
                pruned = tns_restarts(*args)
            except RetriesExhausted:
                pruned = None
            with monkeypatch.context() as patch:
                patch.setattr(peritrope.search, "cycle_relaxation_bound", _never_prunes)
                drop_learned_cuts(patch)
                drop_learned_rows(patch)
                try:
                    expected = tns_restarts(*args)
                except RetriesExhausted:
                    expected = None
            assert pruned == expected
            if expected is not None:
                compared += 1
                moved += len(expected[1]) > 1
    assert compared >= 190 and moved >= 70


# (solved, empty) of each golden's three tns walks: a row-free replay that
# reads the learned cuts, and the search with its learned rows as well.
# The parametrized counts are those of replays without cuts and rows,
# without the relaxation bound (unpruned) and with it.
_TNS_WITH_CUTS = {"bench7": (2, 2), "mu6": (7, 7)}
_TNS_WITH_ROWS = {"bench7": (2, 2), "mu6": (7, 3)}


@pytest.mark.parametrize(
    "name, unpruned, unpruned_empty, solved, empty",
    [("bench7", 9, 16, 2, 2), ("mu6", 25, 90, 23, 28)],
)
def test_tns_optimizes_only_the_neighbours_that_can_be_chosen(
    monkeypatch, name, unpruned, unpruned_empty, solved, empty
):
    # A walk solves, and so tests for emptiness, only the steps that can
    # still be chosen; without the bound, the cuts and the rows it solves
    # every step, empty or not.  Every replay takes the same walks.
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    basis = default_basis(inst.graph)
    walk = tns_restarts(inst, basis, 3, seed=1)
    replays = []
    for bound, learn_cuts, learn_rows in (
        (_never_prunes, False, False),
        (None, False, False),
        (None, True, False),
        (None, True, True),
    ):
        with monkeypatch.context() as patch:
            if bound is not None:
                patch.setattr(peritrope.search, "cycle_relaxation_bound", bound)
            if not learn_cuts:
                drop_learned_cuts(patch)
            if not learn_rows:
                drop_learned_rows(patch)
            solves, empties, _ = count_polytrope_solves(patch, peritrope.search)
            assert tns_restarts(inst, basis, 3, seed=1) == walk
        assert len(solves) == len(set(solves)) and len(empties) == len(set(empties))
        replays.append((len(solves), len(empties)))
    assert replays == [
        (unpruned, unpruned_empty),
        (solved, empty),
        _TNS_WITH_CUTS[name],
        _TNS_WITH_ROWS[name],
    ]


def _memo_walks(inst, basis, seeds):
    """The cycle offsets that tns walks from ``initial_solution`` of each
    seed, all sharing one ``OffsetMemo``, move to."""
    memo = OffsetMemo(inst, basis)
    moved = set()
    for seed in seeds:
        start = initial_solution(inst, seed=seed, basis=basis)
        _, trace = tns(inst, basis, start, memo=memo)
        moved.update(tuple(entry["z"]) for entry in trace[1:])
    return moved


@pytest.mark.parametrize("name", ["bench7", "mu6", "s8800"])
def test_the_search_bounds_each_whole_offset_once_and_hands_that_bound_on(monkeypatch, name):
    """``solve_exact`` and ``neighbourhood_graph`` take each whole z's
    relaxation bound once, when its node is pushed, and ``optimum`` gets
    that bound from the node, not the node's lower, which learned cuts
    raise above it at some solves (counted, so the two differ here)."""
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    basis = default_basis(inst.graph)
    reference = cycle_relaxation_bound(inst, basis)
    bounded, handed = [], []

    def counting(i, b):
        honest = cycle_relaxation_bound(i, b)

        def bound(z):
            if len(z) == b.mu:
                bounded.append(tuple(z))
            return honest(z)

        return bound

    honest_optimum = OffsetMemo.optimum

    def optimum(self, z, learned=None, relax=None):
        handed.append((z, relax, reference(z), learned))
        return honest_optimum(self, z, learned, relax)

    monkeypatch.setattr(peritrope.search, "cycle_relaxation_bound", counting)
    monkeypatch.setattr(OffsetMemo, "optimum", optimum)
    runs = [lambda: solve_exact(inst, basis), lambda: neighbourhood_graph(inst, basis)]
    raised = 0
    for run in runs:
        bounded.clear()
        handed.clear()
        run()
        assert len(bounded) == len(set(bounded)) >= len(handed)
        assert {z for z, _, _, _ in handed} <= set(bounded)
        assert all(relax == bound for _, relax, bound, _ in handed)
        raised += sum(learned > relax for _, relax, _, learned in handed)
    assert raised >= 5, raised


@pytest.mark.parametrize("name", ["bench7", "mu6", "zero9"])
def test_one_vertex_build_per_solution(monkeypatch, name):
    # Only the offsets a caller takes get their vertex built, each once:
    # the winner of solve_exact, the moves of tns walks that share a memo,
    # and the nodes of neighbourhood_graph.  zero9's zero weights make every
    # optimal face a whole polytrope, too large to build for every node.
    inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
    basis = default_basis(inst.graph)
    _, _, vertices = count_polytrope_solves(monkeypatch, peritrope.search)

    def built(run):
        vertices.clear()
        taken = set(run())
        assert sorted(vertices) == sorted(offset_for(inst, basis, z) for z in taken)
        return len(taken)

    counts = [
        built(lambda: [solve_exact(inst, basis).cycle_offset]),
        built(lambda: _memo_walks(inst, basis, range(3))),
    ]
    if name != "zero9":
        counts.append(built(lambda: neighbourhood_graph(inst, basis).nodes))
    assert counts == {"bench7": [1, 1, 15], "mu6": [1, 3, 35], "zero9": [1, 0]}[name]


def test_an_empty_relaxation_at_a_neighbour_is_an_invariant_violation(monkeypatch):
    # A hand-built row on arc 2 alone cannot close its gap at z = 0 or 2,
    # the neighbours of z = 1 that Bellman-Ford found nonempty.
    inst, basis = _triangle()
    middle = minimize_over_polytrope(inst, offset_for(inst, basis, (1,)))
    start = solution_from_timetable(inst, basis, middle.timetable)
    assert start.cycle_offset == (1,)
    lone = CycleBasis([(0, 0, 1)])
    monkeypatch.setattr(
        peritrope.search, "cycle_relaxation_bound", lambda i, b: cycle_relaxation_bound(i, lone)
    )
    with pytest.raises(InvariantViolation, match="rules out .*, a point of the box"):
        tns(inst, basis, start)


def test_a_neighbour_optimum_below_its_bound_is_an_invariant_violation(monkeypatch):
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    monkeypatch.setattr(peritrope.search, "cycle_relaxation_bound", lambda i, b: lambda z: 15)
    with pytest.raises(InvariantViolation, match="below its cycle relaxation bound"):
        tns(inst, basis, start)


def _outcome(solve, *args):
    """A solver's result, or the type and text of the error it raised."""
    try:
        return solve(*args)
    except (PeritropeError, ValueError) as exc:
        return type(exc), str(exc)


def test_bounded_search_matches_the_eager_oracles():
    # solve_exact and tns bound every offset before any Bellman-Ford and
    # solve only those that can still win; the oracles test every box point
    # and every neighbour, and solve every nonempty one.  Each pair must
    # give the same Solution, trace and error.  Weights of 0 and 1 on every
    # other instance make ties: equal objectives whose bounds rank them
    # against their z order.  Each feasible instance runs ten walks, each
    # from its own seed and under one of four iteration caps.  On an infeasible
    # instance every start fails, so one walk per instance compares that.
    rng = random.Random(9300)
    solved = non_fundamental = moved = failed = 0
    for k in range(300):
        inst = varied_instance(rng, max_vertices=7, max_arcs=13)
        if k % 2 == 0:
            inst = inst._replace(weight=tuple(rng.randint(0, 1) for _ in inst.weight))
        basis = default_basis(inst.graph)
        if k // 2 % 2 and inst.graph.m - inst.graph.n + 1 >= 2:
            basis = random_bases(rng, inst.graph)[1 + k // 4 % 2]
        expected = _outcome(solve_exact_by_box_scan, inst, basis)
        assert _outcome(solve_exact, inst, basis) == expected
        feasible = isinstance(expected, Solution)
        solved += feasible
        non_fundamental += feasible and basis.tree is None
        for j in range(10) if feasible else (k % 10,):
            restarts = 1 + (k + j) % 3 if feasible else 1
            args = (inst, basis, restarts, (1, 2, 4, 100)[j % 4], k + 100 * j)
            expected = _outcome(tns_restarts_by_eager_steps, *args)
            assert _outcome(tns_restarts, *args) == expected
            if isinstance(expected[1], str):
                failed += 1
            else:
                moved += len(expected[1]) > 1
    assert solved >= 130 and non_fundamental >= 15
    assert moved >= 290 and failed >= 120
