import json
import random

import pytest

import peritrope.search
from peritrope import (
    Digraph,
    FixedOffsetResult,
    InvariantViolation,
    PespInstance,
    RetriesExhausted,
    TnsConfig,
    default_basis,
    initial_solution,
    neighbourhood_graph,
    parse_instance,
    solution_from_timetable,
    tns,
    trace_to_jsonl,
    verify_solution,
)
from helpers import random_instance, square_basis, square_instance, triangle_instance


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


def test_initial_solution_from_the_greedy_tree():
    inst, basis = _triangle()
    sol = initial_solution(inst, seed=0)
    assert sol.timetable == (0, 3, 2)
    assert sol.periodic_offset == (0, 0, 1)
    assert sol.objective == 14
    assert verify_solution(inst, basis, sol) == []


def test_initial_solution_with_an_explicit_tree():
    inst, basis = _triangle()
    sol = initial_solution(inst, seed=0, tree=(0, 1))
    assert sol.timetable == (0, 3, 2)


def test_initial_solution_gives_up_on_an_infeasible_instance():
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 10, (1, 1), (2, 2), (1, 1))
    with pytest.raises(RetriesExhausted):
        initial_solution(inst, seed=0, retries=20)


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


def test_first_improvement_also_descends():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    config = TnsConfig(strategy="first-improvement")
    best, trace = tns(inst, basis, start, config)
    assert best.objective == 14
    assert trace[-1]["move"] == "first-improvement"


def test_sideways_moves_are_labeled_and_bounded():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 3, 7))
    assert start.cycle_offset == (0,)
    config = TnsConfig(allow_sideways=True)
    best, trace = tns(inst, basis, start, config)
    assert best.objective == 14
    assert [entry["z"] for entry in trace] == [[0], [1]]
    assert trace[1]["move"] == "sideways"


def test_iteration_cap_limits_the_walk():
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    config = TnsConfig(max_iterations=1, allow_sideways=True)
    best, trace = tns(inst, basis, start, config)
    assert len(trace) <= 2


def test_config_validation():
    with pytest.raises(ValueError):
        TnsConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TnsConfig(strategy="steepest")


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


def test_offset_drift_in_tns_is_an_invariant_violation(monkeypatch):
    # A neighbour's optimum that rebuilds into the start's own class.
    inst, basis = _triangle()
    start = solution_from_timetable(inst, basis, (0, 9, 2))
    drifted = FixedOffsetResult(start.timetable, start.tension, start.objective - 1, None)
    monkeypatch.setattr(peritrope.search, "minimize_over_polytrope", lambda *a, **k: drifted)
    with pytest.raises(InvariantViolation):
        tns(inst, basis, start)
