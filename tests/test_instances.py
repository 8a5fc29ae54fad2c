import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peritrope import (
    DisconnectedGraph,
    Infeasible,
    InfeasibleFixedCycle,
    InvalidBounds,
    ParseError,
    PespInstance,
    brute_force_timetable,
    contract_fixed_arcs,
    default_basis,
    parse_instance,
    serialize_instance,
    timetable_to_tension,
    validate,
)
from helpers import random_instance, triangle_instance

TRIANGLE_TEXT = """\
# running example
PERIOD 10
ARC v0 v1 3 12 1
ARC v0 v2 2 10 1
ARC v1 v2 4 13 1
"""


def test_parse_triangle():
    inst = parse_instance(TRIANGLE_TEXT)
    assert inst.graph.vertices == ("v0", "v1", "v2")
    assert inst.period == 10
    assert inst.lower == (3, 2, 4)
    assert inst.upper == (12, 10, 13)
    assert inst.weight == (1, 1, 1)


def test_parse_accepts_bytes_and_event_lines():
    text = "PERIOD 5\nEVENT a\nEVENT b\nARC a b 0 3 2\n"
    inst = parse_instance(text.encode())
    assert inst.graph.vertices == ("a", "b")


def test_parse_event_order_inferred_from_arcs():
    inst = parse_instance("PERIOD 5\nARC x y 0 1 0\nARC z x 0 1 0\n")
    assert inst.graph.vertices == ("x", "y", "z")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("PERIOD 10\nARC a b 3\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_instance("ARC a b 0 1 1\n")  # no PERIOD
    with pytest.raises(ParseError):
        parse_instance("PERIOD 10\nPERIOD 10\nARC a b 0 1 1\n")


def test_a_self_loop_is_refused_on_its_own_line():
    with pytest.raises(ParseError, match=r"^line 3: arc 1 is a self-loop at b$") as err:
        parse_instance("PERIOD 10\nARC a b 1 2 1\nARC b b 1 2 1\n")
    assert err.value.line_no == 3


def test_parse_rejects_bad_bounds():
    with pytest.raises(InvalidBounds) as err:
        parse_instance("PERIOD 10\nARC a b 3 14 1\n")
    assert err.value.arc == 0
    with pytest.raises(InvalidBounds):
        parse_instance("PERIOD 10\nARC a b -1 4 1\n")


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        parse_instance("PERIOD 10\nEVENT a\nEVENT b\nEVENT c\nARC a b 0 1 1\n")
    with pytest.raises(DisconnectedGraph):
        parse_instance("PERIOD 10\nEVENT a\nEVENT b\n")


def test_roundtrip_is_identity_on_canonical_form():
    inst = parse_instance(TRIANGLE_TEXT)
    canon = serialize_instance(inst)
    assert parse_instance(canon) == inst
    assert serialize_instance(parse_instance(canon)) == canon


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_roundtrip_random(seed):
    inst = random_instance(random.Random(seed))
    assert parse_instance(serialize_instance(inst)) == inst


def test_validate_flags_span_equal_to_period():
    inst = triangle_instance()
    assert validate(inst).ok
    bad = PespInstance(inst.graph, 10, (3, 2, 4), (13, 10, 13), (1, 1, 1))
    report = validate(bad)
    assert not report.ok
    assert any("span" in msg for msg in report.all_messages())


def test_validate_flags_negative_weight_and_lower():
    inst = triangle_instance()
    assert not validate(PespInstance(inst.graph, 10, (-1, 2, 4), (8, 10, 13), (1, 1, 1))).ok
    assert not validate(PespInstance(inst.graph, 10, (3, 2, 4), (12, 10, 13), (1, -1, 1))).ok


def test_contract_noop_without_fixed_arcs():
    inst = triangle_instance()
    result = contract_fixed_arcs(inst)
    assert result.instance == inst
    assert result.objective_offset == 0
    assert result.vertex_map == {"v0": "v0", "v1": "v1", "v2": "v2"}
    assert result.arc_map == (0, 1, 2)


def test_contract_single_fixed_arc_keeps_mu_and_objective():
    text = "PERIOD 10\nARC v0 v1 3 12 1\nARC v0 v2 5 5 1\nARC v1 v2 4 13 1\n"
    inst = parse_instance(text)
    result = contract_fixed_arcs(inst)
    small = result.instance
    assert small.graph.n == 2
    assert default_basis(small.graph).mu == default_basis(inst.graph).mu
    assert result.vertex_map["v2"] == "v0"
    before = brute_force_timetable(inst).objective
    after = brute_force_timetable(small).objective + result.objective_offset
    assert before == after


def test_contract_chain_collapses_to_one_vertex():
    text = "PERIOD 10\nARC a b 2 2 1\nARC b c 3 3 1\nARC c a 5 5 1\n"
    inst = parse_instance(text)
    result = contract_fixed_arcs(inst)
    assert result.instance.graph.n == 1
    # all tension is frozen, so the whole objective moves into the offset
    assert result.objective_offset == 2 + 3 + 5


def test_an_arc_whose_ends_are_merged_leaves_the_arc_map():
    text = "PERIOD 10\nARC a b 3 3 1\nARC a b 1 8 1\nARC b c 1 5 1\n"
    result = contract_fixed_arcs(parse_instance(text))
    assert result.instance.graph.arcs == (("a", "c"),)
    assert result.arc_map == (None, None, 0)


def test_contract_detects_inconsistent_fixed_cycle():
    text = "PERIOD 10\nARC a b 3 3 1\nARC b c 2 2 1\nARC a c 4 4 1\n"
    with pytest.raises(InfeasibleFixedCycle):
        contract_fixed_arcs(parse_instance(text))


def test_contract_maps_each_fixed_component_to_its_smallest_vertex():
    # fixed components {a, b} and {c, d, e}, each reached first from a
    # larger vertex in arc order
    text = (
        "PERIOD 10\nEVENT a\nEVENT b\nEVENT c\nEVENT d\nEVENT e\n"
        "ARC e d 1 1 1\nARC a c 1 8 1\nARC d c 3 3 2\nARC b a 2 2 1\n"
        "ARC b d 0 7 2\nARC c a 3 9 1\n"
    )
    inst = parse_instance(text)
    result = contract_fixed_arcs(inst)
    assert result.vertex_map == {"a": "a", "b": "a", "c": "c", "d": "c", "e": "c"}
    assert result.instance.graph.vertices == ("a", "c")
    assert result.arc_map == (None, 0, None, None, 1, 2)
    before = brute_force_timetable(inst).objective
    after = brute_force_timetable(result.instance).objective + result.objective_offset
    assert before == after


def test_contract_fixed_objective_matches_oracle_on_random_instances():
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=5, max_period=8, min_span=0)
        if all(l < u for l, u in zip(inst.lower, inst.upper)):
            continue
        try:
            result = contract_fixed_arcs(inst)
        except InfeasibleFixedCycle:
            continue
        try:
            before = brute_force_timetable(inst).objective
        except Infeasible:
            continue
        after = result.objective_offset
        if result.instance.graph.m:
            after += brute_force_timetable(result.instance).objective
        assert before == after
        checked += 1
    assert checked >= 5


def test_limit_instance_covers_the_torus():
    # every timetable extends to a feasible tension once spans reach the period
    inst = triangle_instance()
    inst = inst._replace(upper=tuple(l + inst.period for l in inst.lower))
    rng = random.Random(3)
    for _ in range(100):
        pi = tuple(rng.randrange(10) for _ in range(3))
        x, _ = timetable_to_tension(inst, pi)
        assert all(l <= v <= u for l, v, u in zip(inst.lower, x, inst.upper))
