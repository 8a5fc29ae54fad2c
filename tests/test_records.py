"""The package's records: value semantics, frozen fields, validation.

Every record is a ``collections.namedtuple`` subclass.  Their repr,
equality and hash are those of the frozen dataclasses they replace; the
repr strings below were recorded from those dataclasses, but for
``CycleBasis``, whose rows are now its field ``gamma``."""

import copy
import pickle
from fractions import Fraction

import pytest

from peritrope import (
    ContractionResult,
    CycleBasis,
    Digraph,
    DualityEntry,
    DualityReport,
    FixedOffsetResult,
    NeighbourhoodGraph,
    PespInstance,
    Polytrope,
    Solution,
    SpanningTreeStructure,
    Tile,
    TilingReport,
    ValidationReport,
    WidthBoundReport,
    ZonotopeDescriptor,
)


def _graph():
    return Digraph(["a", "b", "c"], [["a", "b"], ("a", "c"), ("b", "c")])


def _basis():
    return CycleBasis([[1, -1, 1]], tree=[1, 0])


def _instance():
    return PespInstance(_graph(), 10, [3, 2, 4], [12, 10, 13], [1, 1, 1])


def _structure():
    return SpanningTreeStructure([1, 0], {1}, [0])


def _solution():
    return Solution((0, 3, 7), (3, 7, 4), (0, 0, 0), (0,), 14)


def _entry():
    return DualityEntry(0, (1,), (12, 10, 8), (0, 12, 10), True, True)


_GRAPH = "Digraph(vertices=('a', 'b', 'c'), arcs=(('a', 'b'), ('a', 'c'), ('b', 'c')))"
_INSTANCE = (
    f"PespInstance(graph={_GRAPH}, period=10, lower=(3, 2, 4), upper=(12, 10, 13),"
    " weight=(1, 1, 1))"
)
_BASIS = "CycleBasis(gamma=((1, -1, 1),), tree=(0, 1))"
_STRUCTURE = "SpanningTreeStructure(tree=(0, 1), at_lower=frozenset({1}), at_upper=frozenset({0}))"
_SOLUTION = (
    "Solution(timetable=(0, 3, 7), tension=(3, 7, 4), periodic_offset=(0, 0, 0),"
    " cycle_offset=(0,), objective=14)"
)
_ENTRY = (
    "DualityEntry(tile_index=0, cycle_offset=(1,), tension=(12, 10, 8), timetable=(0, 12, 10),"
    " feasible_vertex=True, matches_tropical_vertex=True)"
)

# name -> (factory, repr of the same record as a dataclass)
RECORDS = {
    "Digraph": (_graph, _GRAPH),
    "CycleBasis": (_basis, _BASIS),
    "PespInstance": (_instance, _INSTANCE),
    "ValidationReport": (
        lambda: ValidationReport(["period 0 is not positive"], [(0, "negative weight -1")]),
        "ValidationReport(messages=['period 0 is not positive'],"
        " arc_violations=[(0, 'negative weight -1')])",
    ),
    "ContractionResult": (
        lambda: ContractionResult(_instance(), {"a": "a"}, 2, (0, None, 1)),
        f"ContractionResult(instance={_INSTANCE}, vertex_map={{'a': 'a'}}, objective_offset=2,"
        " arc_map=(0, None, 1))",
    ),
    "FixedOffsetResult": (
        lambda: FixedOffsetResult((0, 3, 7), (3, 7, 4), 14),
        "FixedOffsetResult(timetable=(0, 3, 7), tension=(3, 7, 4), objective=14)",
    ),
    "Solution": (_solution, _SOLUTION),
    "NeighbourhoodGraph": (
        lambda: NeighbourhoodGraph(((0,), (1,)), (((0,), (1,)),), {(0,): 14, (1,): 14}),
        "NeighbourhoodGraph(nodes=((0,), (1,)), edges=(((0,), (1,)),),"
        " objective={(0,): 14, (1,): 14})",
    ),
    # A polytrope holds its instance and no distance matrix: ``dist`` is
    # built on first read, off the fields.
    "Polytrope": (
        lambda: Polytrope((0, 0, 1), (1,), -1, _instance()),
        f"Polytrope(offset=(0, 0, 1), cycle_offset=(1,), dimension=-1, instance={_INSTANCE})",
    ),
    "ZonotopeDescriptor": (
        lambda: ZonotopeDescriptor(_basis(), 10, ((9,), (-8,), (9,)), (5,)),
        f"ZonotopeDescriptor(basis={_BASIS}, period=10, generators=((9,), (-8,), (9,)),"
        " translation=(5,))",
    ),
    "SpanningTreeStructure": (_structure, _STRUCTURE),
    "Tile": (
        lambda: Tile(_structure(), ((9,),), (6,), (1,)),
        f"Tile(structure={_STRUCTURE}, generators=((9,),), translation=(6,), lattice_point=(1,))",
    ),
    "TilingReport": (
        lambda: TilingReport(
            3, True, Fraction(13, 5), Fraction(13, 5), True, True, True, True, True, ((0, 1),)
        ),
        "TilingReport(tile_count=3, nondegenerate=True, tile_volume_sum=Fraction(13, 5),"
        " zonotope_volume=Fraction(13, 5), volume_match=True, tiles_inside=True,"
        " all_points_covered=True, at_most_one_point=True, lattice_points_recorded=True,"
        " incidences=((0, 1),))",
    ),
    "DualityEntry": (_entry, _ENTRY),
    "DualityReport": (lambda: DualityReport((_entry(),)), f"DualityReport(entries=({_ENTRY},))"),
    "WidthBoundReport": (
        lambda: WidthBoundReport(
            3, 1, 3, 8, Fraction(13, 5), (Fraction(13, 5),), (3,), Fraction(12, 5),
            Fraction(13, 5), Fraction(39, 10), Fraction(3), True, False, True, False, (),
        ),
        "WidthBoundReport(width=3, mu=1, num_spanning_trees=3, epsilon=8, volume=Fraction(13, 5),"
        " cycle_slacks=(Fraction(13, 5),), cycle_lengths=(3,), lower_bound=Fraction(12, 5),"
        " slack_product=Fraction(13, 5), refined_upper=Fraction(39, 10),"
        " coarse_upper=Fraction(3, 1), chain_holds=True, strict_upper_vacuous=False,"
        " trees_within_length_product=True, infeasible=False, infeasible_cycles=())",
    ),
}
# Records holding a list or a dict, which were unhashable as dataclasses
# and stay so.
UNHASHABLE = {"ValidationReport", "ContractionResult", "NeighbourhoodGraph"}


@pytest.mark.parametrize("name", RECORDS)
def test_the_repr_is_the_dataclass_repr(name):
    factory, text = RECORDS[name]
    assert repr(factory()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_go_by_field_values(name):
    factory = RECORDS[name][0]
    a, b = factory(), factory()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, f) for f in a._fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1


def test_records_with_other_field_values_differ():
    assert _solution() != _solution()._replace(objective=15)
    assert _graph() != Digraph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "b")])
    assert CycleBasis([[1, -1]]) != CycleBasis([[1, 1]])
    assert _basis() != CycleBasis(_basis().gamma)


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_or_deleting_a_field_raises(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_pickle_and_deepcopy(name):
    record = RECORDS[name][0]()
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_cached_properties_live_on_graphs_and_bases():
    g, basis = _graph(), _basis()
    assert g.vindex is g.vindex and g.vindex == {"a": 0, "b": 1, "c": 2}
    assert g.arc_index_pairs == ((0, 1), (0, 2), (1, 2)) and g.is_connected()
    assert basis.row_cotree_arcs is basis.row_cotree_arcs and basis.row_cotree_arcs == (2,)
    # The rows are the record's field, not a property computed from it.
    assert CycleBasis._fields == ("gamma", "tree") and "gamma" not in vars(CycleBasis)


def test_the_validating_constructors_normalize_their_fields():
    g = _graph()
    assert g.vertices == ("a", "b", "c") and g.arcs == (("a", "b"), ("a", "c"), ("b", "c"))
    basis = CycleBasis([[1, -1.0, True]], tree=[1, 0])
    assert basis.gamma == ((1, -1, 1),) and basis.tree == (0, 1)
    assert {type(v) for v in basis.gamma[0]} == {int} and basis == _basis()
    assert CycleBasis([]).tree is None
    inst = PespInstance(g, 10.0, [3.0, 2, 4], [12, 10, 13], [1, 1, True])
    assert inst.lower == (3, 2, 4) and type(inst.lower[0]) is int
    assert inst == _instance() and type(inst.period) is int and type(inst.weight[2]) is int
    structure = SpanningTreeStructure([2, 0, 1], [2], {0, 1})
    assert structure.tree == (0, 1, 2)
    assert structure.at_lower == frozenset({2}) and type(structure.at_upper) is frozenset


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Digraph(["a", "a"], []), "duplicate vertex ids"),
        (lambda: Digraph(["a"], [("a", "b")]), r"arc 0 = \(a, b\) references an undeclared"),
        (lambda: Digraph(["a", "b"], [("a", "b"), ("b", "b")]), "arc 1 is a self-loop at b"),
        (
            lambda: PespInstance(_graph(), 10, [3, 2], [12, 10, 13], [1, 1, 1]),
            "bound/weight vectors must match the arc count",
        ),
        (lambda: SpanningTreeStructure([0, 1], {0, 1}, {1}), "must partition the tree"),
        (lambda: SpanningTreeStructure([0, 1], {0}, set()), "must partition the tree"),
        # A period of 10.5 once passed validate and broke solve_exact with
        # a bare TypeError; a lower bound of 3.5 once became 3.
        (lambda: PespInstance(_graph(), 10.5, [3, 2, 4], [7, 6, 9], [1, 1, 1]), r"^10\.5 is not an integer$"),
        (lambda: PespInstance(_graph(), 10, [3.5, 2, 4], [7, 6, 9], [1, 1, 1]), r"^3\.5 is not an integer$"),
        (lambda: CycleBasis([[0.5, 1]]), r"^0\.5 is not an integer$"),
        # A ragged matrix once passed: the triangle's volume came out 153/100.
        (lambda: CycleBasis([[1, -1, 1], [1, 0]]), "^the rows of a cycle matrix differ in length$"),
    ],
)
def test_the_validating_constructors_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_validation_reports_do_not_share_lists():
    a, b = ValidationReport(), ValidationReport()
    a.messages.append("period 0 is not positive")
    a.arc_violations.append((0, "negative weight -1"))
    assert b.messages == [] and b.arc_violations == []
    assert a.messages is not b.messages and a.arc_violations is not b.arc_violations
    assert not a.ok and b.ok
