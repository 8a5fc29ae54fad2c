import json
import pathlib
import random

import pytest

import peritrope.polytropes
import peritrope.zonotopes
from hypothesis import given, settings
from hypothesis import strategies as st

from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    DisconnectedGraph,
    EmptyPolytrope,
    Infeasible,
    NotATension,
    PespInstance,
    anchor_timetable,
    default_basis,
    duality_check,
    enumerate_polytropes,
    fine_tiling,
    kappa,
    lattice_points,
    neighbors,
    normalize_timetable,
    offset_for,
    offset_from_cycle_offset,
    parse_instance,
    polytrope_build,
    polytrope_nonempty,
    tension_to_timetable,
    timetable_to_tension,
    tropical_vertices,
    width,
)
from peritrope.fixedlp import minimize_over_polytrope
from peritrope.polytropes import _face_classes, _potentials, tension_system_feasible
from helpers import (
    box_points,
    count_bellman_ford,
    dense_apply,
    equality_classes,
    in_polytrope,
    random_bases,
    random_connected_digraph,
    random_corpus,
    random_instance,
    shortest_path_matrix,
    square_basis,
    square_instance,
    triangle_instance,
    varied_instance,
)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def test_kappa_weights_match_the_doubled_graph():
    inst, _ = _triangle()
    arcs = dict(((i, j), w) for i, j, w in kappa(inst, (0, 0, 1)))
    assert arcs[(0, 1)] == 12
    assert arcs[(1, 2)] == 3
    assert arcs[(0, 2)] == 10
    assert arcs[(1, 0)] == -3
    assert arcs[(2, 1)] == 6
    assert arcs[(2, 0)] == -2


def test_kappa_at_zero_offset():
    inst, _ = _triangle()
    arcs = dict(((i, j), w) for i, j, w in kappa(inst, (0, 0, 0)))
    assert arcs[(1, 2)] == 13
    assert arcs[(2, 1)] == -4


def test_nonempty_offsets():
    inst, _ = _triangle()
    assert polytrope_nonempty(inst, (0, 0, 1))
    assert not polytrope_nonempty(inst, (0, 0, 3))


def test_build_keys_and_emptiness():
    inst, basis = _triangle()
    poly = polytrope_build(inst, basis, (0, 0, 1))
    assert poly.nonempty
    assert poly.cycle_offset == (1,)
    empty = polytrope_build(inst, basis, (0, 0, 3))
    assert not empty.nonempty
    assert empty.dimension == -1
    assert empty.dist is None


def test_equal_offset_class_gives_equal_distances():
    # offsets differing by a potential shift describe the same region
    inst, basis = _triangle()
    a = polytrope_build(inst, basis, (0, 0, 1))
    b = polytrope_build(inst, basis, (1, 1, 1))
    assert a.cycle_offset == b.cycle_offset == (1,)
    assert a.offset == b.offset == (0, 0, 1)
    assert a.dist == b.dist
    # (1,1,2) sits in the class of z = 2, not z = 1
    c = polytrope_build(inst, basis, (1, 1, 2))
    assert c.cycle_offset == (2,)
    assert c.dist == polytrope_build(inst, basis, (0, 0, 2)).dist


def test_distance_matrix_invariants():
    inst, basis = _triangle()
    for p in ((0, 0, 0), (0, 0, 1), (0, 0, 2)):
        poly = polytrope_build(inst, basis, p)
        d = poly.dist
        n = len(d)
        assert all(d[i][i] == 0 for i in range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i][k] <= d[i][j] + d[j][k]


def test_distances_from_a_source_are_its_row_of_the_distance_matrix():
    """The kernel run from a source gives row ``source`` of the
    Floyd-Warshall matrix on every nonempty class and None on every empty
    one, from each source."""
    rows = empties = 0
    for seed in range(150):
        rng = random.Random(5000 + seed)
        inst = random_instance(rng, max_vertices=6, max_arcs=9)
        n, m = inst.graph.n, inst.graph.m
        for _ in range(4):
            edges = kappa(inst, [rng.randint(-1, 1) for _ in range(m)])
            dist = shortest_path_matrix(n, edges)
            for source in range(n):
                row = _potentials(n, edges, source)
                assert row == (None if dist is None else list(dist[source]))
                rows += 1
            empties += dist is None
    assert rows >= 1000 and empties >= 100, (rows, empties)


def test_the_kernel_matches_floyd_warshall_on_random_kappa_sets():
    """On kappa(p) of random instances with fixed arcs and signed
    offsets, with and without a negative cycle, the kernel is None exactly
    when Floyd-Warshall finds a negative cycle; otherwise its run from
    each source is that source's row, and its run from the virtual source
    is the componentwise minimum of the rows.  One-vertex edge sets too."""
    feasible = negative = 0
    for seed in range(300):
        rng = random.Random(5300 + seed)
        inst = varied_instance(rng, max_vertices=7, max_arcs=11)
        n, m = inst.graph.n, inst.graph.m
        edges = kappa(inst, [rng.choice((-1, 0, 0, 1)) for _ in range(m)])
        dist = shortest_path_matrix(n, edges)
        runs = [_potentials(n, edges, source) for source in (None, *range(n))]
        if dist is None:
            assert runs == [None] * (n + 1)
            negative += 1
            continue
        assert runs[1:] == [list(row) for row in dist]
        assert runs[0] == [min(column) for column in zip(*dist)]
        feasible += 1
    assert feasible >= 40 and negative >= 100, (feasible, negative)
    for edges in ([], [(0, 0, 3)], [(0, 0, 0)], [(0, 0, -1)]):
        expected = None if shortest_path_matrix(1, edges) is None else [0]
        assert _potentials(1, edges) == _potentials(1, edges, 0) == expected


def test_tropical_vertices_of_the_three_classes():
    inst, basis = _triangle()
    expected = {0: (0, 3, 10), 1: (0, 3, 6), 2: (0, 9, 2)}
    for z, want in expected.items():
        poly = polytrope_build(inst, basis, (0, 0, z))
        assert tropical_vertices(poly)[1] == want


def test_tropical_vertices_satisfy_membership():
    inst, basis = _triangle()
    for p in ((0, 0, 0), (0, 0, 1), (0, 0, 2)):
        poly = polytrope_build(inst, basis, p)
        for pi in tropical_vertices(poly):
            assert in_polytrope(poly, pi)


def test_tropical_vertices_on_empty_class():
    inst, basis = _triangle()
    with pytest.raises(EmptyPolytrope):
        tropical_vertices(polytrope_build(inst, basis, (0, 0, 3)))


def test_dimensions():
    inst, basis = _triangle()
    assert [polytrope_build(inst, basis, (0, 0, z)).dimension for z in (0, 1, 2)] == [2, 2, 2]
    assert polytrope_build(inst, basis, (0, 0, 3)).dimension == -1


def test_zero_weight_two_cycle_drops_the_dimension():
    # a fixed arc makes the two endpoints rigid, leaving only the lineality
    g = Digraph(("a", "b"), (("a", "b"),))
    inst = PespInstance(g, 10, (5,), (5,), (1,))
    poly = polytrope_build(inst, default_basis(g), (0,))
    assert poly.nonempty
    assert poly.dimension == 0


def test_membership():
    inst, basis = _triangle()
    hexagon = polytrope_build(inst, basis, (0, 0, 1))
    assert in_polytrope(hexagon, (0, 8, 2))
    assert in_polytrope(hexagon, tuple(v + 17 for v in (0, 8, 2)))
    zero = polytrope_build(inst, basis, (0, 0, 0))
    assert not in_polytrope(zero, (0, 8, 2))


def test_offsets_must_be_integral():
    """``polytrope_build`` and ``steps`` used to truncate: (0.7, 0, 0)
    built the class of (0, 0, 0), and the steps from (0.9,) were those
    from (0,)."""
    inst, basis = _triangle()
    steps = peritrope.polytropes.steps
    with pytest.raises(ValueError, match=r"^0\.7 is not an integer$"):
        polytrope_build(inst, basis, (0.7, 0, 0))
    with pytest.raises(ValueError, match=r"^0\.9 is not an integer$"):
        steps(basis, (0.9,))
    assert polytrope_build(inst, basis, (-1.0, 0, True)) == polytrope_build(inst, basis, (-1, 0, 1))
    assert steps(basis, (True,)) == steps(basis, (1,)) == {(0,), (2,)}


def test_timetable_to_tension_examples():
    inst, _ = _triangle()
    assert timetable_to_tension(inst, (0, 8, 2)) == ((8, 2, 4), (0, 0, 1))
    # every arc admits exactly one residue representative inside its bounds
    assert timetable_to_tension(inst, (0, 1, 0)) == ((11, 10, 9), (1, 1, 1))


@pytest.mark.parametrize("pi", [(0, 8), (0, 8, 2, 5)])
def test_timetable_to_tension_refuses_a_timetable_of_the_wrong_length(pi):
    inst, _ = _triangle()
    message = f"^timetable has {len(pi)} entries, the instance has 3 vertices$"
    with pytest.raises(ValueError, match=message):
        timetable_to_tension(inst, pi)


def test_timetable_to_tension_reports_offending_arcs():
    g = Digraph(("a", "b"), (("a", "b"),))
    inst = PespInstance(g, 10, (3,), (4,), (1,))
    with pytest.raises(Infeasible) as err:
        timetable_to_tension(inst, (0, 0))
    assert err.value.arcs == (0,)


def test_tension_to_timetable():
    inst, _ = _triangle()
    assert tension_to_timetable(inst, (8, 2, 4), root="v0") == (0, 8, 2)
    with pytest.raises(NotATension):
        tension_to_timetable(inst, (13, 2, 4))
    with pytest.raises(NotATension):
        tension_to_timetable(inst, (8, 2, 5))


@pytest.mark.parametrize("x", [(8, 2), (8, 2, 4, 6)])
def test_tension_to_timetable_refuses_a_tension_of_the_wrong_length(x):
    inst, _ = _triangle()
    message = f"^tension has {len(x)} entries, the instance has 3 arcs$"
    with pytest.raises(ValueError, match=message):
        tension_to_timetable(inst, x)


@pytest.mark.parametrize(
    "vertices, arcs",
    [
        (("a", "b", "c"), (("a", "b"),)),  # c is isolated
        (("a", "b", "c", "d"), (("a", "b"), ("c", "d"), ("d", "c"))),  # c, d have arcs
    ],
)
def test_tension_to_timetable_rejects_a_disconnected_graph(vertices, arcs):
    g = Digraph(vertices, arcs)
    inst = PespInstance(g, 10, (2,) * g.m, (8,) * g.m, (1,) * g.m)
    with pytest.raises(DisconnectedGraph):
        tension_to_timetable(inst, (5,) * g.m)


def test_tension_roundtrip_on_random_instances():
    for seed in range(25):
        rng = random.Random(seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=6, max_period=9)
        T = inst.period
        pi = tuple(rng.randrange(T) for _ in range(inst.graph.n))
        try:
            x, _ = timetable_to_tension(inst, pi)
        except Infeasible:
            continue
        back = tension_to_timetable(inst, x, root=inst.graph.vertices[0])
        x2, _ = timetable_to_tension(inst, back)
        assert x2 == x


@settings(max_examples=60)
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_translation_symmetry(q):
    # shifting any vertex by whole periods never changes the tension
    inst, _ = _triangle()
    pi = (0, 8, 2)
    shifted = tuple(v + 10 * qv for v, qv in zip(pi, q))
    assert timetable_to_tension(inst, shifted)[0] == timetable_to_tension(inst, pi)[0]


def test_neighbors():
    inst, basis = _triangle()
    assert neighbors(inst, basis, (1,)) == {(0,), (2,)}
    assert neighbors(inst, basis, (0,)) == {(1,)}


def test_neighbors_tests_each_distinct_offset_once(monkeypatch):
    # Arcs 0 and 1 leave v1 in opposite directions around both cycles, so
    # Gamma holds the columns (-1, 1) and (1, -1): from z the 8 signed
    # steps reach 6 distinct offsets, and each is tested once.
    g = Digraph(
        ("v0", "v1", "v2", "v3"),
        (("v1", "v0"), ("v1", "v2"), ("v0", "v2"), ("v2", "v3"), ("v3", "v0")),
    )
    inst = PespInstance(g, 10, (3, 2, 4, 1, 2), (12, 10, 13, 6, 9), (1,) * 5)
    basis = default_basis(g)
    assert basis.moves == {(1, 0), (0, 1), (-1, 1), (1, -1)}
    tested = []

    def nonempty(inst, p):
        tested.append(basis.apply(p))
        return polytrope_nonempty(inst, p)

    monkeypatch.setattr(peritrope.polytropes, "polytrope_nonempty", nonempty)
    lattice = {(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    for z in lattice:
        tested.clear()
        found = neighbors(inst, basis, z)
        steps = {(z[0] + a, z[1] + b) for a, b in basis.moves} | {
            (z[0] - a, z[1] - b) for a, b in basis.moves
        }
        assert len(steps) == 6
        assert sorted(tested) == sorted(steps)
        assert found == steps & lattice


def test_neighbors_tree_instance():
    inst = parse_instance("PERIOD 10\nARC a b 2 6 1\n")
    basis = default_basis(inst.graph)
    assert neighbors(inst, basis, ()) == set()


def test_enumerate_polytropes_runs_one_run_per_walked_point(monkeypatch):
    """``lattice_points`` runs one virtual-source Bellman-Ford per box
    point its walk reaches, and ``enumerate_polytropes`` runs that walk and
    no run beyond it, and spends the same units: each dimension is read
    off the walk's own potentials, and no Kleene-star row runs until
    ``dist`` is read.  The walk reaches the triangle's 3 box points, the
    square's 12, 156 of l5's 17,496 and 201 of s8800's 12,288.  The
    polytropes are those of ``polytrope_build`` at every nonempty box
    point (triangle, square) or of the goldens, written by building the
    polytrope of every box point (l5, s8800)."""
    cases = [_triangle(), (square_instance(), square_basis())]
    expected = [_as_json(_per_point_polytropes(inst, basis)) for inst, basis in cases]
    for name in ("l5", "s8800"):
        inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
        cases.append((inst, default_basis(inst.graph)))
        expected.append(json.loads((GOLDEN / f"{name}.polytropes.json").read_text()))
    runs = count_bellman_ford(monkeypatch)
    walked = []
    for (inst, basis), want in zip(cases, expected):
        n = inst.graph.n
        spent = []
        for walk in (lattice_points, enumerate_polytropes):
            budget = Budget()
            found = walk(inst, basis, budget)
            spent.append((tuple(runs), budget.spent))
            runs.clear()
        assert spent[0] == spent[1]
        walked.append(len(spent[0][0]))
        assert spent[0][0] == ((n, None),) * walked[-1]
        assert _as_json(found) == want
    assert walked == [3, 12, 156, 201]
    assert width(*cases[2]) == 17_496 and width(*cases[3]) == 12_288


def _as_json(polys):
    """The polytropes as ``peritrope polytropes --json`` writes them."""
    return [{"cycle_offset": list(z), "offset": list(p), "dimension": dim} for p, z, dim, _ in polys]


def _per_point_polytropes(inst, basis, cap=10_000):
    """The reference for ``enumerate_polytropes``: ``polytrope_build`` at
    every box point, the empty ones dropped."""
    points = box_points(inst, basis, cap)
    polys = (polytrope_build(inst, basis, offset_for(inst, basis, z)) for z in points)
    return tuple(poly for poly in polys if poly.nonempty)


def test_a_disconnected_instance_builds_no_polytrope(monkeypatch):
    """A hand-built ``PespInstance`` may be disconnected; building its
    polytropes raises DisconnectedGraph before any Bellman-Ford."""
    g = Digraph(tuple("abcd"), (("a", "b"), ("b", "a"), ("c", "d")))
    inst = PespInstance(g, 10, (2,) * 3, (6,) * 3, (1,) * 3)
    basis = CycleBasis([(1, 1, 0)])
    runs = count_bellman_ford(monkeypatch)
    for p in ((0, 0, 0), (0, 1, 0), (1, 1, 0)):
        with pytest.raises(DisconnectedGraph):
            polytrope_build(inst, basis, p)
    with pytest.raises(DisconnectedGraph):
        enumerate_polytropes(inst, basis)
    assert runs == []


def test_each_walked_point_gets_one_offset_preimage(monkeypatch):
    """``lattice_points`` takes one ``offset_from_cycle_offset`` per box
    point its walk reaches, and no other under an integral basis;
    ``enumerate_polytropes`` takes those and no more, each polytrope
    keeping its point's, and ``duality_check`` one per distinct lattice
    point of its tiles (11 for the square's 12 checked tiles), kept beside
    that point's root row.
    The polytropes are the ones ``polytrope_build`` gives at each
    nonempty box point: on the square, and on s8800, where the walk
    reaches 201 of the 12,288 box points."""
    s8800 = parse_instance((GOLDEN / "s8800.pesp").read_text())
    cases = [(square_instance(), square_basis()), (s8800, default_basis(s8800.graph))]
    expected = [_per_point_polytropes(inst, basis, cap=20_000) for inst, basis in cases]
    tiles = fine_tiling(*cases[0])
    honest = peritrope.polytropes.offset_from_cycle_offset
    calls = []

    def counting(basis, z):
        calls.append(z)
        return honest(basis, z)

    monkeypatch.setattr(peritrope.polytropes, "offset_from_cycle_offset", counting)
    runs = count_bellman_ford(monkeypatch)
    walked = []
    for (inst, basis), want in zip(cases, expected):
        assert enumerate_polytropes(inst, basis) == want
        walked.append(runs.count((inst.graph.n, None)))
        assert len(calls) == walked[-1]
        calls.clear()
        runs.clear()
    assert walked == [12, 201] and width(*cases[1]) == 12_288
    report = duality_check(*cases[0], tiles=tiles)
    assert report.checked == 12 and report.ok
    assert len(calls) == len(set(calls)) == 11
    assert set(calls) == {t.lattice_point for t in tiles} - {None}


def test_the_walks_potentials_give_the_classes_of_kleene_row_0(monkeypatch):
    """A polytrope's dimension is read off the potentials the lattice
    walk's Bellman-Ford found at its point.  Any feasible potentials give
    the same equality classes, since a zero cycle is tight at every point:
    on ``random_corpus(150)`` and the l5 and s8800 goldens, ``_face_classes``
    of the walk's potentials and of ``dist[0]``, row 0 of the Kleene star,
    agree on every class."""
    honest = peritrope.zonotopes._polytrope
    seen = []

    def recording(inst, z, p, edges, phi):
        seen.append((honest(inst, z, p, edges, phi), edges, phi))
        return seen[-1][0]

    monkeypatch.setattr(peritrope.zonotopes, "_polytrope", recording)
    cases = [(inst, basis) for inst, basis, _, _ in random_corpus(150)]
    for name in ("l5", "s8800"):
        inst = parse_instance((GOLDEN / f"{name}.pesp").read_text())
        cases.append((inst, default_basis(inst.graph)))
    checked = 0
    for inst, basis in cases:
        assert enumerate_polytropes(inst, basis) == tuple(poly for poly, _, _ in seen)
        for poly, edges, phi in seen:
            rep = _face_classes(poly.n, edges, phi)[0]
            assert rep == _face_classes(poly.n, edges, list(poly.dist[0]))[0], poly
            assert poly.dimension == len(set(rep)) - 1
        checked += len(seen)
        seen.clear()
    assert checked == 184 + 112 + 183, checked


def test_dist_runs_its_n_rows_once_on_first_read(monkeypatch):
    """``dist`` runs the n Kleene-star rows, from vertex 0 on, when first
    read, and a second read takes the kept matrix; an empty class reads
    None and runs nothing."""
    runs = count_bellman_ford(monkeypatch)
    for inst, basis in (_triangle(), (square_instance(), square_basis())):
        n = inst.graph.n
        polys = enumerate_polytropes(inst, basis)
        runs.clear()
        for poly in polys:
            first = poly.dist
            assert poly.dist is first and len(first) == n
            assert runs == [(n, i) for i in range(n)]
            runs.clear()
    empty = polytrope_build(*_triangle(), (0, 0, 3))
    runs.clear()
    assert empty.dist is None and empty.dist is None and runs == []


def test_tropical_vertices_of_an_enumerated_polytrope_match_polytrope_build():
    """An enumerated polytrope equals ``polytrope_build``'s at its offset,
    and so do its tropical vertices, from the default root and from the
    last vertex, on the triangle, the square and mu6."""
    mu6 = parse_instance((GOLDEN / "mu6.pesp").read_text())
    cases = [_triangle(), (square_instance(), square_basis()), (mu6, default_basis(mu6.graph))]
    for inst, basis in cases:
        last = inst.graph.vertices[-1]
        for poly in enumerate_polytropes(inst, basis):
            built = polytrope_build(inst, basis, poly.offset)
            assert poly == built
            for root in (None, last):
                assert tropical_vertices(poly, root) == tropical_vertices(built, root)


def test_enumerate_polytropes_counts():
    inst, basis = _triangle()
    polys = enumerate_polytropes(inst, basis)
    assert [p.cycle_offset for p in polys] == [(0,), (1,), (2,)]
    sq = square_instance()
    assert len(enumerate_polytropes(sq, square_basis())) == 11
    line = parse_instance("PERIOD 10\nARC a b 2 6 1\n")
    assert len(enumerate_polytropes(line, default_basis(line.graph))) == 1


def test_sampled_timetables_never_sit_in_two_classes():
    inst, basis = _triangle()
    polys = enumerate_polytropes(inst, basis)
    rng = random.Random(11)
    for _ in range(200):
        pi = tuple(rng.randrange(10) for _ in range(3))
        hits = [p.cycle_offset for p in polys if in_polytrope(p, pi)]
        assert len(hits) <= 1


def test_offset_from_cycle_offset_fundamental():
    inst, basis = _triangle()
    assert offset_from_cycle_offset(basis, (1,)) == (0, 0, 1)
    assert offset_from_cycle_offset(basis, (0,)) == (0, 0, 0)


def test_offset_from_cycle_offset_refuses_an_empty_basis():
    with pytest.raises(ValueError, match="^cannot size the offset vector of an empty basis$"):
        offset_from_cycle_offset(CycleBasis([]), ())


@pytest.mark.parametrize("z", [(1, 7, 9), ()], ids=("long", "empty"))
def test_offset_from_cycle_offset_rejects_a_z_of_the_wrong_length(z):
    _, basis = _triangle()
    message = f"^cycle offset has {len(z)} entries, the basis has 1 rows$"
    with pytest.raises(ValueError, match=message):
        offset_from_cycle_offset(basis, z)


# A long offset used to be read up to the arc count, so that
# minimize_over_polytrope gave (0, 0, 1, 5) the objective 14 of (0, 0, 1);
# a short one raised an untyped IndexError.
WRONG_LENGTH = pytest.mark.parametrize("p", [(0, 0, 1, 5), (0, 0)], ids=("long", "short"))


@WRONG_LENGTH
def test_minimize_over_polytrope_rejects_an_offset_of_the_wrong_length(p):
    inst, _ = _triangle()
    assert minimize_over_polytrope(inst, (0, 0, 1)).objective == 14
    with pytest.raises(ValueError, match=f"^offset has {len(p)} entries, the instance has 3 arcs$"):
        minimize_over_polytrope(inst, p)


@WRONG_LENGTH
def test_polytrope_nonempty_rejects_an_offset_of_the_wrong_length(p):
    inst, _ = _triangle()
    assert polytrope_nonempty(inst, (0, 0, 1))
    with pytest.raises(ValueError, match=f"^offset has {len(p)} entries, the instance has 3 arcs$"):
        polytrope_nonempty(inst, p)


@WRONG_LENGTH
def test_tension_system_feasible_rejects_a_base_of_the_wrong_length(p):
    inst, _ = _triangle()
    assert tension_system_feasible(inst, (0, 0, 10))
    with pytest.raises(ValueError, match=f"^base has {len(p)} entries, the instance has 3 arcs$"):
        tension_system_feasible(inst, p)


def test_polytrope_build_rejects_an_offset_of_the_wrong_length():
    """On a tree instance (mu = 0) a long offset used to build a polytrope,
    while the same call under mu >= 1 failed in ``basis.apply``; both now
    fail on the arc count, as do the triangle's long and short offsets."""
    tree = parse_instance("PERIOD 10\nARC a b 3 5 1\n")
    triangle, basis = _triangle()
    cases = [(tree, default_basis(tree.graph), (5, 5, 5, 5))]
    cases += [(triangle, basis, p) for p in ((5, 5, 5, 5), (0, 0, 1, 5), (0, 0))]
    for inst, basis, p in cases:
        m = inst.graph.m
        with pytest.raises(ValueError, match=f"^offset has {len(p)} entries, the instance has {m} arcs$"):
            polytrope_build(inst, basis, p)
    assert polytrope_build(tree, default_basis(tree.graph), (5,)).nonempty


def test_the_class_kernel_matches_the_distance_matrix_classes():
    """On every nonempty polytrope of random instances with fixed arcs,
    ``_face_classes`` with no flow, from the virtual-source potentials and
    from the Floyd-Warshall row 0 alike, gives the classes of the
    distance-matrix oracle and each vertex's offset dist[rep][v] from its
    class's smallest vertex, and the polytrope's dimension is one less
    than the class count.  Every dimension from 0 to n - 1 occurs for
    each n from 2 to 6."""
    seen = set()
    checked = with_fixed = 0
    for seed in range(1000):
        inst = varied_instance(random.Random(6100 + seed))
        n = inst.graph.n
        fixed = any(l == u for l, u in zip(inst.lower, inst.upper))
        for poly in enumerate_polytropes(inst, default_basis(inst.graph)):
            edges = kappa(inst, poly.offset)
            dist = shortest_path_matrix(n, edges)
            assert poly.dist == dist
            rep = equality_classes(dist)
            assert poly.dimension == len(set(rep)) - 1
            for phi in (_potentials(n, edges), list(dist[0])):
                assert _face_classes(n, edges, phi) == (
                    list(rep),
                    [dist[r][v] for v, r in enumerate(rep)],
                ), (inst, poly.offset)
            seen.add((n, poly.dimension))
            checked += 1
            with_fixed += fixed
    assert checked >= 1000 and with_fixed >= 400, (checked, with_fixed)
    assert seen >= {(n, d) for n in range(2, 7) for d in range(n)}, seen


def _chain(rng, n, fixed):
    """A path on n vertices, numbered in shuffled order and each arc run
    either way, whose arcs are fixed (zero span) with probability
    ``fixed``: every class is a run of vertices joined by fixed arcs."""
    labels = list(range(n))
    rng.shuffle(labels)
    arcs, lower, upper = [], [], []
    for a, b in zip(labels, labels[1:]):
        arcs.append((a, b) if rng.random() < 0.5 else (b, a))
        low = rng.randint(0, 9)
        lower.append(low)
        upper.append(low if rng.random() < fixed else low + rng.randint(1, 9))
    g = Digraph(tuple(range(n)), tuple(arcs))
    return PespInstance(g, 10, tuple(lower), tuple(upper), (1,) * (n - 1))


def test_the_class_kernel_matches_the_distance_matrix_on_long_chains():
    """On paths of 60 to 90 vertices whose classes are mostly singletons,
    and on one of 3000 vertices, past the recursion limit, with no fixed
    arc, ``_face_classes`` gives the classes of the distance-matrix
    oracle and each vertex's offset from its class's smallest vertex."""
    rng = random.Random(6400)
    for fixed in (0.0, 0.1, 0.1, 0.3, 1.0):
        inst = _chain(rng, rng.randint(60, 90), fixed)
        n, edges = inst.graph.n, kappa(inst, (0,) * inst.graph.m)
        dist = shortest_path_matrix(n, edges)
        rep = equality_classes(dist)
        assert _face_classes(n, edges, _potentials(n, edges)) == (
            list(rep),
            [dist[r][v] for v, r in enumerate(rep)],
        )
        assert (len(set(rep)) == n) is (fixed == 0) and (len(set(rep)) == 1) is (fixed == 1)
    inst = _chain(rng, 3000, 0.0)
    n, edges = inst.graph.n, kappa(inst, (0,) * inst.graph.m)
    assert _face_classes(n, edges, _potentials(n, edges)) == (list(range(n)), [0] * n)


@settings(max_examples=50)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_offset_preimage_property(z):
    basis = square_basis()
    p = offset_from_cycle_offset(basis, z)
    assert tuple(sum(r[a] * p[a] for a in range(6)) for r in basis.gamma) == z


def test_offset_preimage_without_tree_annotation():
    # drop the tree marker; the integer solve must still hit the same class
    fundamental = square_basis()
    sig0 = fundamental.gamma[0]
    sig1 = tuple(a + b for a, b in zip(fundamental.gamma[0], fundamental.gamma[1]))
    anon = CycleBasis((sig0, sig1, fundamental.gamma[2]))
    z = (2, -1, 3)
    p = offset_from_cycle_offset(anon, z)
    assert tuple(sum(r[a] * p[a] for a in range(6)) for r in anon.gamma) == z


def test_offset_from_cycle_offset_under_every_basis_kind():
    """Gamma p = z for image points z = Gamma q under the four
    ``random_bases``, with p 0 off the co-tree of the basis's frame; on a
    fundamental basis p is z on ``row_cotree_arcs``.  The rational basis
    has z_0 = z_1 mod 2 on its image, so (1, 0, ...) has no preimage, and
    dependent rows have none at all."""
    checked = 0
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=10)
        if g.m - g.n + 1 < 2:
            continue
        bases = random_bases(rng, g)
        for basis in bases:
            cotree = basis.cotree_frame[0]
            for _ in range(5):
                z = dense_apply(basis, [rng.randint(-3, 3) for _ in range(g.m)])
                p = offset_from_cycle_offset(basis, z)
                assert dense_apply(basis, p) == z
                assert all(p[a] == 0 for a in range(g.m) if a not in cotree)
                if basis.tree is not None:
                    assert tuple(p[a] for a in basis.row_cotree_arcs) == z
                checked += 1
        rational = bases[3]
        off_image = (1,) + (0,) * (rational.mu - 1)
        with pytest.raises(ValueError, match="^no integer offset maps to this cycle offset$"):
            offset_from_cycle_offset(rational, off_image)
        c0, _, *rest = rational.gamma
        repeated = CycleBasis((c0, c0, *rest))
        with pytest.raises(ValueError, match="^cycle matrix does not have full row rank$"):
            offset_from_cycle_offset(repeated, (0,) * repeated.mu)
    assert checked >= 400, checked


def test_normalize_and_anchor():
    assert normalize_timetable((-3, 0, 3), 0, 10) == (0, 3, 6)
    assert normalize_timetable((-9, 0, -7), 0, 10) == (0, 9, 2)
    assert normalize_timetable((0, 3, 6), 0, 10) == (0, 3, 6)
    assert anchor_timetable((-3, 0, 7), 0) == (0, 3, 10)
