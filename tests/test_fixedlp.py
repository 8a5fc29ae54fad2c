import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peritrope.fixedlp
import peritrope.polytropes
import peritrope.search
from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    DisconnectedGraph,
    EnumerationCapExceeded,
    Infeasible,
    InvariantViolation,
    OffsetMemo,
    PespInstance,
    brute_force_fixed_offset,
    cycle_relaxation_bound,
    default_basis,
    enumerate_polytropes,
    minimize_over_polytrope,
    offset_for,
    polytrope_nonempty,
    timetable_to_tension,
)
from peritrope.fixedlp import certified_optimum, optimal_vertex
from peritrope.polytropes import kappa
from peritrope.zonotopes import _box_integer_ranges, lattice_points, odijk_box, width
from helpers import (
    box_points,
    check_certificate,
    check_empty_certificate,
    count_bellman_ford,
    cycle_relaxation_bound_by_fractions,
    enumerate_fixed_offset,
    minimize_by_bellman_ford_flow,
    random_bases,
    random_corpus,
    random_instance,
    square_basis,
    square_instance,
    tight_structure,
    triangle_instance,
    varied_instance,
)


def _random_cases():
    """Seeded (instance, offset, objective) cases for the differential
    tests.  Offsets are class representatives, the same classes shifted by
    a random potential, and raw random vectors (often empty).  Objectives
    cycle through the instance weights, zero (the optimal face is the
    whole polytrope), one unit on a single arc (faces of dimension >= 1)
    and random signed weights."""
    for seed in range(120):
        rng = random.Random(3000 + seed)
        inst = random_instance(rng, max_vertices=5, max_arcs=7, max_period=10)
        g = inst.graph
        offsets = [poly.offset for poly in enumerate_polytropes(inst, default_basis(g))][:3]
        for p in offsets[:2]:
            shift = [rng.randint(-2, 2) for _ in range(g.n)]
            offsets.append(tuple(pa + shift[j] - shift[i] for pa, (i, j) in zip(p, g.arc_index_pairs)))
        offsets.append(tuple(rng.randint(-1, 2) for _ in range(g.m)))
        for k, p in enumerate(offsets):
            kind = (seed + k) % 4
            if kind == 0:
                objective = None
            elif kind == 1:
                objective = (0,) * g.m
            elif kind == 2:
                objective = tuple(int(a == rng.randrange(g.m)) for a in range(g.m))
            else:
                objective = tuple(rng.randint(-3, 5) for _ in range(g.m))
            yield inst, p, objective


def _certifies(inst, p, res):
    """Does a tight spanning structure of the result pin a spanning tree
    whose bounds rebuild the whole tension?"""
    g = inst.graph
    s = tight_structure(inst, res.tension)
    if s is None or len(s.tree) != g.n - 1:
        return False
    if any(res.tension[a] != inst.lower[a] for a in s.at_lower):
        return False
    if any(res.tension[a] != inst.upper[a] for a in s.at_upper):
        return False
    pinned = {a: inst.lower[a] for a in s.at_lower}
    pinned.update({a: inst.upper[a] for a in s.at_upper})
    pi = [None] * g.n
    pi[0] = 0
    changed = True
    while changed:
        changed = False
        for a in s.tree:
            i, j = g.arc_index_pairs[a]
            if pi[i] is not None and pi[j] is None:
                pi[j] = pi[i] + pinned[a] - inst.period * p[a]
                changed = True
            elif pi[j] is not None and pi[i] is None:
                pi[i] = pi[j] - pinned[a] + inst.period * p[a]
                changed = True
    rebuilt = tuple(
        pi[j] - pi[i] + inst.period * p[a] for a, (i, j) in enumerate(g.arc_index_pairs)
    )
    return rebuilt == res.tension


def test_triangle_optimum_per_offset():
    inst = triangle_instance()
    assert minimize_over_polytrope(inst, (0, 0, 0)).objective == 14
    assert minimize_over_polytrope(inst, (0, 0, 1)).objective == 14
    assert minimize_over_polytrope(inst, (0, 0, 2)).objective == 24


def test_triangle_optimal_tensions():
    inst = triangle_instance()
    assert minimize_over_polytrope(inst, (0, 0, 0)).tension == (3, 7, 4)
    # on the z = 2 slice the second arc is pushed to its lower bound
    assert minimize_over_polytrope(inst, (0, 0, 2)).tension[1] == 2


def test_result_is_internally_consistent():
    inst = triangle_instance()
    for z in (0, 1, 2):
        res = minimize_over_polytrope(inst, (0, 0, z))
        assert res.timetable[0] == 0
        assert all(0 <= v < inst.period for v in res.timetable)
        assert all(
            inst.lower[a] <= res.tension[a] <= inst.upper[a] for a in range(3)
        )
        assert res.objective == sum(w * x for w, x in zip(inst.weight, res.tension))
        x, _ = timetable_to_tension(inst, res.timetable)
        assert x == res.tension


def test_empty_polytrope_raises():
    inst = triangle_instance()
    with pytest.raises(Infeasible):
        minimize_over_polytrope(inst, (0, 0, 3))
    with pytest.raises(Infeasible):
        brute_force_fixed_offset(inst, (0, 0, 3))


def test_brute_force_agrees_on_triangle():
    inst = triangle_instance()
    for z in (0, 1, 2):
        assert (
            brute_force_fixed_offset(inst, (0, 0, z)).objective
            == minimize_over_polytrope(inst, (0, 0, z)).objective
        )


def test_brute_force_accepts_any_offset_of_the_class():
    inst = triangle_instance()
    # (1, 1, 1) differs from (0, 0, 1) by a potential, same torus region
    assert brute_force_fixed_offset(inst, (1, 1, 1)).objective == 14


def test_brute_force_caps():
    inst = triangle_instance()
    with pytest.raises(EnumerationCapExceeded):
        brute_force_fixed_offset(inst, (0, 0, 1), max_period=5)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_fixed_offset(inst, (0, 0, 1), max_vertices=2)


def test_zero_objective_gives_zero_value():
    inst = triangle_instance()
    res = minimize_over_polytrope(inst, (0, 0, 1), objective=(0, 0, 0))
    assert res.objective == 0
    x, _ = timetable_to_tension(inst, res.timetable)
    assert x == res.tension


@pytest.mark.parametrize("objective", [(1,), (1, 2), (1, 2, 3, 4), (1,) * 5])
def test_an_objective_of_the_wrong_length_is_refused(objective):
    # zip would truncate it silently, to a wrong optimum.
    inst = triangle_instance()
    message = f"^objective has {len(objective)} entries, the instance has 3 arcs$"
    for p in ((0, 0, 1), (0, 0, 3)):
        with pytest.raises(ValueError, match=message):
            minimize_over_polytrope(inst, p, objective)


@pytest.mark.parametrize("objective", [(1,), (1, 2, 3, 4)])
def test_the_grid_oracle_refuses_an_objective_of_the_wrong_length(objective):
    inst = triangle_instance()
    message = f"^objective has {len(objective)} entries, the instance has 3 arcs$"
    with pytest.raises(ValueError, match=message):
        brute_force_fixed_offset(inst, (0, 0, 1), objective)


def test_custom_objective_targets_one_arc():
    inst = triangle_instance()
    res = minimize_over_polytrope(inst, (0, 0, 1), objective=(0, 1, 0))
    assert res.tension[1] == 2


def test_tight_structure_certifies_the_vertex():
    inst = triangle_instance()
    for z in (0, 1, 2):
        p = (0, 0, z)
        assert _certifies(inst, p, minimize_over_polytrope(inst, p))
    checked = 0
    for inst, p, objective in _random_cases():
        try:
            res = minimize_over_polytrope(inst, p, objective)
        except Infeasible:
            continue
        assert _certifies(inst, p, res), (inst, p, objective)
        checked += 1
    assert checked >= 250


def _full_square_face():
    """The square under a zero objective at a full-dimensional offset: the
    optimal face is the whole polytrope, with four classes and the 12-tree
    square as its quotient."""
    inst = square_instance()
    polys = enumerate_polytropes(inst, square_basis())
    p = next(poly.offset for poly in polys if poly.dimension == inst.graph.n - 1)
    return inst, p, (0,) * inst.graph.m


def test_the_face_grows_each_structure_once(monkeypatch):
    """One growth on the doubled quotient visits each (quotient tree,
    bound pattern) once: 12 * 2^3 = 96 distinct trees of 12 arcs."""
    inst, p, objective = _full_square_face()
    grow = peritrope.fixedlp.grow_spanning_trees
    graphs, trees = [], []

    def counted(g, visit, *args, **kwargs):
        graphs.append(g)

        def counted_visit(tree, *rest):
            trees.append(tuple(sorted(tree)))
            visit(tree, *rest)

        grow(g, counted_visit, *args, **kwargs)

    monkeypatch.setattr(peritrope.fixedlp, "grow_spanning_trees", counted)
    res = minimize_over_polytrope(inst, p, objective)
    assert [(g.n, g.m) for g in graphs] == [(4, 12)]
    assert len(trees) == len(set(trees)) == 12 * 2**3
    assert res == enumerate_fixed_offset(inst, p, objective)


def test_tree_cap_propagates():
    """The optimal face's structures are charged to the budget before the
    first: 12 quotient trees times 2^(k - 1) bound patterns on k = 4
    classes, so 95 units refuse and 96 pay for the vertex."""
    inst, p, objective = _full_square_face()
    optimum = certified_optimum(inst, p, objective)
    with pytest.raises(EnumerationCapExceeded, match=" ran out in face vertices: 0 spent, 96 "):
        optimal_vertex(inst, optimum, Budget(95))
    budget = Budget(96)
    assert optimal_vertex(inst, optimum, budget).objective == 0 and budget.spent == 96


def test_a_solve_walks_no_tree(monkeypatch):
    """The growth hands each structure its potentials, so no solve runs a
    ``tree_potentials`` walk of its own."""
    walks = []
    monkeypatch.setattr(peritrope.fixedlp, "tree_potentials", lambda *args: walks.append(args))
    solved = 0
    for inst, p, objective in [_full_square_face(), *_random_cases()]:
        try:
            minimize_over_polytrope(inst, p, objective)
            solved += 1
        except Infeasible:
            pass
    assert walks == [] and solved >= 250


def test_matches_the_structure_enumeration_on_random_cases():
    checked = empty = 0
    for inst, p, objective in _random_cases():
        try:
            fast = minimize_over_polytrope(inst, p, objective)
        except Infeasible:
            with pytest.raises(Infeasible):
                enumerate_fixed_offset(inst, p, objective)
            empty += 1
            continue
        slow = enumerate_fixed_offset(inst, p, objective)
        assert (fast.timetable, fast.tension, fast.objective) == (
            slow.timetable,
            slow.tension,
            slow.objective,
        ), (inst, p, objective)
        checked += 1
    assert checked >= 300 and empty >= 10


def _flow_oracle_cases():
    """Seeded (objective kind, instance, offset, objective) cases on small
    instances, plain and varied (fixed arcs, signed weights) in turn: the
    first nonempty classes of each, two of them shifted by a random
    potential, and a raw random offset (often empty), under the four
    objectives of ``_random_cases``.  Instances stay small because a zero
    objective walks the whole polytrope's vertices."""
    for seed in range(440):
        rng = random.Random(7100 + seed)
        if seed % 2:
            inst = varied_instance(rng, max_vertices=6, max_arcs=8)
        else:
            inst = random_instance(rng, max_vertices=6, max_arcs=8, max_period=10)
        g = inst.graph
        basis = default_basis(g)
        polys = enumerate_polytropes(inst, basis) if width(inst, basis) <= 60 else ()
        offsets = [poly.offset for poly in polys[:4]]
        for p in offsets[:2]:
            shift = [rng.randint(-2, 2) for _ in range(g.n)]
            pairs = g.arc_index_pairs
            offsets.append(tuple(pa + shift[j] - shift[i] for pa, (i, j) in zip(p, pairs)))
        offsets.append(tuple(rng.randint(-1, 2) for _ in range(g.m)))
        for k, p in enumerate(offsets):
            kind = (seed + k) % 4
            if kind == 0:
                objective = None
            elif kind == 1:
                objective = (0,) * g.m
            elif kind == 2:
                objective = tuple(int(a == rng.randrange(g.m)) for a in range(g.m))
            else:
                objective = tuple(rng.randint(-3, 5) for _ in range(g.m))
            yield kind, inst, p, objective


def test_matches_the_bellman_ford_flow_oracle():
    """The potential-vector solver returns the result of the solver it
    replaced (one Bellman-Ford per augmentation, equality classes from a
    Floyd-Warshall matrix), field for field, and calls emptiness alike."""
    solved = [0] * 4
    empty = 0
    for kind, inst, p, objective in _flow_oracle_cases():
        try:
            fast = minimize_over_polytrope(inst, p, objective)
        except Infeasible:
            with pytest.raises(Infeasible):
                minimize_by_bellman_ford_flow(inst, p, objective)
            empty += 1
            continue
        assert fast == minimize_by_bellman_ford_flow(inst, p, objective), (inst, p, objective)
        solved[kind] += 1
    assert sum(solved) >= 1000 and min(solved) >= 200 and empty >= 100, (solved, empty)


def test_every_empty_solve_carries_the_negative_cycle_that_proves_it(monkeypatch):
    """Over the property corpus, ``certified_optimum`` raises Infeasible at
    exactly the box points that ``polytrope_nonempty`` calls empty, after
    one Bellman-Ford like every solve, and the ``cycle`` it carries passes
    ``check_empty_certificate``.  Each certificate fails the check with
    one entry's sign flipped, with one entry zeroed, and with p shifted to
    a nonempty offset of the same instance."""
    runs = count_bellman_ford(monkeypatch)
    certificates = mutants = 0
    for inst, basis, _, _ in random_corpus(100):
        cycles, nonempty = [], []
        for z in box_points(inst, basis):
            p = offset_for(inst, basis, z)
            is_nonempty = polytrope_nonempty(inst, p)
            runs.clear()
            try:
                certified_optimum(inst, p)
            except Infeasible as empty:
                assert not is_nonempty
                cycles.append((p, empty.cycle))
            else:
                assert is_nonempty
                nonempty.append(p)
            assert runs == [(inst.graph.n, None)]
        for p, gamma in cycles:
            assert check_empty_certificate(inst, p, gamma) == []
            certificates += 1
            for a in (a for a, g in enumerate(gamma) if g):
                for value in (-gamma[a], 0):
                    bad = gamma[:a] + (value,) + gamma[a + 1 :]
                    assert check_empty_certificate(inst, p, bad) != []
                    mutants += 1
            for q in nonempty[:3]:
                assert check_empty_certificate(inst, q, gamma) != []
                mutants += 1
    assert Infeasible("no cycle").cycle is None
    assert certificates >= 180 and mutants >= 1200, (certificates, mutants)


def test_a_disconnected_instance_fails_before_any_bellman_ford(monkeypatch):
    """A ``PespInstance`` built directly may be disconnected (only
    ``parse_instance`` checks); the solver refuses it up front, on empty
    and nonempty offsets alike, without a Bellman-Ford or a flow."""
    g = Digraph(tuple("abcdef"), (("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")))
    inst = PespInstance(g, 10, (2,) * 4, (6,) * 4, (1,) * 4)
    offsets = list(itertools.product((-1, 0, 1), repeat=4))
    nonempty = sum(polytrope_nonempty(inst, p) for p in offsets)
    assert nonempty == 39
    runs = count_bellman_ford(monkeypatch)
    for p in offsets:
        with pytest.raises(DisconnectedGraph):
            minimize_over_polytrope(inst, p)
    assert runs == []


def test_a_solve_runs_one_bellman_ford_and_no_floyd_warshall(monkeypatch):
    """The emptiness test opens the solve and its potentials serve the
    flow and the face: one Bellman-Ford per call, nonempty or empty, and
    no all-pairs matrix."""
    cases = list(itertools.islice(_flow_oracle_cases(), 400))
    runs = count_bellman_ford(monkeypatch)
    solved = 0
    for _, inst, p, objective in cases:
        runs.clear()
        try:
            minimize_over_polytrope(inst, p, objective)
            solved += 1
        except Infeasible:
            pass
        assert runs == [(inst.graph.n, None)]
    assert solved >= 200


def test_a_face_without_a_vertex_is_an_invariant_violation(monkeypatch):
    inst = triangle_instance()
    monkeypatch.setattr(peritrope.fixedlp, "grow_spanning_trees", lambda *args, **kwargs: None)
    with pytest.raises(InvariantViolation):
        minimize_over_polytrope(inst, (0, 0, 1), objective=(0, 0, 0))


def test_tightening_an_upper_bound_never_helps():
    inst = triangle_instance()
    base = minimize_over_polytrope(inst, (0, 0, 1)).objective
    for a in range(3):
        for cut in (1, 2, 3):
            upper = list(inst.upper)
            upper[a] -= cut
            if upper[a] - inst.lower[a] < 0:
                continue
            tightened = type(inst)(
                inst.graph, inst.period, inst.lower, tuple(upper), inst.weight
            )
            try:
                tightened_obj = minimize_over_polytrope(tightened, (0, 0, 1)).objective
            except Infeasible:
                continue
            assert tightened_obj >= base


def test_oracle_equivalence_on_random_instances():
    checked = 0
    for seed in range(30):
        rng = random.Random(1000 + seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=6, max_period=8)
        basis = default_basis(inst.graph)
        try:
            polys = enumerate_polytropes(inst, basis)
        except EnumerationCapExceeded:
            continue
        for poly in polys:
            fast = minimize_over_polytrope(inst, poly.offset)
            slow = brute_force_fixed_offset(inst, poly.offset)
            assert fast.objective == slow.objective
            checked += 1
    assert checked >= 20


def test_infeasible_agreement_on_random_offsets():
    # both solvers must call emptiness identically, whatever the offset
    for seed in range(15):
        rng = random.Random(2000 + seed)
        inst = random_instance(rng, max_vertices=4, max_arcs=5, max_period=8)
        p = tuple(rng.randint(-1, 2) for _ in range(inst.graph.m))
        try:
            fast = minimize_over_polytrope(inst, p).objective
        except Infeasible:
            with pytest.raises(Infeasible):
                brute_force_fixed_offset(inst, p)
            continue
        assert brute_force_fixed_offset(inst, p).objective == fast


def _bound_cases():
    """Seeded (instance, basis) pairs for the relaxation bound: varied
    instances (fixed arcs, signed weights) under their default basis and,
    when mu >= 2, under a permuted fundamental basis and the unimodular
    non-fundamental one with row 0 added to row 1."""
    for seed in range(120):
        rng = random.Random(4400 + seed)
        inst = varied_instance(rng)
        yield inst, default_basis(inst.graph)
        if inst.graph.m - inst.graph.n + 1 >= 2:
            for basis in random_bases(rng, inst.graph)[1:3]:
                yield inst, basis


def _beyond_the_box(inst, basis):
    """Points one step outside the box along one axis, 0 on the others."""
    T = inst.period
    for k, (lo, hi) in enumerate(odijk_box(inst, basis)):
        for outside in (-(-lo // T) - 1, hi // T + 1):
            yield tuple(outside if i == k else 0 for i in range(basis.mu))


def test_cycle_relaxation_bound_rules_out_no_box_point():
    # Each row's gap closes anywhere in [lo, hi], the range of gamma.x over
    # the arc bounds, which is the row's side of the box: so the bound is
    # None only off the box, empty box points included.
    points = empty = 0
    for inst, basis in _bound_cases():
        bound = cycle_relaxation_bound(inst, basis)
        for z in box_points(inst, basis):
            assert bound(z) is not None, (inst, basis, z)
            points += 1
            empty += not polytrope_nonempty(inst, offset_for(inst, basis, z))
    assert points >= 800 and empty >= 500


def test_cycle_relaxation_bound_is_none_exactly_off_the_box():
    """The contract ``solve_exact`` and ``OffsetMemo`` rely on instead of a
    Bellman-Ford: on the box grown by two along every axis, under all four
    ``random_bases`` kinds, the bound is None exactly off the box."""
    inside = [0] * 4  # per basis kind
    outside = 0
    for seed in range(150):
        rng = random.Random(5100 + seed)
        inst = varied_instance(rng)
        if inst.graph.m - inst.graph.n + 1 < 2:
            continue
        for kind, basis in enumerate(random_bases(rng, inst.graph)):
            bound = cycle_relaxation_bound(inst, basis)
            box = _box_integer_ranges(inst, basis)
            grown = [range(r.start - 2, r.stop + 2) for r in box]
            if math.prod(map(len, grown)) > 5000:
                continue
            for z in itertools.product(*grown):
                in_box = all(v in r for v, r in zip(z, box))
                assert (bound(z) is None) == (not in_box), (inst, basis, z)
                inside[kind] += in_box
                outside += not in_box
    assert min(inside) >= 200 and outside >= 10_000, (inside, outside)


def test_cycle_relaxation_bound_is_below_every_polytrope_optimum():
    # Keyed by identity; holding each instance keeps a freed one's id
    # from being counted again for the next.
    instances = {}
    points = tight = non_fundamental = fixed = signed = 0
    for inst, basis in _bound_cases():
        bound = cycle_relaxation_bound(inst, basis)
        for z in lattice_points(inst, basis):
            lower = bound(z)
            optimum = minimize_over_polytrope(inst, offset_for(inst, basis, z)).objective
            assert lower is not None
            assert lower <= optimum
            points += 1
            tight += lower == optimum
        for z in _beyond_the_box(inst, basis):
            # outside the box some row cannot close its gap, and the
            # polytrope is empty
            assert bound(z) is None
            assert not polytrope_nonempty(inst, offset_for(inst, basis, z))
        instances[id(inst)] = inst
        non_fundamental += basis.tree is None
        fixed += any(s == 0 for s in inst.span)
        signed += min(inst.weight) < 0
    assert len(instances) >= 100
    assert points >= 200
    assert points > tight >= points // 3  # not vacuous: often the optimum
    assert non_fundamental >= 30 and fixed >= 30 and signed >= 30


def _one_cycle_instance(rng):
    """A random tree plus one arc, some arcs fixed, weights often signed."""
    inst = varied_instance(rng, max_vertices=6, max_arcs=0, max_period=12)
    vertices = inst.graph.vertices
    i, j = rng.sample(range(len(vertices)), 2)
    g = Digraph(vertices, inst.graph.arcs + ((vertices[i], vertices[j]),))
    lo = rng.randint(0, inst.period - 1)
    return inst._replace(
        graph=g,
        lower=inst.lower + (lo,),
        upper=inst.upper + (lo + rng.randint(0, inst.period - 1),),
        weight=inst.weight + (rng.randint(-3, 5),),
    )


def test_cycle_relaxation_bound_is_the_optimum_on_one_cycle():
    # With mu = 1 the single row and the arc bounds are the whole polytrope.
    points = 0
    for seed in range(100):
        inst = _one_cycle_instance(random.Random(5100 + seed))
        basis = default_basis(inst.graph)
        assert basis.mu == 1
        bound = cycle_relaxation_bound(inst, basis)
        for z in lattice_points(inst, basis):
            assert bound(z) == minimize_over_polytrope(inst, offset_for(inst, basis, z)).objective
            points += 1
    assert points >= 100


def test_a_row_that_cannot_close_its_gap_rules_its_offset_out():
    # Triangle row (1, -1, 1): x0 - x1 + x2 lies in [3 + 4 - 10, 12 + 13 - 2]
    # = [-3, 23], so T z = 10 z closes its gap for z = 0, 1, 2 only.
    inst = triangle_instance()
    basis = default_basis(inst.graph)
    assert basis.gamma == ((1, -1, 1),)
    bound = cycle_relaxation_bound(inst, basis)
    assert [bound((z,)) for z in range(-1, 4)] == [None, 14, 14, 24, None]
    # A hand-built row on arc 2 alone: x2 in [4, 13] never equals 10 z
    # for z = 0 or 2, and both are lattice points of the real basis.
    lone = cycle_relaxation_bound(inst, CycleBasis([(0, 0, 1)]))
    assert [lone((z,)) for z in (0, 1, 2)] == [None, 15, None]


def test_cycle_relaxation_bound_rounds_a_partial_move_up():
    # One row (2, 1) on two parallel arcs: x0, x1 in [0, 5], weights 3 and
    # 4, so closing 2 x0 + x1 = 5 z costs 3/2 per unit on arc 0 first.
    g = Digraph(("a", "b"), (("a", "b"), ("b", "a")))
    inst = PespInstance(g, 5, (0, 0), (5, 5), (3, 4))
    bound = cycle_relaxation_bound(inst, CycleBasis([(2, 1)]))
    assert [bound((z,)) for z in range(4)] == [0, 8, 15, 15 + 20]
    assert bound((4,)) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.data())
def test_cycle_relaxation_bound_matches_the_fraction_reference(seed, pick, data):
    # Every point of the box grown by two along each axis, on instances
    # with at least one zero-span arc, under fundamental, permuted,
    # unimodular and rational bases.
    rng = random.Random(seed)
    inst = varied_instance(rng)
    fixed = data.draw(st.integers(0, inst.graph.m - 1))
    upper = tuple(l if a == fixed else u for a, (l, u) in enumerate(zip(inst.lower, inst.upper)))
    inst = inst._replace(upper=upper)
    basis = default_basis(inst.graph)
    if basis.mu >= 2:
        basis = random_bases(rng, inst.graph)[pick]
    ranges = [range(r.start - 2, r.stop + 2) for r in _box_integer_ranges(inst, basis)]
    if math.prod(map(len, ranges)) > 2000:
        ranges = [(data.draw(st.sampled_from(r)),) for r in ranges]
    bound = cycle_relaxation_bound(inst, basis)
    reference = cycle_relaxation_bound_by_fractions(inst, basis)
    for z in itertools.product(*ranges):
        assert bound(z) == reference(z), z


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_a_prefix_bound_is_at_most_every_completion_and_none_exactly_off_the_box(seed, pick):
    # Every prefix of every point of the box grown by one along each axis,
    # under fundamental, permuted, unimodular and rational bases, against
    # the fraction reference's bound of each box point that completes it.
    rng = random.Random(seed)
    inst = varied_instance(rng)
    basis = default_basis(inst.graph)
    if basis.mu >= 2:
        basis = random_bases(rng, inst.graph)[pick]
    box = _box_integer_ranges(inst, basis)
    reference = cycle_relaxation_bound_by_fractions(inst, basis)
    least = {}  # the least reference bound over the completions of a prefix
    for z in itertools.product(*box):
        for k in range(len(z) + 1):
            least[z[:k]] = min(least.get(z[:k], reference(z)), reference(z))
    bound = cycle_relaxation_bound(inst, basis)
    grown = [range(r.start - 1, r.stop + 1) for r in box]
    for k in range(len(grown) + 1):
        for prefix in itertools.product(*grown[:k]):
            if prefix in least:
                assert bound(prefix) <= least[prefix], prefix
            else:
                assert bound(prefix) is None, prefix
    assert all(bound(z) == reference(z) for z in itertools.product(*box))


def _certificate_cases():
    """(inst, p, objective) of every optimum of the property corpus
    (``random_corpus(100)``, instance weights, every lattice point) and of
    the flow oracle cases, whose objectives are zero, one-arc and signed."""
    for inst, basis, _, _ in random_corpus(100):
        for z in lattice_points(inst, basis):
            yield inst, offset_for(inst, basis, z), None
    for _, inst, p, objective in _flow_oracle_cases():
        yield inst, p, objective


def test_every_optimum_carries_a_certificate_the_checker_accepts():
    checked = 0
    for inst, p, objective in _certificate_cases():
        try:
            found = certified_optimum(inst, p, objective)
        except Infeasible:
            continue
        assert check_certificate(inst, p, found, objective) == [], (inst, p, objective)
        assert optimal_vertex(inst, found) == minimize_over_polytrope(inst, p, objective)
        checked += 1
    assert checked >= 1100


def _head_of_a_flow_edge(inst, flow):
    """The head of the first doubled-graph edge that carries flow."""
    m = inst.graph.m
    k = next(k for k, f in enumerate(flow) if f)
    i, j = inst.graph.arc_index_pairs[k % m]
    return j if k < m else i


def _move_one_unit(inst, flow, phi):
    """One unit of flow moved from the first edge that carries flow to the
    reverse copy of its arc."""
    m = inst.graph.m
    k = next(k for k, f in enumerate(flow) if f)
    flow[k] -= 1
    flow[(k + m) % (2 * m)] += 1


def _shift_one_potential(inst, flow, phi):
    """The head of an edge that carries flow, a tight edge, raised by one:
    that edge's reduced cost turns negative."""
    phi[_head_of_a_flow_edge(inst, flow)] += 1


@pytest.mark.parametrize("mutate", [_move_one_unit, _shift_one_potential])
def test_a_mutated_flow_or_potential_fails_both_certificate_checks(monkeypatch, mutate):
    inst = square_instance()
    basis = square_basis()
    cases = 0
    for z in lattice_points(inst, basis):
        p = offset_for(inst, basis, z)
        found = certified_optimum(inst, p)
        flow, phi = list(found.flow), list(found.potentials)
        mutate(inst, flow, phi)
        assert check_certificate(inst, p, found._replace(flow=flow, potentials=phi))
        cases += 1
    assert cases == 11
    honest = peritrope.fixedlp._reduced_cost_flow

    def mutated(adjacency, cost, supply, phi):
        flow = honest(adjacency, cost, supply, phi)
        mutate(inst, flow, phi)
        return flow

    monkeypatch.setattr(peritrope.fixedlp, "_reduced_cost_flow", mutated)
    for z in lattice_points(inst, basis):
        with pytest.raises(InvariantViolation):
            certified_optimum(inst, offset_for(inst, basis, z))


def test_a_cut_planted_above_an_optimum_fails_both_checks(monkeypatch):
    inst = square_instance()
    basis = square_basis()
    z = lattice_points(inst, basis)[0]
    p = offset_for(inst, basis, z)
    found = certified_optimum(inst, p)
    const, slope = found.cut
    assert check_certificate(inst, p, found) == []
    assert check_certificate(inst, p, found._replace(cut=(const + 1, slope)))
    honest = peritrope.search.certified_optimum
    monkeypatch.setattr(
        peritrope.search,
        "certified_optimum",
        lambda *args: honest(*args)._replace(cut=(const + 1, slope)),
    )
    memo = OffsetMemo(inst, basis)
    message = f"is below the learned cut {found.objective + 1}$"
    with pytest.raises(InvariantViolation, match=message):
        memo.optimum(z)


def test_the_doubled_adjacency_lists_the_edges_of_kappa():
    # Each edge once from its tail and once into its head, every list in
    # edge order, as the flow's Dijkstra scanned the edges before.
    for inst, p, _ in itertools.islice(_certificate_cases(), 200):
        n = inst.graph.n
        out, into = inst.graph.doubled_adjacency
        listed_out = sorted((k, t, h) for t in range(n) for h, k in out[t])
        listed_into = sorted((k, t, h) for h in range(n) for t, k in into[h])
        edges = [(k, t, h) for k, (t, h, _) in enumerate(kappa(inst, p))]
        assert listed_out == listed_into == edges
        for lists in (out, into):
            assert all([k for _, k in at] == sorted(k for _, k in at) for at in lists)
