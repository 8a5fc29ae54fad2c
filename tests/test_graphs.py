import pathlib
import random
import sys
from functools import cached_property

import pytest

from peritrope import (
    Budget,
    CycleBasis,
    Digraph,
    DisconnectedGraph,
    EnumerationCapExceeded,
    InfeasibleFixedCycle,
    NotASpanningTree,
    NotATension,
    PespInstance,
    count_spanning_trees_determinant,
    default_basis,
    fundamental_cycle_basis,
    greedy_spanning_tree,
    initial_solution,
    spanning_trees,
    structure_for_tree,
    tension_to_timetable,
    verify_kernel_property,
)
from peritrope import contract_fixed_arcs, fine_tiling, graphs, parse_instance, zonotopes
from peritrope.graphs import _eliminate, _inverse_frame, greedy_forest, tree_potentials, tree_walk
from helpers import (
    _bareiss_det,
    _rational_rank,
    arborescences_rooted,
    dense_apply,
    gbar,
    random_bases,
    random_corpus,
    random_connected_digraph,
    random_instance,
    spanning_trees_by_contraction,
    spanning_trees_by_subsets,
    square_graph,
    triangle_graph,
    tree_potentials_by_stack_walk,
)


def test_digraph_rejects_self_loops():
    with pytest.raises(ValueError):
        Digraph(("a", "b"), (("a", "a"),))


def test_digraph_rejects_unknown_endpoint():
    with pytest.raises(ValueError):
        Digraph(("a", "b"), (("a", "c"),))


def test_digraph_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        Digraph(("a", "a"), ())


def test_parallel_and_antiparallel_arcs_are_allowed():
    g = Digraph(("a", "b"), (("a", "b"), ("a", "b"), ("b", "a")))
    assert g.m == 3
    assert g.is_connected()


def test_connectivity():
    assert triangle_graph().is_connected()
    g = Digraph(("a", "b", "c"), (("a", "b"),))
    assert not g.is_connected()


def test_connectivity_is_walked_once_per_graph(monkeypatch):
    """``is_connected`` walks the arcs on its first call and every later
    call, also through ``spanning_trees``, reads the stored answer; an
    equal graph object walks once of its own."""
    walks = []
    walk = graphs.tree_walk

    def counted_walk(g, tree, *args):
        walks.append(g)
        return walk(g, tree, *args)

    monkeypatch.setattr(graphs, "tree_walk", counted_walk)
    connected = triangle_graph()
    disconnected = Digraph(("a", "b", "c"), (("a", "b"),))
    for _ in range(3):
        assert connected.is_connected()
        assert not disconnected.is_connected()
    spanning_trees(connected)
    with pytest.raises(DisconnectedGraph):
        spanning_trees(disconnected)
    assert [id(g) for g in walks] == [id(connected), id(disconnected)]
    twin = triangle_graph()
    assert twin == connected and twin.is_connected()
    assert [id(g) for g in walks[2:]] == [id(twin)]


def test_cyclomatic_number():
    assert default_basis(triangle_graph()).mu == 1
    assert default_basis(square_graph()).mu == 3


def test_fundamental_basis_default_tree():
    g = triangle_graph()
    basis = default_basis(g)
    assert basis.tree == (0, 1)
    assert basis.gamma == ((1, -1, 1),)


def test_fundamental_basis_other_tree_follows_cotree_convention():
    # the co-tree arc always carries +1, so the same cycle flips sign here
    g = triangle_graph()
    basis = fundamental_cycle_basis(g, (0, 2))
    assert basis.gamma == ((-1, 1, -1),)
    assert verify_kernel_property(basis, g)


def test_fundamental_basis_rows_ordered_by_cotree_arc():
    g = square_graph()
    basis = fundamental_cycle_basis(g, (0, 2, 3))
    assert basis.row_cotree_arcs == (1, 4, 5)
    for k, a in enumerate(basis.row_cotree_arcs):
        assert basis.gamma[k][a] == 1


def test_apply_multiplies_by_the_cycle_matrix():
    """On the square, on a mu = 0 basis (no rows: every vector maps to (),
    whatever its length), and on seeded random bases (fundamental,
    permuted, unimodular, rational and with a repeated row) against the
    dense row-by-row product.  With mu >= 1 a vector one entry too short or
    too long raises ValueError."""
    basis = fundamental_cycle_basis(square_graph(), (0, 2, 3))
    v = (2, -1, 0, 5, 3, 7)
    assert basis.apply(v) == (2, 5, 7)
    for wrong in (v[:5], v + (1,)):
        with pytest.raises(ValueError):
            basis.apply(wrong)
    tree = fundamental_cycle_basis(Digraph(("a", "b"), (("a", "b"),)), (0,))
    for empty in (tree, CycleBasis(())):
        assert empty.mu == 0
        assert empty.apply((4,)) == empty.apply(()) == empty.apply([1, 2]) == ()
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=10)
        if g.m - g.n + 1 < 2:
            continue
        bases = random_bases(rng, g)
        c0, _, *rest = bases[0].gamma
        repeated = CycleBasis((c0, c0, *rest))
        for b in (*bases, repeated):
            for _ in range(3):
                x = [rng.randint(-20, 20) for _ in range(g.m)]
                assert b.apply(x) == b.apply(tuple(x)) == dense_apply(b, x)
            for wrong in (x[:-1], x + [0]):
                with pytest.raises(ValueError):
                    b.apply(wrong)
        checked += 1


def test_kernel_property_on_every_square_tree():
    g = square_graph()
    for tree in spanning_trees(g):
        assert verify_kernel_property(fundamental_cycle_basis(g, tree), g)


def test_fundamental_basis_on_every_tree_of_random_multigraphs():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_digraph(rng, max_vertices=5, max_arcs=7)
        t, h = rng.choice(g.arcs)
        g = Digraph(g.vertices, g.arcs + ((t, h), (h, t)))  # a parallel and an antiparallel arc
        for tree in spanning_trees(g):
            basis = fundamental_cycle_basis(g, tree)
            cotree = tuple(a for a in range(g.m) if a not in tree)
            assert verify_kernel_property(basis, g)
            assert basis.tree == tree
            assert basis.row_cotree_arcs == cotree
            for a, row in zip(cotree, basis.gamma):
                assert {b for b, s in enumerate(row) if s} <= set(tree) | {a}


def test_kernel_property_rejects_non_circuit():
    g = triangle_graph()
    bogus = CycleBasis([(1, 0, 0)])
    assert not verify_kernel_property(bogus, g)


_GOLDEN_INSTANCES = sorted((pathlib.Path(__file__).parent / "golden").glob("*.pesp"))


@pytest.mark.parametrize("path", _GOLDEN_INSTANCES, ids=[p.stem for p in _GOLDEN_INSTANCES])
def test_a_basis_is_its_cycle_matrix_and_tree(path):
    """A basis rebuilt from its rows and tree equals it, on every golden."""
    g = parse_instance(path.read_text()).graph
    b = default_basis(g)
    assert CycleBasis(b.gamma, b.tree) == b
    assert CycleBasis([list(row) for row in b.gamma], b.tree).gamma == b.gamma


def test_not_a_spanning_tree_errors():
    g = triangle_graph()
    with pytest.raises(NotASpanningTree):
        fundamental_cycle_basis(g, (0,))
    with pytest.raises(NotASpanningTree):
        fundamental_cycle_basis(g, (0, 7))
    # two arcs that leave v2 isolated
    g2 = Digraph(("a", "b", "c"), (("a", "b"), ("b", "a"), ("b", "c")))
    with pytest.raises(NotASpanningTree):
        fundamental_cycle_basis(g2, (0, 1))


def test_permuted_reorders_rows():
    g = square_graph()
    basis = fundamental_cycle_basis(g, (0, 2, 3))
    swapped = basis.permuted((1, 0, 2))
    assert swapped.gamma[0] == basis.gamma[1]
    assert swapped.row_cotree_arcs == (4, 1, 5)
    with pytest.raises(ValueError):
        basis.permuted((0, 0, 1))


def test_spanning_trees_triangle():
    assert spanning_trees(triangle_graph()) == ((0, 1), (0, 2), (1, 2))


def test_spanning_trees_square_count():
    assert len(spanning_trees(square_graph())) == 12


def test_spanning_trees_cap():
    with pytest.raises(EnumerationCapExceeded, match=" ran out in spanning trees: 0 spent, 12 "):
        spanning_trees(square_graph(), Budget(11))
    budget = Budget(12)
    assert len(spanning_trees(square_graph(), budget)) == 12 and budget.spent == 12


def _random_multigraph(rng):
    """A random connected digraph with one to four extra copies of its
    arcs, each copy parallel or antiparallel and at a random position."""
    g = random_connected_digraph(rng, max_vertices=6, max_arcs=7)
    arcs = list(g.arcs)
    for _ in range(rng.randint(1, 4)):
        t, h = rng.choice(arcs)
        arcs.insert(rng.randint(0, len(arcs)), (t, h) if rng.random() < 0.5 else (h, t))
    return Digraph(g.vertices, tuple(arcs))


def _outcome(enumerate_trees):
    try:
        return enumerate_trees()
    except EnumerationCapExceeded:
        return "refused"


def test_spanning_trees_match_the_subset_oracle_on_multigraphs():
    """The same sorted trees as every (n - 1)-arc subset a union-find
    takes and as the contraction-deletion recursion, and
    EnumerationCapExceeded exactly where the recursion passes its cap:
    a budget of count - 1 units refuses, a budget of count does not."""
    total = 0
    for seed in range(200):
        g = _random_multigraph(random.Random(4000 + seed))
        trees = spanning_trees(g)
        assert trees == spanning_trees_by_subsets(g), g
        assert trees == spanning_trees_by_contraction(g), g
        count = len(trees)
        total += count
        for cap in {0, count // 2, count - 1, count}:
            expected = trees if cap == count else "refused"
            assert _outcome(lambda: spanning_trees(g, Budget(cap))) == expected
            assert _outcome(lambda: spanning_trees_by_contraction(g, cap)) == expected
    assert total >= 2000, total


def test_a_single_vertex_has_the_empty_tree():
    g = Digraph(("v",), ())
    for enumerate_trees in (spanning_trees, spanning_trees_by_contraction):
        assert enumerate_trees(g) == ((),)
    assert _outcome(lambda: spanning_trees(g, Budget(0))) == "refused"
    assert _outcome(lambda: spanning_trees_by_contraction(g, 0)) == "refused"
    assert spanning_trees_by_subsets(g) == ((),)


class _CountedReads(tuple):
    """A vector that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, a):
        self.reads += 1
        return super().__getitem__(a)


class _EnoughTrees(Exception):
    """Raised by a ``visit`` that has seen all the trees it wants."""


def _core_with_pendant_arcs(core=7, leaves=12):
    """K_core (root 0) with ``leaves`` pendant arcs at its last vertex,
    numbered below every core arc."""
    arcs = [(core - 1, core + k) for k in range(leaves)]
    arcs += [(i, j) for i in range(core) for j in range(i + 1, core)]
    return Digraph(tuple(range(core + leaves)), tuple(arcs))


def test_tree_growth_work_is_bounded_by_the_trees_visited():
    """A dense core (K_7, root 0) with twelve pendant arcs at its last
    vertex, numbered below every core arc, so each is taken as soon as
    that vertex is reached.  Each is a bridge: the bridge test refuses to
    drop it, where a grower without the test would grow the rest of the
    core below every drop, 2^12 dead-end branches per visit of the last
    vertex.  With the test every branch ends in a tree, so each growth
    step, which reads one difference, leads to a visited tree: at most
    (cap + 1)(n - 1) reads before ``visit`` stops the growth at tree
    cap + 1."""
    leaves, cap = 12, 10
    g = _core_with_pendant_arcs(leaves=leaves)
    differences = _CountedReads((0,) * g.m)
    visited = []

    def visit(tree, run_toward, run_away, pi):
        if len(visited) == cap:
            raise _EnoughTrees
        visited.append(tuple(sorted(tree)))

    with pytest.raises(_EnoughTrees):
        graphs.grow_spanning_trees(g, visit, differences, differences)
    assert len(set(visited)) == cap
    assert all(set(range(leaves)) <= set(tree) for tree in visited)
    assert 0 < differences.reads <= (cap + 1) * (g.n - 1)


def test_a_graph_over_the_tree_cap_is_refused_before_any_growth(monkeypatch):
    """The Kirchhoff count (7^5 = 16,807 trees) is charged up front: a
    tree list, one unit a tree, or a tiling, mu units a tile, that the
    units left cannot pay for starts no growth."""
    g = _core_with_pendant_arcs()
    trees = count_spanning_trees_determinant(g)
    grown = []
    monkeypatch.setattr(graphs, "grow_spanning_trees", lambda *args: grown.append(args))
    monkeypatch.setattr(zonotopes, "grow_spanning_trees", lambda *args: grown.append(args))
    inst = PespInstance(g, 10, (1,) * g.m, (5,) * g.m, (1,) * g.m)
    basis = default_basis(g)
    refusals = (
        (lambda budget: spanning_trees(g, budget), "spanning trees", trees),
        (lambda budget: fine_tiling(inst, basis, budget=budget), "tiling", basis.mu * trees),
    )
    for enumerate_trees, layer, units in refusals:
        budget = Budget(units + 6)
        budget.charge("earlier work", 7)
        message = f"^the work budget of {units + 6} units ran out in {layer}: 7 spent, {units} more"
        with pytest.raises(EnumerationCapExceeded, match=message):
            enumerate_trees(budget)
        assert budget.spent == 7
    assert trees == 7**5 and basis.mu == 15 and grown == []


def test_the_tree_count_is_taken_only_where_the_cap_can_bind(monkeypatch):
    """The count is taken where a budget is charged, once per tree list and
    before its growth; the growth itself takes none, and a disconnected
    graph fails in the count, before any growth."""
    calls = []
    determinant = graphs.count_spanning_trees_determinant

    def counted(g):
        calls.append(g)
        return determinant(g)

    monkeypatch.setattr(graphs, "count_spanning_trees_determinant", counted)
    g = square_graph()
    budget = Budget()
    assert len(spanning_trees(g, budget)) == 12 and calls == [g] and budget.spent == 12
    zeros = (0,) * g.m
    graphs.grow_spanning_trees(g, lambda *tree: None, zeros, zeros)
    with pytest.raises(EnumerationCapExceeded, match="^the work budget of 11 units ran out in "):
        spanning_trees(g, Budget(11))
    assert calls == [g, g]
    with pytest.raises(DisconnectedGraph):
        spanning_trees(Digraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d"))))
    assert len(calls) == 3


class _CountedPairs(Digraph):
    """A digraph whose arc end pairs count their reads: one per growth
    step and one per arc a bridge test crosses."""

    @cached_property
    def arc_index_pairs(self):
        return _CountedReads(super().arc_index_pairs)


@pytest.mark.parametrize("closed", [False, True], ids=["pendant", "closed"])
@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
def test_a_chain_costs_linear_work_per_tree(closed, chain_first):
    """K_5 with a chain of 40 arcs hung at its last vertex, closed back to
    the root or not, numbered before or after the core.  Dropping a chain
    arc leaves the rest of the chain hanging by one arc, so each bridge
    test along it fails; a test that walked the whole far side each time
    would cost the chain length squared per growth of the chain (7 to 37
    reads per tree and vertex here).  A failed test hands its arc back to
    the caller's test, which then need not cross it: under 2 reads."""
    core, length = 5, 40
    chain = [(core - 1 if k == 0 else core + k - 1, core + k) for k in range(length)]
    if closed:
        chain.append((core + length - 1, 0))
    clique = [(i, j) for i in range(core) for j in range(i + 1, core)]
    arcs = chain + clique if chain_first else clique + chain
    g = _CountedPairs(tuple(range(core + length)), tuple(arcs))
    trees = []
    zeros = (0,) * g.m
    graphs.grow_spanning_trees(g, lambda tree, *_: trees.append(tuple(sorted(tree))), zeros, zeros)
    assert len(set(trees)) == len(trees) == count_spanning_trees_determinant(g)
    assert g.arc_index_pairs.reads <= 2 * len(trees) * (g.n - 1)


def test_a_long_path_grows_within_the_recursion_limit():
    """Each depth of the growth is a frame on its own stack, so a path
    three times as long as the recursion limit grows its one tree."""
    n = 3 * sys.getrecursionlimit()
    g = Digraph(tuple(range(n)), tuple((k, k + 1) for k in range(n - 1)))
    seen = []

    def visit(tree, run_toward, run_away, pi):
        seen.append((list(tree), list(run_toward), list(run_away), list(pi)))

    graphs.grow_spanning_trees(g, visit, (1,) * g.m, (0,) * g.m)
    assert seen == [(list(range(n - 1)), [], list(range(n - 1)), list(range(n)))]


def test_tree_count_matches_determinant_on_random_graphs():
    for seed in range(20):
        g = random_connected_digraph(random.Random(seed))
        assert len(spanning_trees(g)) == count_spanning_trees_determinant(g)


def _path(n, start=0):
    return [(k, k + 1) for k in range(start, start + n - 1)]


@pytest.mark.parametrize(
    "arcs, count",
    [
        (_path(20_000), 1),
        ([(i, j) for i in range(4) for j in range(i + 1, 4)] + _path(5_000, start=3), 16),
        (_path(50) + [(49, 0)], 50),
    ],
    ids=["path", "K4-with-a-chain", "ring"],
)
def test_the_pendant_peel_is_linear(arcs, count):
    """The peel keeps one degree count and a worklist of degree-1 vertices:
    a 20,000-vertex path and K_4 with a chain of 4,999 arcs peel in linear
    time (a peel that recounted every degree each round took 40 s on the
    path, on a 2-core x86 VM), and a ring, with no pendant vertex, is not
    peeled."""
    vertices = sorted({v for arc in arcs for v in arc})
    assert count_spanning_trees_determinant(Digraph(vertices, arcs)) == count


def test_greedy_tree_is_a_tree():
    for seed in range(10):
        g = random_connected_digraph(random.Random(seed))
        tree = greedy_spanning_tree(g)
        assert len(tree) == g.n - 1
        fundamental_cycle_basis(g, tree)  # raises if not spanning


def test_greedy_forest_spans_each_component():
    # components {0, 1, 2}, {3, 4} and {5}: a parallel arc, an antiparallel
    # arc and an arc closing a cycle are skipped, in the order tried
    edges = [(7, 0, 1), (8, 0, 1), (9, 1, 2), (10, 2, 0), (11, 4, 3), (12, 3, 4)]
    assert greedy_forest(6, edges) == [7, 9, 11]
    assert greedy_forest(3, []) == []
    rng = random.Random(4)
    for _ in range(20):
        parts = [random_connected_digraph(rng, max_vertices=4, max_arcs=6) for _ in range(3)]
        pairs, base = [], 0
        for part in parts:
            pairs += [(base + i, base + j) for i, j in part.arc_index_pairs]
            base += part.n
        edges = [(a, i, j) for a, (i, j) in enumerate(pairs)]
        rng.shuffle(edges)
        forest = greedy_forest(base + 2, edges)  # plus two isolated vertices
        assert len(forest) == base + 2 - 5
        assert forest == [a for a, _, _ in edges if a in set(forest)]


def test_gbar_doubles_arcs():
    g = triangle_graph()
    doubled = gbar(g)
    assert doubled.m == 6
    assert doubled.graph.m == 6
    assert doubled.graph.arcs[3:] == (("v1", "v0"), ("v2", "v0"), ("v2", "v1"))
    assert doubled.origin[0] == (0, True)
    assert doubled.origin[3] == (0, False)


def test_arborescence_counts_match_tree_counts():
    # every spanning tree orients uniquely away from any root inside the
    # doubled graph, and no other arborescence exists there
    for g in (triangle_graph(), square_graph()):
        trees = len(spanning_trees(g))
        for root in g.vertices:
            assert len(arborescences_rooted(gbar(g), root)) == trees


def test_arborescence_counts_match_tree_counts_random():
    for seed in range(8):
        g = random_connected_digraph(random.Random(seed))
        trees = len(spanning_trees(g))
        assert len(arborescences_rooted(gbar(g), g.vertices[0])) == trees


def test_unimodular_cotree_minors():
    # the basis matrix restricted to the co-tree of any other spanning tree
    # is invertible over the integers
    g = square_graph()
    basis = fundamental_cycle_basis(g, (0, 2, 3))
    for tree in spanning_trees(g):
        cotree = sorted(set(range(g.m)) - set(tree))
        mat = [[basis.gamma[k][a] for a in cotree] for k in range(basis.mu)]
        assert abs(_bareiss_det(mat)) == 1


def _eliminated_frame(basis):
    """The co-tree frame of a fundamental basis through ``_inverse_frame``."""
    cotree = basis.row_cotree_arcs
    d, inverse = _inverse_frame([basis.column(a) for a in cotree])
    entries = tuple(
        (a, row[k], k) for k in range(basis.mu) for a, row in zip(cotree, inverse) if row[k]
    )
    return cotree, d, entries


def test_a_fundamental_frame_is_the_eliminated_one():
    """On a fundamental basis Gamma_C = I, so the frame taken without
    elimination is the one ``_inverse_frame`` gives: on the default basis
    of the property corpus and on bench7-tree's basis (bench7 with its
    fixed arc contracted, tree 1,4,6,7,8,9 of the file).  Two rows owning
    one co-tree arc still leave d = 0 and no entries."""
    golden = pathlib.Path(__file__).parent / "golden" / "bench7.pesp"
    contracted = contract_fixed_arcs(parse_instance(golden.read_text()))
    image = [contracted.arc_map[a] for a in (1, 4, 6, 7, 8, 9)]
    tree = [a for a in image if a is not None]
    bases = [fundamental_cycle_basis(contracted.instance.graph, tree)]
    bases += [basis for _, basis, _, _ in random_corpus(100)]
    for basis in bases:
        assert basis.cotree_frame == _eliminated_frame(basis)
    c0, _, *rest = bases[0].gamma
    repeated = CycleBasis((c0, c0, *rest), bases[0].tree)
    assert len(set(repeated.row_cotree_arcs)) < repeated.mu
    _, d, entries = repeated.cotree_frame
    assert d == 0 and entries is None


def test_cotree_frame_of_every_basis_kind():
    """The co-tree frame under the four ``random_bases`` and a basis with a
    repeated row.  C is ``row_cotree_arcs`` on a fundamental basis and the
    first mu independent columns in arc order (by rational rank) on any
    other; |d| = |det Gamma_C| is 1 on the integral bases, 2 on the
    rational one and 0 for dependent rows; the entries are d times the
    inverse of Gamma_C."""
    rng = random.Random(23)
    seen = dict.fromkeys((1, 2, 0), 0)
    for _ in range(60):
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=10)
        if g.m - g.n + 1 < 2:
            continue
        *integral, rational = random_bases(rng, g)
        c0, _, *rest = integral[0].gamma
        repeated = CycleBasis((c0, c0, *rest))
        for basis, expected in [(b, 1) for b in integral] + [(rational, 2), (repeated, 0)]:
            cotree, d, entries = basis.cotree_frame
            if basis.tree is not None:
                assert cotree == basis.row_cotree_arcs
            else:
                first = []
                for a in range(g.m):
                    columns = [[row[b] for b in first + [a]] for row in basis.gamma]
                    if _rational_rank(columns) > len(first):
                        first.append(a)
                assert cotree == tuple(first)
            assert abs(d) == expected
            seen[expected] += 1
            if not d:
                assert entries is None
                continue
            minor = [[row[a] for a in cotree] for row in basis.gamma]
            assert abs(_bareiss_det(minor)) == expected
            inverse = [[0] * basis.mu for _ in cotree]
            for a, c, k in entries:
                inverse[cotree.index(a)][k] = c
            for i, row in enumerate(inverse):
                for j in range(basis.mu):
                    assert sum(x * minor[k][j] for k, x in enumerate(row)) == d * (i == j)
    assert min(seen.values()) >= 30, seen


def test_tree_potentials_follow_the_pinned_differences():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=9)
        tree = rng.choice(spanning_trees(g))
        differences = [rng.randint(-9, 9) for _ in range(g.m)]
        root = rng.randrange(g.n)
        pi = tree_potentials(g, tree, differences, root)
        assert pi[root] == 0
        for a in tree:
            i, j = g.arc_index_pairs[a]
            assert pi[j] - pi[i] == differences[a]
    # arcs outside the tree are ignored; vertices it misses stay None
    assert tree_potentials(triangle_graph(), (0,), {0: 5}) == [0, 5, None]


BAD_TREES = [
    ((0,), "1 arcs cannot span 3 vertices"),
    ((5,), "arc index out of range"),
    ((-1, 0), "arc index out of range"),
    ((0, 0), "repeated arc indices in tree"),
    ((0, 1, 2), "3 arcs cannot span 3 vertices"),
]


@pytest.mark.parametrize(
    "build",
    [
        lambda tree: fundamental_cycle_basis(triangle_graph(), tree),
        lambda tree: structure_for_tree(triangle_graph(), tree),
    ],
    ids=("fundamental_cycle_basis", "structure_for_tree"),
)
@pytest.mark.parametrize("tree, message", BAD_TREES, ids=[str(t) for t, _ in BAD_TREES])
def test_every_tree_taker_rejects_a_bad_tree(build, tree, message):
    """Caller arc sets go through one spanning-tree check, so a short,
    repeated, out-of-range (negative ones included) or cyclic arc set
    raises NotASpanningTree instead of a bare TypeError or IndexError, or
    a structure on a wrapped-around arc."""
    with pytest.raises(NotASpanningTree, match=message):
        build(tree)


def test_a_tree_that_misses_a_vertex_is_rejected():
    g = Digraph(("a", "b", "c"), (("a", "b"), ("b", "a"), ("b", "c")))
    for build in (
        lambda: fundamental_cycle_basis(g, (0, 1)),
        lambda: structure_for_tree(g, (0, 1)),
    ):
        with pytest.raises(NotASpanningTree, match="does not span all vertices"):
            build()


def test_a_disconnected_graph_fails_before_its_tree_is_checked():
    """No start exists on a disconnected graph: ``initial_solution`` raises
    DisconnectedGraph before it takes any tree."""
    g = Digraph(("a", "b", "c"), (("a", "b"),))
    inst = PespInstance(g, 10, (1,), (5,), (1,))
    with pytest.raises(DisconnectedGraph):
        initial_solution(inst)


def test_elimination_matches_the_bareiss_determinant():
    """|d| of the shared kernel equals the forward-Bareiss determinant on
    random square integer matrices of size 0..7 (None exactly when it is
    0), and leaves d times the identity behind."""
    rng = random.Random(5)
    kinds = {"singular": 0, "regular": 0}
    for case in range(800):
        k = case % 8
        mat = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        if k and rng.random() < 0.25:
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            f = rng.randint(-2, 2)
            mat[i] = [f * x for x in mat[j]] if i != j else [0] * k
        det = _bareiss_det(mat)
        rows = [row[:] for row in mat]
        d = _eliminate(rows)
        if det == 0:
            assert d is None, mat
            kinds["singular"] += 1
            continue
        assert abs(d) == abs(det), mat
        assert rows == [[d * int(i == c) for c in range(k)] for i in range(k)]
        kinds["regular"] += 1
    assert min(kinds.values()) >= 100, kinds


def _parent_kernel_property(basis, g):
    """Circuit rows of the right length, independent by rational rank."""
    pairs = g.arc_index_pairs
    for row in basis.gamma:
        if len(row) != g.m:
            return False
        net = [0] * g.n
        for a, s in enumerate(row):
            i, j = pairs[a]
            net[i] += s
            net[j] -= s
        if any(net):
            return False
    return _rational_rank(basis.gamma) == basis.mu


def test_kernel_property_matches_the_rational_rank():
    """The Gram-determinant test agrees with the rational rank on random
    bases, on bases with a repeated or a combined (dependent) row, and on
    rows of the wrong length."""
    rng = random.Random(17)
    seen = {True: 0, False: 0, "dependent": 0, "short": 0}
    for _ in range(120):
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=10)
        if g.m - g.n + 1 < 2:
            continue
        for basis in random_bases(rng, g):
            rows = list(basis.gamma)
            c0, c1 = rows[0], rows[1]
            variants = [
                basis,
                CycleBasis(rows + [c0]),
                CycleBasis([c0, c1, [2 * x - y for x, y in zip(c0, c1)]]),
                CycleBasis([c0[:-1], *rows[1:]]),
            ]
            for k, variant in enumerate(variants):
                expected = _parent_kernel_property(variant, g)
                assert verify_kernel_property(variant, g) == expected
                seen[expected] += 1
                seen["dependent"] += k in (1, 2)
                seen["short"] += k == 3
    assert min(seen.values()) >= 50, seen


def test_tree_potentials_match_the_stack_walk():
    """``tree_potentials`` gives the potentials of the reference stack
    walk, on spanning, cyclic, non-spanning and empty arc subsets from
    every root; each ``tree_walk`` step's sign says which way its arc
    runs."""
    rng = random.Random(23)
    kinds = {"spanning": 0, "cyclic": 0, "partial": 0, "empty": 0}
    for _ in range(500):
        g = random_connected_digraph(rng, max_vertices=7, max_arcs=12)
        tree = rng.sample(range(g.m), rng.randint(0, g.m))
        root = rng.randrange(g.n)
        differences = [rng.randint(-9, 9) for _ in range(g.m)]
        pi = tree_potentials(g, tree, differences, root)
        assert pi == tree_potentials_by_stack_walk(g, tree, differences, root)
        for v, w, a, s in tree_walk(g, tree, root):
            assert g.arc_index_pairs[a] == ((v, w) if s > 0 else (w, v))
        reached = g.n - pi.count(None)
        if not tree:
            kinds["empty"] += 1
        elif len(tree) > reached - 1:
            kinds["cyclic"] += 1
        if reached < g.n:
            kinds["partial"] += 1
        else:
            kinds["spanning"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_errors_name_the_arc_the_walk_order_decides():
    """Which arc closes a cycle, and so is skipped, depends on the walk
    order, and with it the arc an error names: the ``InfeasibleFixedCycle``
    of ``contract_fixed_arcs`` on seeded instances with inconsistent fixed
    cycles, and the ``NotATension`` of ``tension_to_timetable`` on
    in-bound vectors that do not close up mod T.  Each text equals the one
    the same checks give over ``tree_potentials_by_stack_walk``'s
    potentials; walking the arcs in reverse order names another arc in
    some cases, so the order is what is checked."""
    seen = dict.fromkeys(("fixed", "fixed order", "tension", "tension order"), 0)

    def first_open_arc(inst, arcs, x, pi):
        pairs, T = inst.graph.arc_index_pairs, inst.period
        return next((a for a in arcs if (pi[pairs[a][1]] - pi[pairs[a][0]] - x[a]) % T), None)

    def fixed_cycle_text(inst, order):
        g = inst.graph
        fixed = [a for a in range(g.m) if inst.lower[a] == inst.upper[a]]
        delta = [None] * g.n
        for v in range(g.n):
            if delta[v] is None:
                pi = tree_potentials_by_stack_walk(g, order(fixed), inst.lower, v)
                for w, d in enumerate(pi):
                    if d is not None:
                        delta[w] = d
        a = first_open_arc(inst, fixed, inst.lower, delta)
        return None if a is None else f"fixed arcs force an inconsistent cycle through arc {a}"

    def tension_text(inst, x, root, order):
        pi = tree_potentials_by_stack_walk(inst.graph, order(range(inst.graph.m)), x, root)
        a = first_open_arc(inst, range(inst.graph.m), x, pi)
        return None if a is None else f"arc {a} does not close up modulo {inst.period}"

    def raised(call, *args):
        try:
            call(*args)
        except (InfeasibleFixedCycle, NotATension) as exc:
            return str(exc)
        return None

    same, reverse = list, lambda arcs: list(reversed(arcs))
    for seed in range(300):
        rng = random.Random(4100 + seed)
        inst = random_instance(rng, max_vertices=5, max_arcs=9, max_period=9)
        fixed = inst._replace(
            upper=tuple(l if rng.random() < 0.6 else u for l, u in zip(inst.lower, inst.upper))
        )
        expected = fixed_cycle_text(fixed, same)
        if expected is not None:
            assert raised(contract_fixed_arcs, fixed) == expected
            seen["fixed"] += 1
            seen["fixed order"] += fixed_cycle_text(fixed, reverse) != expected
        x = [rng.randint(l, u) for l, u in zip(inst.lower, inst.upper)]
        root = rng.randrange(inst.graph.n)
        expected = tension_text(inst, x, root, same)
        text = raised(tension_to_timetable, inst, x, inst.graph.vertices[root])
        assert text == expected
        if expected is not None:
            seen["tension"] += 1
            seen["tension order"] += tension_text(inst, x, root, reverse) != expected
    assert min(seen.values()) >= 20, seen


def test_moves_are_the_distinct_nonzero_columns():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_digraph(rng, max_vertices=6, max_arcs=10)
        basis = default_basis(g)
        columns = {basis.column(a) for a in range(g.m)} - {(0,) * basis.mu}
        assert basis.moves == columns
