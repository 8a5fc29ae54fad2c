import random

import pytest

from peritrope import (
    CycleBasis,
    Digraph,
    EnumerationCapExceeded,
    NotASpanningTree,
    OrientedCycle,
    arborescences_rooted,
    count_spanning_trees_determinant,
    cyclomatic_number,
    default_basis,
    fundamental_cycle_basis,
    gbar,
    greedy_spanning_tree,
    spanning_trees,
    verify_kernel_property,
)
from peritrope.graphs import tree_potentials
from helpers import random_connected_digraph, square_graph, triangle_graph


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


def test_cyclomatic_number():
    assert cyclomatic_number(triangle_graph()) == 1
    assert cyclomatic_number(square_graph()) == 3


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


def test_kernel_property_on_every_square_tree():
    g = square_graph()
    for tree in spanning_trees(g):
        assert verify_kernel_property(fundamental_cycle_basis(g, tree), g)


def test_kernel_property_rejects_non_circuit():
    g = triangle_graph()
    bogus = CycleBasis((OrientedCycle((1, 0, 0)),))
    assert not verify_kernel_property(bogus, g)


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
    with pytest.raises(EnumerationCapExceeded):
        spanning_trees(square_graph(), cap=5)


def test_tree_count_matches_determinant_on_random_graphs():
    for seed in range(20):
        g = random_connected_digraph(random.Random(seed))
        assert len(spanning_trees(g)) == count_spanning_trees_determinant(g)


def test_greedy_tree_is_a_tree():
    for seed in range(10):
        g = random_connected_digraph(random.Random(seed))
        tree = greedy_spanning_tree(g)
        assert len(tree) == g.n - 1
        fundamental_cycle_basis(g, tree)  # raises if not spanning


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
    from peritrope.graphs import _bareiss_det

    g = square_graph()
    basis = fundamental_cycle_basis(g, (0, 2, 3))
    for tree in spanning_trees(g):
        cotree = sorted(set(range(g.m)) - set(tree))
        mat = [[basis.gamma[k][a] for a in cotree] for k in range(basis.mu)]
        assert abs(_bareiss_det(mat)) == 1


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
