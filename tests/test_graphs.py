from itertools import combinations, product

import pytest

from bichroma.graphs import (RED, BLUE, FLEX, MixedGraph, SimpleGraph,
                             SameVertex, AlreadyAdjacent, IllegalPair,
                             add_flexible, bichromatic_pairs, census,
                             closure_graph, colour_swap, from_simple,
                             identify, induced, is_connected, join_factors,
                             obstructing_pairs, shadow, triangles)


def two_k2():
    # red 0-1, blue 2-3
    return MixedGraph(4, [(0, 1, RED), (2, 3, BLUE)])


def rb_path():
    # red 0-1, blue 1-2
    return MixedGraph(3, [(0, 1, RED), (1, 2, BLUE)])


def test_edges_normalized():
    M = MixedGraph(3, [(2, 0, RED)])
    assert (0, 2) in M.edges
    assert M.edges[(0, 2)] is RED


def test_shadow():
    sh = shadow(two_k2())
    assert sh.n == 4
    assert sh.adjacency == frozenset({(0, 1), (2, 3)})


def test_bichromatic_pairs_path():
    assert bichromatic_pairs(rb_path()) == {(0, 2)}


def test_bichromatic_pairs_counts_pairs_not_paths():
    # two distinct red-blue paths between 0 and 3 yield a single pair
    M = MixedGraph(4, [(0, 1, RED), (0, 2, RED), (1, 3, BLUE), (2, 3, BLUE)])
    assert bichromatic_pairs(M) == {(0, 3)}


def test_bichromatic_pair_blocked_by_shadow_edge():
    # a flexible edge between the ends makes them adjacent in the shadow
    M = MixedGraph(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, FLEX)])
    assert bichromatic_pairs(M) == set()


def test_closure_graph_adds_pairs():
    lam = closure_graph(rb_path())
    assert (0, 2) in lam.adjacency
    assert (0, 1) in lam.adjacency


def test_obstructing_pairs_2k2():
    assert obstructing_pairs(two_k2()) == {((0, 1), (2, 3))}


def test_obstructing_pairs_blocked_by_closure_odd_structure():
    # adding the red-blue paths makes the closure 4-cycle plus chords;
    # the double-witness square keeps its obstructing pair out
    M = MixedGraph(4, [(0, 1, RED), (0, 2, RED), (1, 3, BLUE), (2, 3, BLUE)])
    assert obstructing_pairs(M) == set()


def test_obstructing_pairs_match_two_colouring_search():
    # every labelled 4-vertex mixed graph: a disjoint (Red, Blue) edge pair
    # spans all four vertices, and it obstructs iff some 2-colouring of
    # them is proper on the closure graph
    pairs = list(combinations(range(4), 2))
    for kinds in product((None, RED, BLUE, FLEX), repeat=6):
        M = MixedGraph(4, [(u, v, k) for (u, v), k in zip(pairs, kinds)
                           if k is not None])
        lam = closure_graph(M)
        two_colourable = any(all(side[u] != side[v] for u, v in lam.adjacency)
                             for side in product((0, 1), repeat=4))
        want = {(e, f) for e, ke in M.edges.items() for f, kf in M.edges.items()
                if ke is RED and kf is BLUE and not set(e) & set(f)
                and two_colourable}
        assert obstructing_pairs(M) == want


def test_census_known_values():
    assert census(two_k2()).as_tuple() == (1, 1, 0, 0, 0, 1)
    assert census(rb_path()).as_tuple() == (1, 1, 0, 1, 0, 0)
    M = MixedGraph(4, [(0, 1, RED), (0, 2, RED), (1, 3, BLUE), (2, 3, BLUE)])
    assert census(M).as_tuple() == (2, 2, 0, 1, 0, 0)


def test_triangles():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert triangles(g) == {(0, 1, 2)}
    # every labelled 5-vertex graph against the definition
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        g = SimpleGraph.from_edges(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert triangles(g) == {t for t in combinations(range(5), 3)
                                if all(q in g.adjacency for q in combinations(t, 2))}


def test_add_flexible():
    M = add_flexible(two_k2(), 0, 2)
    assert M.edges[(0, 2)] is FLEX
    with pytest.raises(SameVertex):
        add_flexible(M, 1, 1)
    with pytest.raises(AlreadyAdjacent):
        add_flexible(M, 0, 1)


def test_identify_compacts_and_resolves_parallel():
    # identifying the flexible end against a red edge keeps red
    M = MixedGraph(3, [(0, 1, RED), (1, 2, FLEX)])
    out = identify(M, 0, 2)
    assert out.n == 2
    assert out.edges == {(0, 1): RED}


def test_identify_rejects_bichromatic_pair():
    # ends of a red-blue 2-path may not be merged
    M = MixedGraph(3, [(0, 1, RED), (1, 2, BLUE)])
    with pytest.raises(IllegalPair):
        identify(M, 0, 2)
    with pytest.raises(IllegalPair):
        identify(M, 0, 1)  # adjacent


def test_identify_never_clashes_on_legal_pairs():
    # the bichromatic-pair guard makes a red-blue parallel merge
    # impossible; verify exhaustively on 4 vertices
    pairs = list(combinations(range(4), 2))
    for kinds in product((None, RED, BLUE, FLEX), repeat=6):
        M = MixedGraph(4, [(u, v, k) for (u, v), k in zip(pairs, kinds)
                           if k is not None])
        for x, y in pairs:
            try:
                identify(M, x, y)
            except IllegalPair:
                pass


def test_colour_swap_involution():
    M = MixedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, FLEX)])
    assert colour_swap(colour_swap(M)) == M
    assert colour_swap(M).edges[(0, 1)] is BLUE


def test_induced():
    M = MixedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, FLEX)])
    sub = induced(M, [1, 2, 3])
    assert sub.n == 3
    assert sub.edges == {(0, 1): BLUE, (1, 2): FLEX}


def test_join_factors():
    # K4 minus a perfect matching is the join C4 = K2-bar + K2-bar
    g = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    sides = join_factors(g)
    assert sorted(sorted(s) for s in sides) == [[0, 1], [2, 3]]


def test_is_connected():
    assert is_connected(shadow(rb_path()))
    assert not is_connected(shadow(two_k2()))


def test_from_simple():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    M = from_simple(g)
    assert M.edges == {(0, 1): FLEX}


def test_mixed_graph_immutable():
    M = two_k2()
    with pytest.raises(AttributeError):
        M.n = 5
