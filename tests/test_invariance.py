import pytest

from bichroma.graphs import RED, BLUE, FLEX, MixedGraph, SimpleGraph, shadow
from bichroma.engine import classical_chromatic, poly_partition
from bichroma.invariance import (HasFlexibleEdges, admits_invariant_colouring,
                                 construct_join_colouring,
                                 independent_pair_witness,
                                 is_invariant_by_polynomial,
                                 is_invariant_structural)
from bichroma.enumeration import all_graphs, colourings_of


def test_structural_path_witness():
    M = MixedGraph(3, [(0, 1, RED), (1, 2, BLUE)])
    rep = is_invariant_structural(M)
    assert not rep.invariant
    assert rep.witness.kind == "path"
    assert rep.witness.vertices == (0, 1, 2)


def test_structural_2k2_witness():
    M = MixedGraph(4, [(0, 1, RED), (2, 3, BLUE)])
    rep = is_invariant_structural(M)
    assert not rep.invariant
    assert rep.witness.kind == "2k2"
    assert rep.witness.vertices == (0, 1, 2, 3)


def test_monochromatic_is_invariant():
    M = MixedGraph(4, [(0, 1, RED), (1, 2, RED), (2, 3, RED)])
    assert is_invariant_structural(M).invariant
    assert is_invariant_by_polynomial(M)


def test_2k2_needs_induced():
    # joining the 2K2 sides kills both witness shapes
    M = MixedGraph(4, [(0, 1, RED), (2, 3, BLUE), (0, 2, RED), (0, 3, RED),
                       (1, 2, RED), (1, 3, RED)])
    assert is_invariant_structural(M).invariant


def test_flexible_edges_rejected():
    M = MixedGraph(2, [(0, 1, FLEX)])
    with pytest.raises(HasFlexibleEdges):
        is_invariant_structural(M)


def test_structural_matches_polynomial_exhaustively():
    for n in range(1, 5):
        for graph in all_graphs(n):
            for M in colourings_of(graph, dedup=True):
                assert (is_invariant_structural(M).invariant
                        == is_invariant_by_polynomial(M))


def test_witness_iff_not_invariant():
    for graph in all_graphs(4):
        for M in colourings_of(graph, dedup=True):
            witness = independent_pair_witness(M)
            if is_invariant_structural(M).invariant:
                assert witness is None
            else:
                assert witness is not None
                (s1, s2) = witness
                sh = shadow(M)
                # both sides are independent in the shadow
                for side in (s1, s2):
                    for a in side:
                        for b in side:
                            pair = (a, b) if a < b else (b, a)
                            assert a == b or pair not in sh.adjacency


def test_witness_separates_counts():
    # the witness marks two independent sets whose merge behaviour differs
    M = MixedGraph(3, [(0, 1, RED), (1, 2, BLUE)])
    witness = independent_pair_witness(M)
    assert witness is not None


def test_witness_beyond_sixteen_vertices():
    # the search is polynomial in the edge count, so no vertex cap applies
    edges = [(0, 1, RED), (1, 2, BLUE)]
    edges += [(v, v + 1, RED) for v in range(3, 16)]
    M = MixedGraph(17, edges)
    assert independent_pair_witness(M) == (frozenset({0, 2}), frozenset({1}))


def test_admits_refuses_c4_and_p5():
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p5 = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert admits_invariant_colouring(c4) is None
    assert admits_invariant_colouring(p5) is None


def test_admits_and_constructs_for_k4():
    k4 = SimpleGraph.from_edges(4, [(u, v) for u in range(4)
                                    for v in range(u + 1, 4)])
    bip = admits_invariant_colouring(k4)
    assert bip is not None
    M = construct_join_colouring(k4, bip)
    assert shadow(M) == k4
    kinds = set(M.edges.values())
    assert kinds == {RED, BLUE}
    assert is_invariant_structural(M).invariant
    assert poly_partition(M) == classical_chromatic(k4)


def test_join_colouring_structure():
    # join of 2K1-bar... take K2 + K2 join = C4 with diagonals: K4 minus
    # nothing; use the explicit bipartition form instead
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2),
                                   (1, 3)])
    M = construct_join_colouring(
        g, (frozenset({0, 1}), frozenset({2, 3})))
    assert M.edges[(0, 1)] is RED
    assert M.edges[(2, 3)] is RED
    assert M.edges[(0, 2)] is BLUE
    assert is_invariant_structural(M).invariant
