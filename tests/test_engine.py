import random
from itertools import combinations, product
from math import comb

import pytest

from bichroma.graphs import (RED, BLUE, FLEX, MixedGraph, SimpleGraph,
                             from_simple, shadow)
from bichroma.engine import (audit_coefficients, chromatic_number,
                             classical_chromatic,
                             coeff_formula_second, coeff_formula_third,
                             colouring_polynomials, count_colourings,
                             independent_partitions, poly_interpolated,
                             poly_partition, poly_recursive, TooLarge)
from bichroma.engine import _split
from bichroma.enumeration import (all_graphs, all_labelled_mixed,
                                  colourings_of, random_mixed_graph)
from bichroma.polynomial import IntPolynomial, evaluate_int, falling_factorial

ENGINES = (poly_interpolated, poly_recursive, poly_partition)


def two_k2():
    return MixedGraph(4, [(0, 1, RED), (2, 3, BLUE)])


def test_two_k2_golden():
    want = IntPolynomial((0, 2, -1, -2, 1))  # x^4 - 2x^3 - x^2 + 2x
    for engine in ENGINES:
        assert engine(two_k2()) == want


def test_count_matches_polynomial():
    M = two_k2()
    p = poly_recursive(M)
    for k in range(6):
        assert count_colourings(M, k) == evaluate_int(p, k)


def colourings_by_definition(M, k):
    """Count the k-colourings of M literally: every assignment of k colours,
    proper on the shadow, with no colour pair on both a Red and a Blue edge."""
    total = 0
    for colour in product(range(k), repeat=M.n):
        pair_kind = {}
        for (u, v), kind in M.edges.items():
            if colour[u] == colour[v]:
                break
            if kind is not FLEX:
                pair = frozenset((colour[u], colour[v]))
                if pair_kind.setdefault(pair, kind) is not kind:
                    break
        else:
            total += 1
    return total


def test_count_colourings_matches_definition():
    rng = random.Random(3)
    for n in range(5):
        for _ in range(12):
            M = random_mixed_graph(n, rng)
            for k in range(6):
                assert count_colourings(M, k) == colourings_by_definition(M, k)
    assert count_colourings(MixedGraph(0, []), 0) == 1
    assert count_colourings(two_k2(), 0) == 0
    with pytest.raises(ValueError):
        count_colourings(two_k2(), -1)
    # the bound refuses a palette past 4,000,000 before building its counts
    for n in (0, 1):
        with pytest.raises(TooLarge):
            count_colourings(MixedGraph(n, []), 4_000_001)


def test_empty_graph():
    M = MixedGraph(3, [])
    for engine in ENGINES:
        assert engine(M) == IntPolynomial((0, 0, 0, 1))
    assert poly_recursive(MixedGraph(0, [])) == IntPolynomial.one()


def test_all_flexible_reduces_to_classical():
    # flexible-only mixed graphs have the plain chromatic polynomial
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    M = MixedGraph(4, [(u, v, FLEX) for u, v in edges])
    g = SimpleGraph.from_edges(4, edges)
    assert poly_recursive(M) == classical_chromatic(g)


def test_monochromatic_reduces_to_classical():
    rng = random.Random(9)
    for colour in (RED, BLUE):
        for _ in range(20):
            edges = [(u, v) for u in range(5) for v in range(u + 1, 5)
                     if rng.random() < 0.5]
            M = MixedGraph(5, [(u, v, colour) for u, v in edges])
            assert poly_partition(M) == classical_chromatic(
                SimpleGraph.from_edges(5, edges))


def test_engines_agree_exhaustively_n3():
    for M in all_labelled_mixed(3):
        p = poly_interpolated(M)
        assert poly_recursive(M) == p
        assert poly_partition(M) == p


def test_engines_agree_random_n6():
    rng = random.Random(41)
    for _ in range(40):
        M = random_mixed_graph(6, rng)
        p = poly_interpolated(M)
        assert poly_recursive(M) == p
        assert poly_partition(M) == p


def test_classical_equals_recurrence_up_to_n6():
    for n in range(7):
        for g in all_graphs(n):
            assert classical_chromatic(g) == poly_recursive(from_simple(g))


def test_independent_partitions_n3_path():
    # P3 = 0-1-2: {0}{1}{2} and {0,2}{1}
    got = sorted((tuple(block), k)
                 for block, k in independent_partitions(3, [(0, 1), (1, 2)]))
    assert got == [((0, 1, 0), 2), ((0, 1, 2), 3)]


def test_colouring_polynomials_follow_colourings_of():
    rng = random.Random(5)
    for g in rng.sample(all_graphs(5), 8):
        rows = colouring_polynomials(g)
        for mask, M in enumerate(colourings_of(g)):
            assert IntPolynomial(rows[mask].tolist()) == poly_partition(M)


def test_classical_c4():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert classical_chromatic(g) == IntPolynomial((0, -3, 6, -4, 1))


def test_chromatic_number():
    # two colours would force the same pair onto both the red and blue edge
    assert chromatic_number(two_k2()) == 3
    M = MixedGraph(3, [(0, 1, RED), (1, 2, BLUE)])
    assert chromatic_number(M) == 3
    assert chromatic_number(MixedGraph(2, [(0, 1, FLEX)])) == 2


def test_second_coefficient_formula():
    for M in all_labelled_mixed(3):
        assert coeff_formula_second(M) == poly_partition(M).coefficient(2)


def test_third_coefficient_known_disagreements():
    audit = audit_coefficients(two_k2())
    assert audit.formula_third == 0
    assert audit.true_third == -1
    assert not audit.agrees_third
    square = MixedGraph(4, [(0, 1, RED), (0, 2, RED), (1, 3, BLUE), (2, 3, BLUE)])
    audit = audit_coefficients(square)
    assert audit.formula_third == 9
    assert audit.true_third == 8


def test_third_coefficient_agrees_on_p4():
    M = MixedGraph(4, [(0, 1, RED), (1, 2, FLEX), (2, 3, BLUE)])
    audit = audit_coefficients(M)
    assert audit.agrees_third
    assert audit.formula_third == 2


def test_coeff_formula_third_is_callable_everywhere():
    for M in all_labelled_mixed(2):
        coeff_formula_third(M)


def test_audit_truth_matches_brute_force_n4():
    for M in all_labelled_mixed(4):
        assert audit_coefficients(M) == audit_coefficients(
            M, poly=poly_interpolated(M))


def random_kinded_graph(n, density, rng, kinds=(RED, BLUE, FLEX)):
    pairs = rng.sample(list(combinations(range(n), 2)),
                       round(density * comb(n, 2)))
    return MixedGraph(n, [(u, v, rng.choice(kinds)) for u, v in pairs])


def test_recurrence_matches_partition_random_n7_to_9():
    rng = random.Random(2020)
    for n in (7, 8, 9):
        for density in (0.3, 0.5, 0.75):
            for _ in range(7):
                M = random_kinded_graph(n, density, rng)
                assert poly_recursive(M) == poly_partition(M)


def test_recurrence_edgeless_n8_has_bell_leaves():
    counts = [0] * 9
    _split([0] * 8, [0] * 8, [0] * 8, counts)
    # Stirling numbers of the second kind S(8, k); they sum to Bell(8)
    assert counts == [0, 1, 127, 966, 1701, 1050, 266, 28, 1]
    assert sum(counts) == 4140
    assert poly_recursive(MixedGraph(8, [])) == IntPolynomial((0,) * 8 + (1,))


def test_recurrence_complete_graphs():
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for kind in (RED, BLUE, FLEX):
            M = MixedGraph(n, [(u, v, kind) for u, v in pairs])
            assert poly_recursive(M) == falling_factorial(n)
        mixed = MixedGraph(n, [(u, v, (RED, BLUE, FLEX)[i % 3])
                               for i, (u, v) in enumerate(pairs)])
        assert poly_recursive(mixed) == falling_factorial(n)


def test_recurrence_bichromatic_witnesses():
    assert poly_recursive(two_k2()) == IntPolynomial((0, 2, -1, -2, 1))
    square = MixedGraph(4, [(0, 1, RED), (0, 2, RED), (1, 3, BLUE), (2, 3, BLUE)])
    # x (x - 1) (x - 2)^2: the Blue-Red pairs force 1 and 2 apart
    assert poly_recursive(square) == IntPolynomial((0, -4, 8, -5, 1))


def test_recurrence_all_flexible_is_classical_n7_n8():
    rng = random.Random(68)
    for n in (7, 8):
        for density in (0.3, 0.5, 0.75):
            M = random_kinded_graph(n, density, rng, kinds=(FLEX,))
            assert poly_recursive(M) == classical_chromatic(shadow(M))
