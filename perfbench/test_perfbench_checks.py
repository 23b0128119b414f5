"""The benchmark's checks pass on the program's outputs and fail on
deliberately corrupted polynomials, root sets and reports.

    python3 -m pytest -q perfbench/test_perfbench_checks.py
"""

import sys
import unittest
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from bichroma import (IntPolynomial, MixedGraph, RootSet, SimpleGraph,  # noqa: E402
                      audit_coefficients, colourings_of, graph_key,
                      census, find_roots, independent_pair_witness,
                      is_invariant_structural, poly_interpolated,
                      poly_partition, poly_recursive, thm45_bracket)
from bichroma.enumeration import EnumerationRecord, records_to_csv  # noqa: E402

P3_RB = (3, [(0, 1, "R"), (1, 2, "B")])     # bichromatic 2-path
C4_RRBB = (4, [(0, 1, "R"), (1, 2, "R"), (2, 3, "B"), (0, 3, "B")])
SQUARE_SHIFT = IntPolynomial((2, 0, -3, 0, 1))   # (x^2 - 1)(x^2 - 2)
WITH_COMPLEX_ROOTS = IntPolynomial((0, 0, 1, -2, 1, 0, 1))  # x^2 (x^4 + x^2 - 2x + 1)
WELL_CONDITIONED = IntPolynomial((-200, 0, 98, 0, 1))   # (x^2 - 2)(x^2 + 100)


def poly_of(n, edges):
    return poly_recursive(MixedGraph(n, edges))


class OracleTest(unittest.TestCase):
    def test_counts_match_definitions(self):
        self.assertEqual(oracle.count_colourings(3, [(0, 1, "F"), (1, 2, "F"), (0, 2, "F")], 3), 6)
        # the only proper 2-colourings put Red and Blue on one colour pair
        self.assertEqual(oracle.count_colourings(*P3_RB, 2), 0)
        self.assertEqual(oracle.bichromatic_pairs(*P3_RB), {(0, 2)})
        self.assertEqual(oracle.brute_force_poly(*C4_RRBB), list(poly_of(*C4_RRBB).coeffs))

    def test_bracket_expansion(self):
        self.assertEqual(oracle.thm45_bracket(12), list(thm45_bracket(12).coeffs))

    def test_polynomial_check_fails_on_corruption(self):
        n, edges = C4_RRBB
        good = list(poly_of(n, edges).coeffs)
        self.assertEqual(oracle.check_polynomial(good, n, edges), [])
        self.assertEqual(oracle.check_counts(good, n, edges, (2, 3)), [])
        for i, delta in ((4, 1), (0, 1), (3, 1)):   # lead, constant, Theorem 2.2
            bad = list(good)
            bad[i] += delta
            self.assertTrue(oracle.check_polynomial(bad, n, edges), i)
        self.assertTrue(oracle.check_polynomial(good + [1], n, edges))
        bad = list(good)
        bad[1] += 1
        self.assertTrue(oracle.check_counts(bad, n, edges, (2,)))


class RootCheckTest(unittest.TestCase):
    def setUp(self):
        self.poly = WITH_COMPLEX_ROOTS
        self.roots = find_roots(self.poly)

    def assertFails(self, rootset, poly=None):
        self.assertTrue(oracle.check_roots((poly or self.poly).coeffs, rootset))

    def test_program_roots_pass(self):
        self.assertEqual(oracle.check_roots(self.poly.coeffs, self.roots), [])
        p = thm45_bracket(20)
        self.assertEqual(oracle.check_roots(p.coeffs, find_roots(p)), [])

    def test_distance_allowance_only_where_no_double_meets_the_residual(self):
        passes = Counter()
        p = thm45_bracket(40)
        self.assertEqual(oracle.check_roots(p.coeffs, find_roots(p), passes=passes), [])
        self.assertGreater(passes["distance"], 0)
        # a well-conditioned root 1e-11 off: first-order distance under
        # 1e-9, residual above it, and a double close enough exists
        rs = find_roots(WELL_CONDITIONED)
        (v, res, m), *rest = rs.real_roots
        moved = replace(rs, real_roots=((v + 1e-11, res, m), *rest))
        self.assertTrue(oracle.check_roots(WELL_CONDITIONED.coeffs, moved))

    def test_missing_root(self):
        self.assertFails(replace(self.roots, integer_roots=self.roots.integer_roots[:1]))

    def test_inexact_integer_root(self):
        self.assertFails(replace(self.roots, integer_roots=(0, 1)))

    def test_conjugate_stored_below_axis(self):
        (re, im, res, m), *rest = self.roots.complex_roots
        self.assertFails(replace(self.roots, complex_roots=((re, -im, res, m), *rest)))

    def test_moved_root(self):
        (re, im, res, m), *rest = self.roots.complex_roots
        self.assertFails(replace(self.roots, complex_roots=((re + 1e-6, im, res, m), *rest)))

    def test_vieta(self):
        # both stored values are true roots; only the sum exposes the swap
        rs = find_roots(SQUARE_SHIFT)
        (v, res, _), *_ = rs.real_roots
        swapped = replace(rs, real_roots=((v, res, 2),) + rs.real_roots[2:])
        errors = oracle.check_roots(SQUARE_SHIFT.coeffs, swapped)
        self.assertTrue(any("Vieta" in e for e in errors), errors)

    def test_integer_root_left_numeric(self):
        p = IntPolynomial((2, -3, 1))
        rs = RootSet(source_degree=2, integer_roots=(),
                     real_roots=((1.0, 0.0, 1), (2.0, 0.0, 1)))
        self.assertFails(rs, p)


class WorkloadCheckTest(unittest.TestCase):
    def test_csv_check(self):
        polys = (poly_of(*P3_RB), poly_of(*C4_RRBB), WITH_COMPLEX_ROOTS)
        records = [EnumerationRecord("k", cid, poly, find_roots(poly))
                   for cid, poly in enumerate(polys)]
        csv = records_to_csv(records)
        self.assertEqual(workloads.check_csv(records, csv), [])
        self.assertTrue(workloads.check_csv(records, csv[:-1]))
        # a conjugate row that lost its minus sign
        self.assertTrue(workloads.check_csv(records, csv.replace(",-", ",", 1)))
        lines = csv.split("\n")
        self.assertTrue(workloads.check_csv(records, "\n".join(lines[:1] + lines[2:])))

    def test_cloud_check(self):
        # the 32 colourings of the star K_{1,5}: one of the 112 shadows
        star = SimpleGraph.from_edges(6, [(0, v) for v in range(1, 6)])
        records = []
        for cid, M in enumerate(colourings_of(star)):
            poly = poly_recursive(M)
            records.append(EnumerationRecord(graph_key(star), cid, poly, find_roots(poly)))
        cloud = workloads.Cloud6(None, 1)
        self.assertEqual(cloud.check((records, records_to_csv(records))),
                         ["1 shadows, expected 112"])
        bad = list(records)
        poly = bad[3].polynomial + IntPolynomial((0, 0, 0, 0, 0, 1))
        bad[3] = replace(bad[3], polynomial=poly, roots=find_roots(poly))
        self.assertGreater(len(cloud.check((bad, records_to_csv(bad)))), 1)
        self.assertGreater(len(cloud.check((records[1:], records_to_csv(records[1:])))), 1)

    def test_decode_key(self):
        self.assertEqual(workloads.decode_key("n4-7"), (4, [(0, 1), (0, 2), (0, 3)]))

    def test_limit_curve_properties(self):
        near = [(4.05, 2.5), (4.05, -2.5)]
        self.assertEqual(workloads.limit_curve_properties(
            {20: [(3.0, 1.0)], 40: near, 60: [(4.0, 3.0)]}), [])
        self.assertTrue(workloads.limit_curve_properties({40: [(4.5, 2.5)]}))
        self.assertTrue(workloads.limit_curve_properties(
            {20: [(3.0, 3.0)], 60: [(4.0, 1.0)]}))

    def test_witness_shapes(self):
        n, edges = C4_RRBB
        self.assertEqual(workloads.witness_shape(n, edges, 9, 8), "C4")
        self.assertEqual(workloads.witness_shape(4, [(0, 1, "R"), (2, 3, "B")], 0, -1), "2K2")
        self.assertIsNone(workloads.witness_shape(n, edges, 9, 9))

    def test_summary_check(self):
        good = SimpleNamespace(mixed_instances=64, engine_agreements=64, thm21_ok=64,
                               thm22_agreements=64, thm24_agreements=63,
                               thm24_disagreements=[((), 0, 0)],
                               colouring_instances=2, thm32_equivalences=2,
                               thm33_equivalences=2)
        errors = workloads.check_summary(3, good)
        # an empty graph's third coefficient agrees with the formula, and
        # n = 3 carries neither known witness
        self.assertTrue(any("disagreement" in e for e in errors))
        self.assertTrue(any("2K2" in e for e in errors))
        short = replace_ns(good, thm24_disagreements=[], engine_agreements=63)
        self.assertTrue(workloads.check_summary(3, short))

    def test_instance_check(self):
        n, edges = C4_RRBB
        M = MixedGraph(n, edges)
        polys = (poly_interpolated(M), poly_recursive(M), poly_partition(M))
        audit = audit_coefficients(M)
        self.assertEqual(workloads.check_instance(n, edges, polys, census(M), audit, True), [])
        wrong = polys[0] + IntPolynomial((0, 1))
        self.assertTrue(workloads.check_instance(n, edges, (wrong, wrong, wrong),
                                                 census(M), audit, True))
        self.assertTrue(workloads.check_instance(n, edges, (polys[0], wrong, polys[2]),
                                                 census(M), audit, False))
        self.assertTrue(workloads.check_instance(n, edges, polys, census(M),
                                                 replace(audit, true_third=0), False))

    def test_invariance_check(self):
        for n, edges in (P3_RB, C4_RRBB, (3, [(0, 1, "R"), (1, 2, "R")])):
            M = MixedGraph(n, edges)
            report, pair = is_invariant_structural(M), independent_pair_witness(M)
            self.assertEqual(workloads.check_invariance(n, edges, report, pair), [])
            flipped = replace(report, invariant=not report.invariant)
            self.assertTrue(workloads.check_invariance(n, edges, flipped, pair))


def replace_ns(ns, **changes):
    return SimpleNamespace(**dict(vars(ns), **changes))


if __name__ == "__main__":
    unittest.main()
