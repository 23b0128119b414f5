"""Exact chromatic polynomials of mixed 2-edge-coloured graphs.

A mixed graph carries Red, Blue, and Flexible edges over a simple shadow
graph.  A proper colouring must be proper on the shadow and no unordered
pair of colours may appear on both a Red and a Blue edge.  This package
computes the resulting chromatic polynomial with three independent exact
engines, audits the structural coefficient formulas, decides chromatic
invariance, builds closed-form families, and runs root experiments.
"""

from .graphs import (RED, BLUE, FLEX, EdgeKind, MixedGraph, SimpleGraph,
                     StructuralCensus, GraphError, SameVertex, AlreadyAdjacent,
                     IllegalPair, ColourClash, shadow, bichromatic_pairs,
                     closure_graph, obstructing_pairs, triangles, census,
                     add_flexible, identify, join_factors, colour_swap,
                     induced, from_simple, is_connected)
from .polynomial import (IntPolynomial, NonIntegerCoefficient,
                         falling_factorial, interpolate, compose_shift,
                         evaluate_int, evaluate_complex, display)
from .engine import (count_colourings, poly_interpolated, poly_recursive,
                     poly_partition, chromatic_number, classical_chromatic,
                     coeff_formula_second, coeff_formula_third,
                     CoefficientAudit, audit_coefficients)
from .meg import MegParseError, parse_meg, write_meg, parse_graph6, load_mixed
from .invariance import (Witness, InvarianceReport, is_invariant_structural,
                         is_invariant_by_polynomial, independent_pair_witness,
                         admits_invariant_colouring, construct_join_colouring)
from .families import (FamilySpec, TooSmall, PreconditionChiNotFull,
                       mono_complete, disjoint_union, coloured_join,
                       gk2_graph, poly_GK2, cor42_graph, cor42_poly,
                       shifted_join_graph, poly_shifted_join, thm45_graph,
                       thm45_poly, thm45_bracket, limit_curve_experiment,
                       hshift_graph, hshift_poly,
                       build_family)
from .roots import RootSet, ConvergenceFailure, find_roots
from .enumeration import (TooLarge, all_graphs, connected_graphs,
                          colourings_of, graph_key, automorphisms,
                          EnumerationRecord, root_cloud, records_to_csv,
                          random_mixed_graph, all_labelled_mixed,
                          AuditSummary, exhaustive_audit)
from .svg import scatter_svg, emit_svg

__version__ = "0.1.0"
