"""Acceptance suite: one callable per criterion, shared by the test
module and the `bichroma verify` command.

Each criterion returns (ok, detail).  run_all executes them in order,
prints one line per criterion, and writes the third-coefficient
disagreement census as a report artifact.
"""

import os
import random
import time

from .graphs import RED, BLUE, FLEX, MixedGraph, SimpleGraph, shadow
from .engine import (audit_coefficients, coeff_formula_second,
                     poly_interpolated, poly_partition, poly_recursive)
from .enumeration import (exhaustive_audit, connected_graphs, random_mixed_graph,
                          root_cloud, write_thm24_disagreements)
from .families import (cor42_graph, cor42_poly, limit_curve_experiment,
                       limit_curve_rows, shifted_join_graph, poly_shifted_join,
                       thm45_bracket, thm45_graph, thm45_poly)
from .invariance import (admits_invariant_colouring, construct_join_colouring,
                         is_invariant_structural)
from .polynomial import IntPolynomial, evaluate_int, falling_factorial
from .roots import find_roots

DEFAULT_SEED = 20240601
RANDOM_PER_SIZE = 10_000


class SweepData:
    """Shared state for criteria 1-4: the n=4 exhaustive audit plus the
    seeded random agreement runs at n=5 and n=6, one random stream per
    size."""

    def __init__(self, seed=DEFAULT_SEED, random_per_size=RANDOM_PER_SIZE):
        t0 = time.time()
        self.audit4 = exhaustive_audit(4)
        self.random_mismatch = 0
        self.random_thm21_bad = 0
        self.random_thm22_bad = 0
        self.random_total = 0
        for n in (5, 6):
            rng = random.Random(seed * 1000 + n * 100)
            for _ in range(random_per_size):
                M = random_mixed_graph(n, rng)
                p_int = poly_interpolated(M)
                if p_int != poly_recursive(M) or p_int != poly_partition(M):
                    self.random_mismatch += 1
                if not (p_int.degree == n and p_int.coefficient(n) == 1
                        and p_int.coefficient(0) == 0):
                    self.random_thm21_bad += 1
                if coeff_formula_second(M) != p_int.coefficient(n - 1):
                    self.random_thm22_bad += 1
                self.random_total += 1
        self.elapsed = time.time() - t0


def criterion_1(sweep):
    ok = (sweep.audit4.engine_agreements == sweep.audit4.mixed_instances == 4096
          and sweep.random_mismatch == 0)
    detail = ("4096/4096 exhaustive n=4 agree; %d random (n=5,6) with %d mismatches;"
              " %.1fs" % (sweep.random_total, sweep.random_mismatch, sweep.elapsed))
    return ok, detail


def criterion_2(sweep):
    ok = (sweep.audit4.thm21_ok == sweep.audit4.mixed_instances
          and sweep.random_thm21_bad == 0)
    return ok, "degree/monic/zero-constant on all criterion-1 instances"


def criterion_3(sweep):
    ok = (sweep.audit4.thm22_agreements == sweep.audit4.mixed_instances
          and sweep.random_thm22_bad == 0)
    return ok, "second-coefficient formula exact on all criterion-1 instances"


def criterion_4(sweep, out_dir=None):
    dis = sweep.audit4.thm24_disagreements
    # no disagreement may have a complete shadow (the proof's base case)
    complete_bad = []
    for edges, formula, true in dis:
        M = MixedGraph(4, edges)
        sh = shadow(M)
        if sh.edge_count() == 6:
            complete_bad.append(edges)
    p4 = MixedGraph(4, [(0, 1, RED), (1, 2, FLEX), (2, 3, BLUE)])
    p4_audit = audit_coefficients(p4)
    twok2 = (((0, 1, "R"), (2, 3, "B")), 0, -1)
    c4 = (((0, 1, "R"), (0, 2, "R"), (1, 3, "B"), (2, 3, "B")), 9, 8)
    flagged = twok2 in dis and c4 in dis
    ok = (not complete_bad and p4_audit.agrees_third
          and p4_audit.formula_third == 2 and flagged)
    if out_dir:
        write_thm24_disagreements(
            os.path.join(out_dir, "thm24_disagreements.csv"), dis)
    detail = ("complete-shadow cases all agree; P4 value %d; %d documented "
              "disagreements flagged (2K2 and C4 present: %s)"
              % (p4_audit.formula_third, len(dis), flagged))
    return ok, detail


def criterion_5():
    t0 = time.time()
    for m in range(1, 7):
        graph = cor42_graph(m + 1)
        closed = cor42_poly(m + 1)
        want = falling_factorial(m + 2) * IntPolynomial((m, 1))
        if closed != want or poly_recursive(graph) != closed:
            return False, "closed form mismatch at m=%d" % m
        rs = find_roots(closed)
        expect = sorted([-m] + list(range(0, m + 2)))
        if list(rs.integer_roots) != expect or rs.real_roots or rs.complex_roots:
            return False, "root recovery failed at m=%d: %s" % (m, rs)
    dt = time.time() - t0
    return dt < 10, "m=1..6 exact, integer roots recovered; %.1fs" % dt


def criterion_6():
    t0 = time.time()
    for n in (5, 6, 7):
        if thm45_poly(n) != poly_interpolated(thm45_graph(n)):
            return False, "oracle mismatch at n=%d" % n
    if thm45_poly(8) != poly_recursive(thm45_graph(8)):
        return False, "oracle mismatch at n=8"
    n6 = falling_factorial(3) * IntPolynomial((-3, 1)) ** 3
    if thm45_poly(6) != n6:
        return False, "n=6 factored form mismatch"
    dt = time.time() - t0
    return dt < 60, "n=5..8 exact vs oracle; n=6 factored form exact; %.1fs" % dt


def criterion_7(seed=DEFAULT_SEED):
    rng = random.Random(seed + 7)
    combos = [(RED, BLUE), (RED, RED), (BLUE, RED), (BLUE, BLUE)]
    for trial in range(200):
        gn = rng.randint(1, 4)
        G = random_mixed_graph(gn, rng)
        n = rng.choice((1, 2, 3))
        clique_c, join_c = combos[trial % len(combos)]
        joined = shifted_join_graph(G, n, clique_colour=clique_c,
                                    joining_colour=join_c)
        if poly_shifted_join(G, n) != poly_interpolated(joined):
            return False, "shift formula mismatch at trial %d" % trial
    return True, "200 seeded joins, formula exact vs interpolation oracle"


def _random_side(size, rng):
    while True:
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)
                 if rng.random() < 0.5]
        g = SimpleGraph.from_edges(size, edges)
        if all(g.neighbours(v) for v in range(size)):
            return g


def criterion_8():
    t0 = time.time()
    for n in range(1, 6):
        s = exhaustive_audit(n, include_mixed=False)
        if s.thm32_equivalences != s.colouring_instances:
            return False, "Thm 3.2 equivalence broken at n=%d" % n
        if s.thm33_equivalences != s.colouring_instances:
            return False, "Thm 3.3 equivalence broken at n=%d" % n
    return True, "all 2-edge-colourings, n<=5, both equivalences 100%%; %.1fs" % (
        time.time() - t0)


def criterion_9(seed=DEFAULT_SEED):
    rng = random.Random(seed + 9)
    for trial in range(20):
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        g1, g2 = _random_side(a, rng), _random_side(b, rng)
        edges = list(g1.adjacency)
        edges += [(u + a, v + a) for u, v in g2.adjacency]
        edges += [(u, v + a) for u in range(a) for v in range(b)]
        joined = SimpleGraph.from_edges(a + b, edges)
        coloured = construct_join_colouring(
            joined, (frozenset(range(a)), frozenset(range(a, a + b))))
        if not is_invariant_structural(coloured).invariant:
            return False, "join colouring not invariant at trial %d" % trial
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p5 = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    k6 = SimpleGraph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    if admits_invariant_colouring(c4) is not None:
        return False, "C4 wrongly admits"
    if admits_invariant_colouring(p5) is not None:
        return False, "P5 wrongly admits"
    bip = admits_invariant_colouring(k6)
    if bip is None:
        return False, "K6 wrongly refuses"
    coloured = construct_join_colouring(k6, bip)
    if not is_invariant_structural(coloured).invariant:
        return False, "K6 synthesis not invariant"
    return True, "20 random joins invariant; C4/P5 refused; K6 admits"


def criterion_10(out_dir=None):
    t0 = time.time()
    mono = root_cloud(6, "monochromatic")
    if len(mono) != 112:
        return False, "monochromatic record count %d != 112" % len(mono)
    bi = root_cloud(6, "bichromatic")
    expected = sum(2 ** g.edge_count() for g in connected_graphs(6))
    if len(bi) != expected:
        return False, "bichromatic record count %d != %d" % (len(bi), expected)
    # the all-Red colouring of each graph reproduces the classical
    # polynomial exactly, so coverage holds up to root-finder determinism;
    # membership is checked on a rounded grid well inside 1e-9
    bi_set = set()
    for rec in bi:
        for z in rec.roots.all_points():
            bi_set.add((round(z.real, 7), round(z.imag, 7)))
    mono_missing = 0
    for rec in mono:
        for z in rec.roots.all_points():
            if (round(z.real, 7), round(z.imag, 7)) not in bi_set:
                mono_missing += 1
    neg_mono = [z.real for rec in mono for z in rec.roots.all_points()
                if abs(z.imag) <= 1e-9 and z.real < -1e-9]
    neg_bi = [z.real for rec in bi for z in rec.roots.all_points()
              if abs(z.imag) <= 1e-9 and z.real < -1e-9]
    if out_dir:
        with open(os.path.join(out_dir, "figure_summary.txt"), "w") as fh:
            fh.write("monochromatic records: %d\n" % len(mono))
            fh.write("bichromatic records: %d\n" % len(bi))
            fh.write("negative real bichromatic roots at n=6: %d\n" % len(neg_bi))
    dt = time.time() - t0
    ok = (mono_missing == 0 and not neg_mono and dt < 600)
    neg_note = ("min negative bichromatic real root %.3f" % min(neg_bi)
                if neg_bi else "no negative real bichromatic root at n=6 (recorded)")
    return ok, ("%d mono + %d bi records; mono roots covered; %s; %.0fs"
                % (len(mono), len(bi), neg_note, dt)), (mono, bi)


def criterion_11():
    t0 = time.time()
    # the shift translates the roots, so one solve serves both n=40 checks
    roots40 = find_roots(thm45_bracket(40))
    rows40 = limit_curve_rows(40, roots40)
    hit = any(abs(r[1] - 4) < 0.15 and abs(r[2]) > 2 for r in rows40)
    rows20 = limit_curve_experiment([20])
    rows60 = limit_curve_experiment([60])
    grow = (max(abs(r[2]) for r in rows60) > max(abs(r[2]) for r in rows20))
    shifted = limit_curve_rows(40, roots40, shift=3)
    shift_hit = any(abs(r[1] - 7) < 0.15 and abs(r[2]) > 2 for r in shifted)
    shift_line = all(abs(r[4] - abs(r[1] - 7)) < 1e-12 for r in shifted)
    dt = time.time() - t0
    ok = hit and grow and shift_hit and shift_line and dt < 30
    return ok, ("n=40 root near Re=4 with |Im|>2: %s; |Im| grows 20->60: %s; "
                "shifted line Re=7: %s; %.1fs" % (hit, grow, shift_hit, dt))


def criterion_12(clouds=None):
    polys = [cor42_poly(4), thm45_poly(7), IntPolynomial((-55, 42, -11, 1))]
    pairs = [(p, find_roots(p)) for p in polys]
    if clouds:
        mono, bi = clouds
        pairs += [(rec.polynomial, rec.roots) for rec in mono + bi[:500]]
    for p, rs in pairs:
        for r in rs.integer_roots:
            if evaluate_int(p, r) != 0:
                return False, "inexact integer root %d of %s" % (r, p)
        if rs.total_count() != p.degree:
            return False, "root count mismatch for %s" % p
        for _, res, _ in rs.real_roots:
            if res > 1e-9:
                return False, "real residual %.3g too large for %s" % (res, p)
        for _, _, res, _ in rs.complex_roots:
            if res > 1e-9:
                return False, "complex residual %.3g too large for %s" % (res, p)
    return True, "residuals <= 1e-9, integer deflation exact, conjugates implied"


def run_all(seed=DEFAULT_SEED, out_dir=None, emit=print):
    """Execute every criterion; returns list of (criterion id, ok, detail)."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results = []

    def record(num, name, ok, detail):
        results.append((num, ok, detail))
        emit("[%s] criterion %2d %s: %s" % ("PASS" if ok else "FAIL", num, name, detail))

    sweep = SweepData(seed=seed)
    record(1, "engine triple agreement", *criterion_1(sweep))
    record(2, "theorem 2.1", *criterion_2(sweep))
    record(3, "theorem 2.2", *criterion_3(sweep))
    record(4, "theorem 2.4 audit", *criterion_4(sweep, out_dir=out_dir))
    record(5, "corollary 4.2", *criterion_5())
    record(6, "theorem 4.5", *criterion_6())
    record(7, "shift formula", *criterion_7(seed=seed))
    record(8, "invariance equivalences", *criterion_8())
    record(9, "synthesis", *criterion_9(seed=seed))
    ok10, detail10, clouds = criterion_10(out_dir=out_dir)
    record(10, "figure reproduction", ok10, detail10)
    record(11, "limit curve", *criterion_11())
    record(12, "root numerics", *criterion_12(clouds=clouds))
    if out_dir and clouds:
        from .enumeration import records_to_csv
        mono, bi = clouds
        with open(os.path.join(out_dir, "cloud_n6_monochromatic.csv"), "w") as fh:
            fh.write(records_to_csv(mono))
        with open(os.path.join(out_dir, "cloud_n6_bichromatic.csv"), "w") as fh:
            fh.write(records_to_csv(bi))
    return results
