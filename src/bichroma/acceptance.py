"""Acceptance suite: one callable per criterion, run in order by
run_all, which `bichroma verify` and tests/test_acceptance.py both call.

Each criterion returns (ok, detail).  run_all emits one line per
criterion, named from CRITERIA and formatted by format_line, and writes
the report artifacts when given an output directory.
"""

import os
import random
import time

from .graphs import RED, BLUE, FLEX, MixedGraph, SimpleGraph
from .engine import audit_coefficients, poly_interpolated, poly_recursive
from .enumeration import (AuditSummary, exhaustive_audit, connected_graphs,
                          random_mixed_graph, records_to_csv, root_cloud,
                          write_thm24_disagreements)
from .families import (cor42_graph, cor42_poly, limit_curve_experiment,
                       limit_curve_rows, shifted_join_graph, poly_shifted_join,
                       thm45_bracket, thm45_graph, thm45_poly)
from .invariance import (admits_invariant_colouring, construct_join_colouring,
                         is_invariant_structural)
from .polynomial import IntPolynomial, evaluate_int, falling_factorial
from .roots import find_roots

DEFAULT_SEED = 20240601
RANDOM_PER_SIZE = 10_000

CRITERIA = {
    1: "engine triple agreement",
    2: "theorem 2.1",
    3: "theorem 2.2",
    4: "theorem 2.4 audit",
    5: "corollary 4.2",
    6: "theorem 4.5",
    7: "shift formula",
    8: "invariance equivalences",
    9: "synthesis",
    10: "figure reproduction",
    11: "limit curve",
    12: "root numerics",
}


def format_line(num, ok, detail):
    """The report line of one criterion result."""
    return "[%s] criterion %2d %s: %s" % ("PASS" if ok else "FAIL", num,
                                          CRITERIA[num], detail)


class SweepData:
    """Shared state for criteria 1-4 and 8: exhaustive_audit(n) for
    n = 1..5, plus one AuditSummary of the seeded random mixed graphs at
    n=5 and n=6, one random stream per size."""

    def __init__(self, seed=DEFAULT_SEED):
        t0 = time.time()
        self.exhaustive = {n: exhaustive_audit(n) for n in range(1, 6)}
        self.random = AuditSummary()
        for n in (5, 6):
            rng = random.Random(seed * 1000 + n * 100)
            for _ in range(RANDOM_PER_SIZE):
                self.random.add_mixed(random_mixed_graph(n, rng))
        self.elapsed = time.time() - t0

    def all_mixed(self, field):
        """True when field counts every instance of both mixed sweeps."""
        return all(getattr(s, field) == s.mixed_instances
                   for s in (self.exhaustive[4], self.random))


def criterion_1(sweep):
    audit4, rnd = sweep.exhaustive[4], sweep.random
    ok = audit4.mixed_instances == 4096 and sweep.all_mixed("engine_agreements")
    detail = ("%d/4096 exhaustive n=4 agree; %d random (n=5,6) with %d mismatches;"
              " %.1fs" % (audit4.engine_agreements, rnd.mixed_instances,
                          rnd.mixed_instances - rnd.engine_agreements, sweep.elapsed))
    return ok, detail


def criterion_2(sweep):
    return (sweep.all_mixed("thm21_ok"),
            "degree/monic/zero-constant on all criterion-1 instances")


def criterion_3(sweep):
    return (sweep.all_mixed("thm22_agreements"),
            "second-coefficient formula exact on all criterion-1 instances")


def criterion_4(sweep, out_dir=None):
    dis = sweep.exhaustive[4].thm24_disagreements
    # no disagreement may have a complete shadow (the proof's base case);
    # on 4 vertices the shadow is complete exactly when it has 6 edges
    complete_bad = [edges for edges, _, _ in dis if len(edges) == 6]
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
              "disagreements flagged (2K2 and C4 present: %s); %d of %d random "
              "(n=5,6) disagree" % (p4_audit.formula_third, len(dis), flagged,
                                    len(sweep.random.thm24_disagreements),
                                    sweep.random.mixed_instances))
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


def criterion_8(sweep):
    audits = sweep.exhaustive
    for n, s in audits.items():
        if s.thm32_equivalences != s.colouring_instances:
            return False, "Thm 3.2 equivalence broken at n=%d" % n
        if s.thm33_equivalences != s.colouring_instances:
            return False, "Thm 3.3 equivalence broken at n=%d" % n
    return True, ("all %d 2-edge-colourings up to symmetry, n<=5, both "
                  "equivalences 100%%" % sum(s.colouring_instances
                                               for s in audits.values()))


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

    def record(num, ok, detail):
        results.append((num, ok, detail))
        emit(format_line(num, ok, detail))

    sweep = SweepData(seed=seed)
    record(1, *criterion_1(sweep))
    record(2, *criterion_2(sweep))
    record(3, *criterion_3(sweep))
    record(4, *criterion_4(sweep, out_dir=out_dir))
    record(5, *criterion_5())
    record(6, *criterion_6())
    record(7, *criterion_7(seed=seed))
    record(8, *criterion_8(sweep))
    record(9, *criterion_9(seed=seed))
    ok10, detail10, clouds = criterion_10(out_dir=out_dir)
    record(10, ok10, detail10)
    record(11, *criterion_11())
    record(12, *criterion_12(clouds=clouds))
    if out_dir and clouds:
        mono, bi = clouds
        with open(os.path.join(out_dir, "cloud_n6_monochromatic.csv"), "w") as fh:
            fh.write(records_to_csv(mono))
        with open(os.path.join(out_dir, "cloud_n6_bichromatic.csv"), "w") as fh:
            fh.write(records_to_csv(bi))
    return results
