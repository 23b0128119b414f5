"""The four workloads: seeded inputs, one timed round, and the checks.

Each workload is a closed loop with one client.  A round is the
workload's fixed work, a list of calls into the program made one after
the other; run.py repeats rounds until the run's seconds are spent, and
at least MIN_ROUNDS times where a workload sets it.  A call that raises
counts as failed.  Each call is one request, whose latency is recorded:
a graph on `query`, the whole cloud on `cloud6`, the three solves on
`limit_curve`, one audit or instance on `audit`.  The checks run after
the timed phase and test the outputs against oracle.py and the paper's
properties, never against a stored copy of an earlier output.
"""

import random
from collections import Counter, defaultdict
from hashlib import sha256
from itertools import combinations
from math import comb
from time import perf_counter

import oracle

# API: the functions a workload calls itself, by layer
API = {
    "engine": ("poly_recursive", "poly_partition", "poly_interpolated",
               "audit_coefficients"),
    "graphs": ("census",),
    "roots": ("find_roots",),
    "enumeration": ("root_cloud", "records_to_csv", "exhaustive_audit"),
    "invariance": ("is_invariant_structural", "independent_pair_witness"),
}

# connected graphs on 6 vertices up to isomorphism (OEIS A001349)
CONNECTED_6 = 112
KINDS = "RBF"


def rng_for(name, seed):
    return random.Random("%s:%d" % (name, seed))


def random_edges(rng, n, m, kinds=KINDS):
    """m distinct vertex pairs of n, each given a kind drawn from kinds."""
    pairs = rng.sample(list(combinations(range(n), 2)), m)
    return [(u, v, rng.choice(kinds)) for u, v in pairs]


def call(request, *args):
    return request(*args)


def timed(api, latencies, failures, request, *args):
    """Make one call of the workload through api.call (a client span when
    tracing) and append its latency, or None and a message if it raised."""
    start = perf_counter()
    try:
        result = api.call(request, *args)
    except Exception as exc:  # a failed request is counted, not fatal
        latencies.append(None)
        failures.append("%s: %s" % (type(exc).__name__, exc))
        return None
    latencies.append(perf_counter() - start)
    return result


# -- cloud6 -------------------------------------------------------------------

class Cloud6:
    """root_cloud(6, "bichromatic", jobs=1) and its CSV: the paper's figure."""

    name = "cloud6"
    # its one call is a round of 16-28 s: a single round per run follows
    # the machine's slow phases, the better of two steadies it
    MIN_ROUNDS = 2

    def __init__(self, bichroma, seed):
        self.rng = rng_for(self.name, seed)
        self.root_passes = Counter()

    def run_round(self, api, latencies, failures):
        def request():
            records = api.root_cloud(6, "bichromatic", jobs=1)
            return records, api.records_to_csv(records)
        return timed(api, latencies, failures, request)

    def digest(self, output):
        return sha256(output[1].encode() if output else b"").hexdigest()

    def check(self, output):
        if output is None:
            return []
        records, csv = output
        errors = []
        groups = defaultdict(list)
        for rec in records:
            groups[rec.graph_key].append(rec)
        if len(groups) != CONNECTED_6:
            errors.append("%d shadows, expected %d" % (len(groups), CONNECTED_6))
        sample = set(self.rng.sample(sorted(groups), min(12, len(groups))))
        for key, recs in groups.items():
            n, edges = decode_key(key)
            m = len(edges)
            if n != 6 or sorted(r.colouring_id for r in recs) != list(range(2 ** m)):
                errors.append("%s: %d records, expected colourings 0..2^%d-1"
                              % (key, len(recs), m))
                continue
            coloured = [[(u, v, "B" if mask >> i & 1 else "R")
                         for i, (u, v) in enumerate(edges)] for mask in range(2 ** m)]
            for rec in recs:
                c = rec.polynomial.coeffs
                if len(c) != 7 or c[6] != 1 or c[0] != 0:
                    errors.append("%s/%d: %s is not monic of degree 6 with zero constant"
                                  % (key, rec.colouring_id, rec.polynomial))
            # the colourings of a shadow are only defined up to its
            # labelling, so compare multisets over the whole shadow
            got = Counter((r.polynomial.coefficient(5),
                           oracle.evaluate(r.polynomial.coeffs, 2)) for r in recs)
            want = Counter((-(m + len(oracle.bichromatic_pairs(6, e))),
                            oracle.count_colourings(6, e, 2)) for e in coloured)
            if got != want:
                errors.append("%s: x^5 coefficients or P(2) differ from brute force" % key)
            if key in sample and m <= 9:
                got3 = Counter(oracle.evaluate(r.polynomial.coeffs, 3) for r in recs)
                want3 = Counter(oracle.count_colourings(6, e, 3) for e in coloured)
                if got3 != want3:
                    errors.append("%s: P(3) differs from brute force" % key)
        seen = {}
        for rec in records:
            seen.setdefault((rec.polynomial.coeffs, rec.roots), rec)
        for (coeffs, roots), rec in seen.items():
            errors += ["%s/%d: %s" % (rec.graph_key, rec.colouring_id, e)
                       for e in oracle.check_roots(coeffs, roots, passes=self.root_passes)]
        errors += check_csv(records, csv)
        return errors


def decode_key(key):
    """A graph key "n<N>-<hex adjacency mask>" back to (n, sorted edges);
    bit i of the mask is the i-th pair of combinations(range(n), 2)."""
    head, mask = key.split("-")
    n, mask = int(head[1:]), int(mask, 16)
    pairs = list(combinations(range(n), 2))
    return n, [p for i, p in enumerate(pairs) if mask >> i & 1]


def check_csv(records, csv):
    """One header, then degree rows per record in record order, each row
    carrying that record's coefficients; non-real roots in conjugate
    pairs."""
    lines = csv.split("\n")
    if lines[-1] != "":
        return ["CSV does not end in a newline"]
    lines.pop()
    want_lines = 1 + sum(r.polynomial.degree for r in records)
    if len(lines) != want_lines:
        return ["CSV has %d lines, expected %d" % (len(lines), want_lines)]
    if not lines[0].startswith("graph_key,colouring_id,"):
        return ["CSV header %r" % lines[0]]
    errors = []
    at = 1
    for rec in records:
        deg = rec.polynomial.degree
        prefix = "%s,%d,%d,%s," % (rec.graph_key, rec.colouring_id, deg,
                                   "/".join(map(str, rec.polynomial.coeffs)))
        ims = Counter()
        for line in lines[at:at + deg]:
            if not line.startswith(prefix):
                errors.append("CSV row %r does not belong to %s/%d"
                              % (line, rec.graph_key, rec.colouring_id))
                return errors
            re, im = line[len(prefix):].split(",")[:2]
            if im.lstrip("-") != "0":
                ims[(re, im.lstrip("-"))] += -1 if im.startswith("-") else 1
        at += deg
        if any(ims.values()):
            errors.append("%s/%d: CSV roots not in conjugate pairs"
                          % (rec.graph_key, rec.colouring_id))
    return errors


# -- query --------------------------------------------------------------------

class Query:
    """Single-graph requests: poly_recursive then find_roots, as
    `bichroma roots FILE` does, on 1,008 random mixed graphs."""

    name = "query"
    SIZES = (7, 8, 9)
    DENSITIES = (0.3, 0.5, 0.75)
    PER_CELL = 112
    P3_SAMPLE = 100

    def __init__(self, bichroma, seed):
        rng = rng_for(self.name, seed)
        self.root_passes = Counter()
        cells = [(n, round(d * comb(n, 2))) for n in self.SIZES for d in self.DENSITIES]
        self.graphs = []
        for n, m in cells * self.PER_CELL:
            edges = random_edges(rng, n, m)
            self.graphs.append((n, edges, bichroma.MixedGraph(n, edges)))
        rng.shuffle(self.graphs)
        self.p3 = set(rng.sample(range(len(self.graphs)), self.P3_SAMPLE))

    def run_round(self, api, latencies, failures):
        def request(M):
            poly = api.poly_recursive(M)
            return poly, api.find_roots(poly)
        return [timed(api, latencies, failures, request, M) for _, _, M in self.graphs]

    def digest(self, output):
        return hash_items((p.coeffs, r) for p, r in filter(None, output))

    def check(self, output):
        errors = []
        for i, ((n, edges, _), result) in enumerate(zip(self.graphs, output)):
            if result is None:
                continue
            poly, roots = result
            ks = (2, 3) if i in self.p3 else (2,)
            errs = (oracle.check_polynomial(poly.coeffs, n, edges)
                    + oracle.check_counts(poly.coeffs, n, edges, ks)
                    + oracle.check_roots(poly.coeffs, roots, passes=self.root_passes))
            errors += ["request %d: %s" % (i, e) for e in errs]
        return errors


def hash_items(items):
    h = sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


# -- limit_curve --------------------------------------------------------------

class LimitCurve:
    """find_roots of the K_{2,n-2} bracket factor, whose roots approach
    the vertical line Re = 4 as n grows."""

    name = "limit_curve"
    SIZES = (20, 40, 60)

    def __init__(self, bichroma, seed):
        self.polys = [bichroma.thm45_bracket(n) for n in self.SIZES]
        self.root_passes = Counter()

    def run_round(self, api, latencies, failures):
        # one request for the three solves: a single solve of a few
        # seconds is short enough to follow one burst of the machine
        def request():
            return [api.find_roots(p) for p in self.polys]
        return timed(api, latencies, failures, request)

    def digest(self, output):
        return hash_items(output or [])

    def check(self, output):
        if output is None:
            return []
        errors = []
        points = {}
        for n, poly, roots in zip(self.SIZES, self.polys, output):
            if list(poly.coeffs) != oracle.thm45_bracket(n):
                errors.append("thm45_bracket(%d) differs from its binomial expansion" % n)
            errors += ["n=%d: %s" % (n, e) for e in
                       oracle.check_roots(poly.coeffs, roots, passes=self.root_passes)]
            points[n] = oracle.root_points(roots)
        return errors + limit_curve_properties(points)


def limit_curve_properties(points):
    """The paper's limit-curve behaviour, from {n: [(re, im), ...]}: at
    n = 40 a root lies within 0.15 of Re = 4 with |Im| > 2, and the
    largest |Im| grows from n = 20 to n = 60."""
    errors = []
    if 40 in points and not any(abs(re - 4) < 0.15 and abs(im) > 2
                                for re, im in points[40]):
        errors.append("n=40: no root within 0.15 of Re=4 with |Im| > 2")
    if 20 in points and 60 in points:
        im20 = max(abs(im) for _, im in points[20])
        im60 = max(abs(im) for _, im in points[60])
        if not im60 > im20:
            errors.append("max |Im| does not grow from n=20 (%.3g) to n=60 (%.3g)"
                          % (im20, im60))
    return errors


# -- audit --------------------------------------------------------------------

class Audit:
    """exhaustive_audit(4) and (5), then seeded random instances: each
    instance runs the three engines, the census and the coefficient audit
    on a mixed graph, and the invariance tests on the same shadow with
    its Flexible edges recoloured Red or Blue."""

    name = "audit"
    SIZES = (5, 6)
    PER_SIZE = 400
    DENSITIES = (0.3, 0.5, 0.75)
    BRUTE_SAMPLE = 30

    def __init__(self, bichroma, seed):
        rng = rng_for(self.name, seed)
        self.instances = []
        for n in self.SIZES:
            for i in range(self.PER_SIZE):
                edges = random_edges(rng, n, round(self.DENSITIES[i % 3] * comb(n, 2)))
                pure = [(u, v, rng.choice("RB") if k == "F" else k) for u, v, k in edges]
                self.instances.append((n, edges, bichroma.MixedGraph(n, edges),
                                       pure, bichroma.MixedGraph(n, pure)))
        self.brute = set(rng.sample(range(len(self.instances)), self.BRUTE_SAMPLE))

    def run_round(self, api, latencies, failures):
        def instance(M, pure):
            # `bichroma poly` with each engine, `bichroma coeffs`, then
            # `bichroma invariant` on the 2-edge-coloured graph
            polys = (api.poly_interpolated(M), api.poly_recursive(M),
                     api.poly_partition(M))
            return (polys, api.census(M), api.audit_coefficients(M),
                    api.is_invariant_structural(pure), api.independent_pair_witness(pure))

        summaries = [timed(api, latencies, failures, api.exhaustive_audit, n) for n in (4, 5)]
        results = [timed(api, latencies, failures, instance, M, P)
                   for _, _, M, _, P in self.instances]
        return summaries, results

    def digest(self, output):
        summaries, results = output
        return hash_items([[vars(s) for s in summaries if s],
                           [(tuple(p.coeffs for p in r[0]),) + r[1:] for r in results if r]])

    def check(self, output):
        summaries, results = output
        errors = []
        for n, s in zip((4, 5), summaries):
            if s is not None:
                errors += ["exhaustive_audit(%d): %s" % (n, e) for e in check_summary(n, s)]
        for i, ((n, edges, _, pure, _), result) in enumerate(zip(self.instances, results)):
            if result is not None:
                polys, census, audit, report, pair = result
                errs = (check_instance(n, edges, polys, census, audit, i in self.brute)
                        + check_invariance(n, pure, report, pair))
                errors += ["instance %d: %s" % (i, e) for e in errs]
        return errors


def check_summary(n, s):
    """Every count of an exhaustive audit is complete, and every
    third-coefficient disagreement differs from brute force."""
    errors = []
    if n <= 4:
        total = 4 ** comb(n, 2)
        if s.mixed_instances != total:
            errors.append("%d labelled mixed graphs, expected 4^%d" % (s.mixed_instances, comb(n, 2)))
        for field in ("engine_agreements", "thm21_ok", "thm22_agreements"):
            if getattr(s, field) != total:
                errors.append("%s = %d of %d" % (field, getattr(s, field), total))
        if s.thm24_agreements + len(s.thm24_disagreements) != total:
            errors.append("third-coefficient agreements and disagreements do not add up")
        witnesses = set()
        for edges, formula, truth in s.thm24_disagreements:
            true_third = oracle.brute_force_poly(n, edges)[n - 2]
            if truth != true_third or formula == true_third:
                errors.append("disagreement %s: formula %d, reported %d, brute force %d"
                              % (edges, formula, truth, true_third))
            witnesses.add(witness_shape(n, edges, formula, truth))
        for shape in ("2K2", "C4"):
            if shape not in witnesses:
                errors.append("the %s witness is not among the disagreements" % shape)
    if not s.colouring_instances:
        errors.append("no 2-edge-colourings swept")
    for field in ("thm32_equivalences", "thm33_equivalences"):
        if getattr(s, field) != s.colouring_instances:
            errors.append("%s = %d of %d" % (field, getattr(s, field), s.colouring_instances))
    return errors


def witness_shape(n, edges, formula, truth):
    """Name the paper's two known third-coefficient witnesses, or None:
    the bichromatic 2K2 (formula 0, truth -1), and the 4-cycle with two
    Red and two Blue edges whose one bichromatic pair has two witnessing
    centres (formula 9, truth 8)."""
    kinds = sorted(k for _, _, k in edges)
    degrees = Counter(v for u, w, _ in edges for v in (u, w))
    if (formula, truth) == (0, -1) and kinds == ["B", "R"] and len(degrees) == 4:
        return "2K2"
    if ((formula, truth) == (9, 8) and kinds == ["B", "B", "R", "R"]
            and sorted(degrees.values()) == [2, 2, 2, 2]
            and len(oracle.bichromatic_pairs(n, edges)) == 1):
        return "C4"
    return None


def check_instance(n, edges, polys, census, audit, brute):
    """Three engines agree; the polynomial passes the oracle; the census
    and the coefficient audit report what the oracle counts."""
    errors = []
    p_int, p_rec, p_par = polys
    if not p_int == p_rec == p_par:
        errors.append("engines disagree: %s / %s / %s" % (p_int, p_rec, p_par))
    coeffs = p_int.coeffs
    errors += oracle.check_polynomial(coeffs, n, edges)
    errors += oracle.check_counts(coeffs, n, edges, (2, 3) if brute else (2,))
    if brute and list(coeffs) != oracle.brute_force_poly(n, edges):
        errors.append("%s differs from the brute-force polynomial" % p_int)
    kinds = Counter(k for _, _, k in edges)
    pairs = len(oracle.bichromatic_pairs(n, edges))
    if ((census.red_count, census.blue_count, census.flex_count, census.ppair_count)
            != (kinds["R"], kinds["B"], kinds["F"], pairs)):
        errors.append("census %s, expected R/B/F/pairs %d/%d/%d/%d"
                      % (census.as_tuple(), kinds["R"], kinds["B"], kinds["F"], pairs))
    if audit.formula_second != -(len(edges) + pairs):
        errors.append("second-coefficient formula %d, expected %d"
                      % (audit.formula_second, -(len(edges) + pairs)))
    if (audit.true_second, audit.true_third) != (coeffs[n - 1], coeffs[n - 2]):
        errors.append("audit truth %d/%d, polynomial %d/%d"
                      % (audit.true_second, audit.true_third, coeffs[n - 1], coeffs[n - 2]))
    if (audit.formula_third == coeffs[n - 2]) != audit.agrees_third:
        errors.append("third-coefficient verdict contradicts its own values")
    return errors


def check_invariance(n, edges, report, pair):
    """The structural verdict matches the definitions; an independent-pair
    witness is two disjoint independent sets carrying a Red and a Blue
    edge between them, and exists exactly when the graph is not invariant
    (Theorem 3.3); an invariant graph counts like its shadow."""
    errors = []
    invariant = oracle.is_invariant(n, edges)
    if report.invariant != invariant:
        errors.append("structural verdict %s, definitions give %s" % (report.invariant, invariant))
    if (pair is None) != invariant:
        errors.append("independent-pair witness %s for a graph that is %sinvariant"
                      % (pair, "" if invariant else "not "))
    if pair is not None:
        left, right = (set(side) for side in pair)
        kind = {(min(u, v), max(u, v)): k for u, v, k in edges}
        inside = [kind.get((min(p, q), max(p, q))) for side in (left, right)
                  for p, q in combinations(side, 2)]
        across = {kind.get((min(p, q), max(p, q))) for p in left for q in right}
        if not left or not right or left & right or any(inside) or not {"R", "B"} <= across:
            errors.append("%s is not an independent-pair witness" % (pair,))
    if invariant:
        flexible = [(u, v, "F") for u, v, _ in edges]
        for k in (2, 3):
            if oracle.count_colourings(n, edges, k) != oracle.count_colourings(n, flexible, k):
                errors.append("invariant, yet P(%d) differs from its shadow's" % k)
    return errors


WORKLOADS = {w.name: w for w in (Cloud6, Query, LimitCurve, Audit)}
