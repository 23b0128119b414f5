"""Exhaustive small-graph generation and the sweep drivers.

Canonical labelling is brute force: the canonical form of a graph is the
minimum adjacency bitstring over all vertex permutations, vectorized with
a precomputed permutation/edge-index table.  Viable through n = 7.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations, product

import numpy as np

from .graphs import RED, BLUE, FLEX, MixedGraph, SimpleGraph, is_connected
from .engine import (TooLarge, audit_coefficients, classical_chromatic,
                     colouring_polynomials, poly_interpolated, poly_partition,
                     poly_recursive)
from .invariance import independent_pair_witness, is_invariant_structural
from .polynomial import IntPolynomial
from .roots import find_roots

MAX_ENUM_N = 7


def _pairs(n):
    return list(combinations(range(n), 2))


_perm_tables = {}


def _perm_table(n):
    """2**edge-index weights after applying each permutation; shape
    (n!, C(n,2)) int64."""
    table = _perm_tables.get(n)
    if table is None:
        pairs = _pairs(n)
        index = {p: i for i, p in enumerate(pairs)}
        perms = list(permutations(range(n)))
        pow_ = np.zeros((len(perms), len(pairs)), dtype=np.int64)
        for pi, perm in enumerate(perms):
            for e, (u, v) in enumerate(pairs):
                a, b = perm[u], perm[v]
                pow_[pi, e] = 1 << index[(a, b) if a < b else (b, a)]
        table = (perms, pow_)
        _perm_tables[n] = table
    return table


def _mask_of(n, adjacency):
    pairs = _pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    mask = 0
    for p in adjacency:
        mask |= 1 << index[p]
    return mask


def canonical_mask(n, mask):
    """Minimum adjacency bitstring over all vertex permutations."""
    if n <= 1:
        return 0
    _, pow_ = _perm_table(n)
    bits = [i for i in range(pow_.shape[1]) if mask >> i & 1]
    if not bits:
        return 0
    vals = pow_[:, bits].sum(axis=1)
    return int(vals.min())


def graph_key(graph):
    """Canonical string key, identical across isomorphic plain graphs."""
    return "n%d-%x" % (graph.n, canonical_mask(graph.n, _mask_of(graph.n, graph.adjacency)))


def automorphisms(graph):
    """Vertex permutations preserving the adjacency set."""
    n = graph.n
    if n == 0:
        return [()]
    perms, pow_ = _perm_table(n)
    mask = _mask_of(n, graph.adjacency)
    bits = [i for i in range(pow_.shape[1]) if mask >> i & 1]
    if not bits:
        return list(perms)
    vals = pow_[:, bits].sum(axis=1)
    return [perms[i] for i in np.flatnonzero(vals == mask)]


_all_graphs_cache = {}


def all_graphs(n):
    """All graphs on n vertices up to isomorphism, by vertex augmentation."""
    if n > MAX_ENUM_N:
        raise TooLarge("enumeration capped at n = %d" % MAX_ENUM_N)
    if n in _all_graphs_cache:
        return _all_graphs_cache[n]
    if n == 0:
        grs = [SimpleGraph.from_edges(0, [])]
    elif n == 1:
        grs = [SimpleGraph.from_edges(1, [])]
    else:
        grs = []
        seen = set()
        for smaller in all_graphs(n - 1):
            base = list(smaller.adjacency)
            for nbrs in range(2 ** (n - 1)):
                edges = base + [(i, n - 1) for i in range(n - 1) if nbrs >> i & 1]
                key = canonical_mask(n, _mask_of(n, edges))
                if key not in seen:
                    seen.add(key)
                    grs.append(SimpleGraph.from_edges(n, edges))
        grs.sort(key=lambda g: (g.edge_count(), sorted(g.adjacency)))
    _all_graphs_cache[n] = grs
    return grs


def connected_graphs(n):
    """All connected graphs on n >= 1 vertices up to isomorphism."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return [g for g in all_graphs(n) if is_connected(g)]


def colourings_of(graph, dedup=False):
    """All Red/Blue assignments to the edges of a plain graph.

    With dedup, one representative per orbit under the automorphism group
    combined with the global colour swap.
    """
    edges = sorted(graph.adjacency)
    m = len(edges)
    if dedup:
        index = {p: i for i, p in enumerate(edges)}
        auts = automorphisms(graph)
        edge_perms = []
        for perm in auts:
            mapped = []
            for u, v in edges:
                a, b = perm[u], perm[v]
                mapped.append(index[(a, b) if a < b else (b, a)])
            edge_perms.append(mapped)
    full = (1 << m) - 1
    for colour_mask in range(1 << m):
        if dedup:
            best = colour_mask
            for mapped in edge_perms:
                img = 0
                for i in range(m):
                    if colour_mask >> i & 1:
                        img |= 1 << mapped[i]
                best = min(best, img, img ^ full)
            if best != colour_mask:
                continue
        yield MixedGraph(graph.n, [
            (u, v, BLUE if colour_mask >> i & 1 else RED)
            for i, (u, v) in enumerate(edges)])


@dataclass(frozen=True)
class EnumerationRecord:
    graph_key: str
    colouring_id: int
    polynomial: IntPolynomial
    roots: object  # RootSet


def root_cloud(n, universe="bichromatic", jobs=1):
    """Polynomials and roots of every colouring of every connected
    n-vertex graph (or the plain chromatic polynomials for the
    monochromatic universe).  Deterministically ordered.

    Each shadow's colourings come from one colouring_polynomials batch,
    and each distinct polynomial is built and solved once: records with
    equal polynomials share the same IntPolynomial and RootSet objects.
    jobs is accepted for compatibility and must be at least 1; the cloud
    is always built in this process.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if n > 6:
        raise TooLarge("root cloud capped at n = 6")
    universe = universe.lower()
    if universe not in ("bichromatic", "monochromatic"):
        raise ValueError("universe must be bichromatic or monochromatic")
    solved = {}  # coefficient tuple -> (IntPolynomial, RootSet)
    records = []
    for graph in connected_graphs(n):
        key = graph_key(graph)
        if universe == "monochromatic":
            rows = [classical_chromatic(graph).coeffs]
        else:
            rows = colouring_polynomials(graph).tolist()
        for cid, row in enumerate(rows):
            coeffs = tuple(row)
            entry = solved.get(coeffs)
            if entry is None:
                poly = IntPolynomial(coeffs)
                entry = solved[coeffs] = (poly, find_roots(poly))
            records.append(EnumerationRecord(key, cid, *entry))
    records.sort(key=lambda r: (r.graph_key, r.colouring_id))
    return records


CSV_HEADER = "graph_key,colouring_id,degree,coeffs,re,im,residual"


def records_to_csv(records):
    """One row per root, conjugates written out; byte-stable ordering.

    The rows of a (polynomial, roots) pair are formatted once and each
    record adds its own graph_key,colouring_id prefix.  Pairs are keyed
    by object identity, which costs nothing for root_cloud's shared
    objects; equal but distinct objects are merely formatted again.
    """
    lines = [CSV_HEADER]
    tails = {}
    for rec in records:
        ident = (id(rec.polynomial), id(rec.roots))
        tail = tails.get(ident)
        if tail is None:
            head = "%d,%s," % (rec.polynomial.degree,
                               "/".join(str(c) for c in rec.polynomial.coeffs))
            tail = tails[ident] = [head + "%.12g,%.12g,%.3g" % row
                                   for row in rec.roots.rows()]
        prefix = "%s,%d," % (rec.graph_key, rec.colouring_id)
        lines.extend([prefix + row for row in tail])
    return "\n".join(lines) + "\n"


def random_mixed_graph(n, rng):
    """Each pair independently absent/Red/Blue/Flexible with probabilities
    0.4/0.2/0.2/0.2."""
    edges = []
    for u, v in combinations(range(n), 2):
        r = rng.random()
        if r < 0.4:
            continue
        kind = RED if r < 0.6 else BLUE if r < 0.8 else FLEX
        edges.append((u, v, kind))
    return MixedGraph(n, edges)


def all_labelled_mixed(n):
    """Every labelled mixed graph on n vertices (4 choices per pair)."""
    pairs = _pairs(n)
    for kinds in product((None, RED, BLUE, FLEX), repeat=len(pairs)):
        yield MixedGraph(n, [(u, v, k) for (u, v), k in zip(pairs, kinds)
                             if k is not None])


@dataclass
class AuditSummary:
    n: int
    mixed_instances: int = 0
    engine_agreements: int = 0
    thm21_ok: int = 0
    thm22_agreements: int = 0
    thm24_agreements: int = 0
    thm24_disagreements: list = field(default_factory=list)
    colouring_instances: int = 0
    thm32_equivalences: int = 0
    thm33_equivalences: int = 0

    def clean_except_thm24(self):
        """True when every audited property holds apart from the known
        third-coefficient formula failures."""
        return (self.engine_agreements == self.mixed_instances
                and self.thm21_ok == self.mixed_instances
                and self.thm22_agreements == self.mixed_instances
                and self.thm32_equivalences == self.colouring_instances
                and self.thm33_equivalences == self.colouring_instances)


def write_thm24_disagreements(path, disagreements):
    """Write AuditSummary.thm24_disagreements to path as CSV rows
    edges,formula_value,true_value, each edge as u-v-kind joined by ';'."""
    with open(path, "w") as fh:
        fh.write("edges,formula_value,true_value\n")
        for edges, formula, true in disagreements:
            enc = ";".join("%d-%d-%s" % e for e in edges)
            fh.write("%s,%d,%d\n" % (enc, formula, true))


def exhaustive_audit(n, include_mixed=None):
    """Engine agreement and theorem audits over the full universe.

    Labelled mixed exhaustion runs for n <= 4, the 2-edge-colouring
    invariance sweep for n <= 5.  Theorem 2.4 disagreements are collected
    as witnesses, not failures: the formula is implemented verbatim and is
    known not to hold in general.
    """
    if n > 5:
        raise TooLarge("exhaustive audit capped at n = 5")
    summary = AuditSummary(n=n)
    if include_mixed is None:
        include_mixed = n <= 4
    if include_mixed and n > 4:
        raise TooLarge("labelled mixed exhaustion capped at n = 4")
    if include_mixed:
        for M in all_labelled_mixed(n):
            summary.mixed_instances += 1
            p_int = poly_interpolated(M)
            p_rec = poly_recursive(M)
            p_par = poly_partition(M)
            if p_int == p_rec == p_par:
                summary.engine_agreements += 1
            if (p_int.degree == n and p_int.coefficient(n) == 1
                    and p_int.coefficient(0) == 0):
                summary.thm21_ok += 1
            if n >= 2:
                audit = audit_coefficients(M, poly=p_int)
                if audit.agrees_second:
                    summary.thm22_agreements += 1
                if audit.agrees_third:
                    summary.thm24_agreements += 1
                else:
                    edges = tuple((u, v, k.value) for (u, v), k in M.edge_list())
                    summary.thm24_disagreements.append(
                        (edges, audit.formula_third, audit.true_third))
            else:
                summary.thm22_agreements += 1
                summary.thm24_agreements += 1
    for graph in all_graphs(n):
        gamma_poly = classical_chromatic(graph)
        for M in colourings_of(graph, dedup=True):
            summary.colouring_instances += 1
            structural = is_invariant_structural(M).invariant
            by_poly = poly_partition(M) == gamma_poly
            if structural == by_poly:
                summary.thm32_equivalences += 1
            witness = independent_pair_witness(M)
            if (witness is None) == structural:
                summary.thm33_equivalences += 1
    return summary
