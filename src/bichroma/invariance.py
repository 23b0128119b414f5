"""Chromatic-invariance classification and join-based synthesis.

A 2-edge-coloured graph (no Flexible edges) is chromatically invariant
when its polynomial equals that of its underlying graph.  The structural
test looks for the two forbidden patterns: an induced bichromatic 2-path
and an induced bichromatic 2K2.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import RED, BLUE, FLEX, MixedGraph, join_factors, shadow
from .engine import classical_chromatic, poly_partition


class HasFlexibleEdges(ValueError):
    pass


class NotAJoin(Exception):
    pass


class IsolatedVertexInSide(Exception):
    pass


@dataclass(frozen=True)
class Witness:
    kind: str       # "path" (x, centre, y) or "2k2" (4 sorted vertices)
    vertices: tuple


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    witness: Witness | None


def _require_pure(G):
    if any(k is FLEX for k in G.edges.values()):
        raise HasFlexibleEdges("operation needs a graph with no Flexible edges")


def is_invariant_structural(G):
    """Invariant iff no induced bichromatic 2-path and no induced
    bichromatic 2K2; otherwise the lexicographically least witness."""
    _require_pure(G)
    paths = []
    for centre in range(G.n):
        for x in range(G.n):
            if x == centre or G.kind(x, centre) is not RED:
                continue
            for y in range(G.n):
                if y in (centre, x) or G.kind(centre, y) is not BLUE:
                    continue
                if not G.adjacent(x, y):
                    paths.append((x, centre, y))
    if paths:
        return InvarianceReport(False, Witness("path", min(paths)))
    quads = []
    reds = [p for p, k in G.edges.items() if k is RED]
    blues = [p for p, k in G.edges.items() if k is BLUE]
    for e in reds:
        for f in blues:
            quad = {e[0], e[1], f[0], f[1]}
            if len(quad) != 4:
                continue
            others = [(u, v) for u, v in combinations(sorted(quad), 2)
                      if (u, v) != e and (u, v) != f]
            if not any(G.adjacent(u, v) for u, v in others):
                quads.append(tuple(sorted(quad)))
    if quads:
        return InvarianceReport(False, Witness("2k2", min(quads)))
    return InvarianceReport(True, None)


def is_invariant_by_polynomial(G):
    """Direct definition: polynomial of G equals that of its shadow."""
    _require_pure(G)
    return poly_partition(G) == classical_chromatic(shadow(G))


def independent_pair_witness(G):
    """Two disjoint non-empty independent sets of the shadow inducing both
    a Red and a Blue edge between them, or None.

    Searches the minimal shapes directly: one red and one blue edge whose
    endpoints split into two independent sides.  Whenever any witnessing
    pair of sets exists, a minimal one does.
    """
    _require_pure(G)
    reds = sorted(p for p, k in G.edges.items() if k is RED)
    blues = sorted(p for p, k in G.edges.items() if k is BLUE)
    candidates = []
    for e in reds:
        for f in blues:
            shared = set(e) & set(f)
            if len(shared) == 1:
                centre = shared.pop()
                a = [v for v in e if v != centre][0]
                b = [v for v in f if v != centre][0]
                if a != b and not G.adjacent(a, b):
                    candidates.append((frozenset((a, b)), frozenset((centre,))))
            elif not shared:
                (u, x), (v, y) = e, f
                for i1, i2 in (((u, v), (x, y)), ((u, y), (x, v))):
                    if not G.adjacent(*i1) and not G.adjacent(*i2):
                        candidates.append((frozenset(i1), frozenset(i2)))
    if not candidates:
        return None
    return min(candidates, key=lambda pair: (sorted(pair[0]), sorted(pair[1])))


def admits_invariant_colouring(graph):
    """Grouping of the join factors into two sides, each side's induced
    graph free of isolated vertices, or None.

    Answers whether the graph admits a non-trivial invariant colouring in
    which every vertex meets both colours.
    """
    if graph.n < 2:
        raise ValueError("needs at least two vertices")
    factors = join_factors(graph)
    k = len(factors)
    if k < 2:
        return None
    for pick in range(1, 2 ** (k - 1)):
        left = set()
        right = set()
        for i, factor in enumerate(factors):
            if pick >> i & 1:
                left |= factor
            else:
                right |= factor
        if _no_isolated(graph, left) and _no_isolated(graph, right):
            return (frozenset(left), frozenset(right))
    return None


def _no_isolated(graph, side):
    for v in side:
        if not (graph.neighbours(v) & side):
            return False
    return True


def construct_join_colouring(graph, bipartition):
    """Red on side-internal edges, Blue on joining edges.

    Requires the graph to be the join of the two sides and each side to
    have no isolated vertex; the result is invariant and every vertex
    meets both colours.
    """
    left, right = bipartition
    left, right = set(left), set(right)
    if left | right != set(range(graph.n)) or left & right:
        raise NotAJoin("bipartition does not partition the vertex set")
    for u in left:
        for v in right:
            if not graph.adjacent(u, v):
                raise NotAJoin("missing joining edge (%d, %d)" % (u, v))
    if not _no_isolated(graph, left) or not _no_isolated(graph, right):
        raise IsolatedVertexInSide("a side induces an isolated vertex")
    edges = []
    for u, v in graph.adjacency:
        crossing = (u in left) != (v in left)
        edges.append((u, v, BLUE if crossing else RED))
    return MixedGraph(graph.n, edges)
