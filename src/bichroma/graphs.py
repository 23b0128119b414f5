"""Mixed 2-edge-coloured graphs and their structural queries.

A mixed graph here is a simple graph whose edges each carry one of three
kinds: Red, Blue, or Flexible.  Flexible edges only force their endpoints
apart; Red and Blue edges additionally interact through the colour-pair
condition enforced by the colouring engines.  All values are immutable
after construction and all operations are pure.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations


class EdgeKind(Enum):
    RED = "R"
    BLUE = "B"
    FLEX = "F"


RED = EdgeKind.RED
BLUE = EdgeKind.BLUE
FLEX = EdgeKind.FLEX


class GraphError(Exception):
    """Base class for precondition violations on graph operations."""


class SameVertex(GraphError):
    pass


class AlreadyAdjacent(GraphError):
    pass


class IllegalPair(GraphError):
    pass


class ColourClash(GraphError):
    """Merging would put a Red and a Blue edge in parallel.

    Unreachable when identify()'s precondition holds; kept as a hard check.
    """


def _norm_pair(u, v):
    if u == v:
        raise SameVertex("pair (%d, %d) is a loop" % (u, v))
    return (u, v) if u < v else (v, u)


class MixedGraph:
    """Vertices 0..n-1 plus a map from unordered pairs to an EdgeKind."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        emap = {}
        items = edges.items() if isinstance(edges, dict) else edges
        for item in items:
            if isinstance(edges, dict):
                (u, v), kind = item
            else:
                u, v, kind = item
            key = _norm_pair(u, v)
            if not (0 <= key[0] and key[1] < n):
                raise ValueError("edge %s out of range for n=%d" % (key, n))
            if key in emap:
                raise ValueError("duplicate edge %s" % (key,))
            emap[key] = EdgeKind(kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", emap)

    def __setattr__(self, name, value):
        raise AttributeError("MixedGraph is immutable")

    def kind(self, u, v):
        """EdgeKind of {u,v}, or None if the pair is not adjacent."""
        return self.edges.get(_norm_pair(u, v))

    def adjacent(self, u, v):
        return _norm_pair(u, v) in self.edges

    def vertices(self):
        return range(self.n)

    def edge_list(self):
        return sorted(self.edges.items())

    def kind_counts(self):
        counts = {RED: 0, BLUE: 0, FLEX: 0}
        for kind in self.edges.values():
            counts[kind] += 1
        return counts

    def __eq__(self, other):
        return (isinstance(other, MixedGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, tuple(sorted((p, k.value) for p, k in self.edges.items()))))

    def __repr__(self):
        parts = ", ".join("%d-%d:%s" % (u, v, k.value) for (u, v), k in self.edge_list())
        return "MixedGraph(%d; %s)" % (self.n, parts)

    def __reduce__(self):
        edges = tuple((u, v, k.value) for (u, v), k in self.edge_list())
        return (MixedGraph, (self.n, edges))


@dataclass(frozen=True)
class SimpleGraph:
    """Plain loop-free graph: vertex count plus a set of unordered pairs."""

    n: int
    adjacency: frozenset

    def __post_init__(self):
        for u, v in self.adjacency:
            if not (0 <= u < v < self.n):
                raise ValueError("bad edge (%d, %d) for n=%d" % (u, v, self.n))

    @classmethod
    def from_edges(cls, n, pairs):
        return cls(n, frozenset(_norm_pair(u, v) for u, v in pairs))

    def adjacent(self, u, v):
        return _norm_pair(u, v) in self.adjacency

    def neighbours(self, v):
        out = set()
        for a, b in self.adjacency:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def edge_count(self):
        return len(self.adjacency)

    def complement(self):
        missing = [(u, v) for u, v in combinations(range(self.n), 2)
                   if (u, v) not in self.adjacency]
        return SimpleGraph.from_edges(self.n, missing)


@dataclass(frozen=True)
class StructuralCensus:
    """Edge-kind counts plus the three derived structural counts."""

    red_count: int
    blue_count: int
    flex_count: int
    ppair_count: int
    triangle_count: int
    obstruct_count: int

    def as_tuple(self):
        return (self.red_count, self.blue_count, self.flex_count,
                self.ppair_count, self.triangle_count, self.obstruct_count)


def shadow(M):
    """Underlying simple graph: every edge of M regardless of kind."""
    return SimpleGraph(M.n, frozenset(M.edges))


def bichromatic_pairs(M):
    """Pairs {x,y} non-adjacent in the shadow joined by a Red-Blue 2-path.

    Counts end-pairs, not paths: a pair with several witnessing centres
    appears once.  Non-adjacency is with respect to the shadow, so a
    Flexible edge between the ends blocks the pair.
    """
    pairs = set()
    red_nbrs = {v: set() for v in M.vertices()}
    blue_nbrs = {v: set() for v in M.vertices()}
    for (u, v), kind in M.edges.items():
        if kind is RED:
            red_nbrs[u].add(v)
            red_nbrs[v].add(u)
        elif kind is BLUE:
            blue_nbrs[u].add(v)
            blue_nbrs[v].add(u)
    for centre in M.vertices():
        for x in red_nbrs[centre]:
            for y in blue_nbrs[centre]:
                if x != y and not M.adjacent(x, y):
                    pairs.add(_norm_pair(x, y))
    return pairs


def closure_graph(M):
    """Shadow plus one edge per bichromatic end-pair."""
    return SimpleGraph(M.n, frozenset(M.edges) | frozenset(bichromatic_pairs(M)))


def obstructing_pairs(M):
    """Vertex-disjoint (Red edge, Blue edge) pairs whose four endpoints
    induce a chromatic-number-2 subgraph of the closure graph."""
    lam = closure_graph(M)
    reds = sorted(p for p, k in M.edges.items() if k is RED)
    blues = sorted(p for p, k in M.edges.items() if k is BLUE)
    out = set()
    for e in reds:
        for f in blues:
            quad = {e[0], e[1], f[0], f[1]}
            if len(quad) != 4:
                continue
            sub = [(u, v) for u, v in combinations(sorted(quad), 2) if lam.adjacent(u, v)]
            # the four endpoints always carry e and f, so chi >= 2; chi == 2
            # iff the induced subgraph is bipartite
            if _is_bipartite(sorted(quad), sub):
                out.add((e, f))
    return out


def _is_bipartite(verts, edge_pairs):
    nbrs = {v: [] for v in verts}
    for u, v in edge_pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = {}
    for start in verts:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w not in side:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def triangles(graph):
    """Induced K3 subgraphs of a SimpleGraph, as sorted vertex triples."""
    out = set()
    for u, v in graph.adjacency:
        for w in range(graph.n):
            if w != u and w != v and graph.adjacent(u, w) and graph.adjacent(v, w):
                out.add(tuple(sorted((u, v, w))))
    return out


def census(M):
    counts = M.kind_counts()
    return StructuralCensus(
        red_count=counts[RED],
        blue_count=counts[BLUE],
        flex_count=counts[FLEX],
        ppair_count=len(bichromatic_pairs(M)),
        triangle_count=len(triangles(shadow(M))),
        obstruct_count=len(obstructing_pairs(M)),
    )


def add_flexible(M, x, y):
    """M with a new Flexible edge {x,y}; the pair must be non-adjacent."""
    key = _norm_pair(x, y)
    if key in M.edges:
        raise AlreadyAdjacent("pair %s is already an edge" % (key,))
    edges = dict(M.edges)
    edges[key] = FLEX
    return MixedGraph(M.n, edges)


def identify(M, x, y):
    """Merge two vertices that are neither adjacent nor a bichromatic pair.

    The merged vertex takes min(x, y)'s slot and the remaining vertices are
    compacted order-preservingly.  Parallel edges collapse: equal kinds to
    one copy, Flexible beside a coloured edge to the coloured kind.
    """
    key = _norm_pair(x, y)
    if key in M.edges or key in bichromatic_pairs(M):
        raise IllegalPair("pair %s is adjacent or a bichromatic pair" % (key,))
    lo, hi = key

    def relabel(v):
        if v == hi:
            return lo
        return v - 1 if v > hi else v

    merged = {}
    for (u, v), kind in M.edges.items():
        a, b = relabel(u), relabel(v)
        pair = _norm_pair(a, b)
        prev = merged.get(pair)
        if prev is None or prev is kind:
            merged[pair] = kind
        elif prev is FLEX:
            merged[pair] = kind
        elif kind is FLEX:
            pass
        else:
            raise ColourClash("merging %d and %d puts %s beside %s on %s"
                              % (x, y, prev.value, kind.value, pair))
    return MixedGraph(M.n - 1, merged)


def join_factors(graph):
    """Partition of the join decomposition: connected components of the
    complement.  A single factor means the graph is not a join."""
    if graph.n < 1:
        raise ValueError("join_factors needs at least one vertex")
    comp = graph.complement()
    return _components(comp)


def _components(graph):
    seen = set()
    comps = []
    for start in range(graph.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in graph.neighbours(v):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def is_connected(graph):
    return graph.n <= 1 or len(_components(graph)) == 1


def colour_swap(M):
    swapped = {}
    for pair, kind in M.edges.items():
        if kind is RED:
            swapped[pair] = BLUE
        elif kind is BLUE:
            swapped[pair] = RED
        else:
            swapped[pair] = FLEX
    return MixedGraph(M.n, swapped)


def induced(M, subset):
    """Induced mixed subgraph on a vertex set, compacted order-preservingly."""
    keep = sorted(subset)
    index = {v: i for i, v in enumerate(keep)}
    edges = {}
    for (u, v), kind in M.edges.items():
        if u in index and v in index:
            edges[_norm_pair(index[u], index[v])] = kind
    return MixedGraph(len(keep), edges)


def from_simple(graph, kind=FLEX):
    """Mixed graph with every edge of a plain graph given one kind."""
    return MixedGraph(graph.n, [(u, v, kind) for u, v in graph.adjacency])
