"""The chromatic polynomial of a mixed graph, three independent ways, plus
the coefficient closed forms and their audit harness.

P(M) is the sum, over the partitions of V(M) into blocks independent in
the shadow with no block pair carrying both a Red and a Blue edge, of the
falling factorial (x)_k of the block count k.

* poly_partition -- the production engine: a search over the shadow's
  partitions into independent blocks, pruned as each vertex is placed,
  with the Red/Blue pair check per partition.  colouring_polynomials runs
  the same search once per shadow and tests all 2^m Red/Blue colourings
  of its edges at once; classical_chromatic is the all-Flexible case.
* poly_recursive -- oracle: the add-edge / identify recurrence
  P(M) = P(M + xy) + P(M / xy) with the complete base case, run on three
  int bitmasks per vertex (shadow, Red and Blue neighbours) and counting
  its leaves by vertex count.  It walks its own recursion tree, not the
  partition search, so its agreement with poly_partition is evidence.
* poly_interpolated -- oracle: brute-force colouring counts interpolated
  exactly; the desk-scale ground truth.  One vectorised pass over the
  colour assignments (see _colouring_counts) also serves count_colourings
  and chromatic_number; it raises TooLarge beyond 4,000,000 assignments,
  which admits up to 8 vertices at palette n.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import (RED, BLUE, FLEX, ColourClash, bichromatic_pairs, census,
                     from_simple)
from .polynomial import falling_factorial, falling_factorial_sum, interpolate

# the brute-force pass refuses more colour assignments than this
_BRUTE_FORCE_LIMIT = 4_000_000


class TooLarge(Exception):
    """A computation would exceed one of its documented size bounds."""


def _colouring_counts(M, palette):
    """[c_0, ..., c_palette], where c_k is the number of k-colourings of M.

    A colouring is proper on every edge of the shadow, and no unordered
    colour pair may carry both a Red and a Blue edge.  One vectorised pass
    enumerates the palette^(n-1) assignments that give vertex 0 colour 0.
    Both conditions survive any permutation of the colours, so the
    k-colourings split evenly by the colour of vertex 0, and c_k is k
    times the valid assignments whose largest colour is below k.  One
    histogram of each valid assignment's largest colour gives every c_k.
    """
    n = M.n
    size = palette ** (n - 1) if n else 1
    # the palette bounds the histogram and the returned list too
    if max(size, palette) > _BRUTE_FORCE_LIMIT:
        raise TooLarge("brute-force counting is capped at %d colour assignments"
                       " and colours; %d vertices with %d colours need %d"
                       " assignments" % (_BRUTE_FORCE_LIMIT, n, palette, size))
    if n == 0:
        return [1] * (palette + 1)
    # grid[v - 1] holds the colour of vertex v in each assignment
    grid = np.indices((palette,) * (n - 1), dtype=np.min_scalar_type(palette))
    grid = grid.reshape(n - 1, size)

    def colour(v):
        return grid[v - 1] if v else 0

    ok = np.ones(size, dtype=bool)
    red, blue = [], []
    for (u, v), kind in M.edges.items():
        ok &= colour(u) != colour(v)
        if kind is RED:
            red.append((u, v))
        elif kind is BLUE:
            blue.append((u, v))
    grid = grid[:, ok]
    if red and blue:
        # colour pair {a, b}, a < b, coded a * palette + b; a Red and a
        # Blue edge need three vertices, so palette <= 2000 and int32 fits
        def codes(edges):
            return np.stack([np.minimum(colour(u), colour(v)).astype(np.int32)
                             * palette + np.maximum(colour(u), colour(v))
                             for u, v in edges])
        red_codes = codes(red)
        clash = np.zeros(grid.shape[1], dtype=bool)
        for row in codes(blue):
            clash |= (red_codes == row).any(axis=0)
        grid = grid[:, ~clash]
    largest = grid.max(axis=0, initial=0)
    below = np.cumsum(np.bincount(largest, minlength=palette)[:palette])
    return [0] + [k * int(below[k - 1]) for k in range(1, palette + 1)]


def count_colourings(M, k):
    """Number of k-colourings of M by exhaustive enumeration; raises
    TooLarge beyond 4,000,000 assignments (k^(n-1)) or colours."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _colouring_counts(M, k)[k]


def poly_interpolated(M):
    """Ground-truth polynomial: counts at k = 0..n, interpolated exactly."""
    return interpolate(_colouring_counts(M, M.n))


def poly_recursive(M):
    """Add-edge / identify recurrence: P(M) = P(M + xy) + P(M / xy) over a
    pair {x, y} that is neither adjacent nor bichromatic.

    When every vertex pair is adjacent or a bichromatic pair, each vertex
    is forced its own colour and the polynomial is the falling factorial
    (x)_n.  The recursion runs on vertex bitmasks (see _split) and counts
    its leaves by vertex count; the polynomial is assembled once at the
    end.  It shares no code with the partition search, so it stays an
    independent check on poly_partition.
    """
    n = M.n
    nbrs, red, blue = [0] * n, [0] * n, [0] * n
    for (u, v), kind in M.edges.items():
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
        if kind is RED:
            red[u] |= 1 << v
            red[v] |= 1 << u
        elif kind is BLUE:
            blue[u] |= 1 << v
            blue[v] |= 1 << u
    counts = [0] * (n + 1)
    _split(nbrs, red, blue, counts)
    return falling_factorial_sum(counts)


def _split(nbrs, red, blue, counts):
    """Add to counts[k] the leaves with k vertices of the recursion tree
    below the graph whose vertex v has shadow, Red and Blue neighbour
    masks nbrs[v], red[v] and blue[v].

    The split pair is the first {u, v}, u < v, that is legal (not
    adjacent, and no Red neighbour of one end a Blue neighbour of the
    other) and has the most common shadow neighbours: identifying it
    removes the most parallel edges, speeding saturation.  Adding the
    edge sets two bits.  Identifying y into x ORs their rows, moves each
    neighbour's bit y to x, then drops bit y from every mask, shifting
    the higher bits down so the vertices stay numbered 0..n-2 in order.
    A Flexible edge beside a coloured one takes the coloured kind.
    """
    n = len(nbrs)
    pair, best = None, -1
    for u in range(n):
        nu, ru, bu = nbrs[u], red[u], blue[u]
        later = ~nu & ((1 << n) - (2 << u))  # non-neighbours v > u
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            if ru & blue[v] or bu & red[v]:
                continue
            score = (nu & nbrs[v]).bit_count()
            if score > best:
                pair, best = (u, v), score
    if pair is None:
        counts[n] += 1
        return
    x, y = pair
    added = nbrs.copy()
    added[x] |= 1 << y
    added[y] |= 1 << x
    _split(added, red, blue, counts)
    merged_red = _identify_rows(red, x, y)
    merged_blue = _identify_rows(blue, x, y)
    if merged_red[x] & merged_blue[x]:
        raise ColourClash("merging %d and %d puts a Red edge beside a Blue"
                          " one" % (x, y))
    _split(_identify_rows(nbrs, x, y), merged_red, merged_blue, counts)


def _identify_rows(rows, x, y):
    """The masks rows with vertex y merged into vertex x < y."""
    low = (1 << y) - 1
    high = ~low
    bit_x = 1 << x
    merged = rows[x] | rows[y]
    out = []
    for v, m in enumerate(rows):
        if v == x:
            m = merged
        elif v == y:
            continue
        elif m >> y & 1:
            m |= bit_x
        out.append(m & low | m >> 1 & high)
    return out


def independent_partitions(n, edges):
    """Every partition of 0..n-1 into blocks independent in the plain
    graph with the given edges, as (block, k): block[v] is the index of
    v's block, blocks numbered in order of their least vertex, and k is
    the block count.

    Vertices are placed in order; a block is skipped as soon as one of
    the vertex's lower neighbours lies in it.  The block list is reused
    between yields: copy it to keep it.
    """
    lower = [[] for _ in range(n)]
    for u, v in edges:
        lower[max(u, v)].append(min(u, v))
    block = [0] * n

    def place(v, k):
        if v == n:
            yield block, k
            return
        taken = {block[u] for u in lower[v]}
        for b in range(k):
            if b not in taken:
                block[v] = b
                yield from place(v + 1, k)
        block[v] = k
        yield from place(v + 1, k + 1)

    return place(0, 0)


def poly_partition(M):
    """Sum over valid partitions weighted by falling factorials.

    A partition is valid when every block is independent in the shadow and
    no two blocks carry both a Red and a Blue edge between them.
    """
    coloured = [(u, v, kind) for (u, v), kind in M.edges.items()
                if kind is not FLEX]
    counts = [0] * (M.n + 1)  # counts[k] = valid partitions into k blocks
    for block, k in independent_partitions(M.n, M.edges):
        pair_kind = {}
        for u, v, kind in coloured:
            bu, bv = block[u], block[v]
            code = (bu, bv) if bu < bv else (bv, bu)
            seen = pair_kind.setdefault(code, kind)
            if seen is not kind:
                break
        else:
            counts[k] += 1
    return falling_factorial_sum(counts)


_BATCH_MAX_N = 13  # Bell(n) * n! < 2**63


def colouring_polynomials(graph):
    """Chromatic polynomials of all 2^m Red/Blue colourings of a plain
    graph with m edges, as an int64 array of shape (2^m, n + 1) holding
    ascending coefficients.

    Row `mask` is the colouring whose Blue edges are the set bits of mask
    over the edges in sorted order, which is colourings_of's numbering.
    One search over the shadow's independent partitions serves every
    colouring: a partition is valid for a mask iff the edges between each
    pair of its blocks are all Red or all Blue, a test made for all masks
    at once.  Counts are at most Bell(n) and the falling-factorial
    coefficients at most n! in size, so int64 is exact for n <= 13.
    """
    n = graph.n
    if n > _BATCH_MAX_N:
        raise ValueError("colouring_polynomials is exact for n <= %d only"
                         % _BATCH_MAX_N)
    edges = sorted(graph.adjacency)
    masks = np.arange(1 << len(edges), dtype=np.int64)
    counts = np.zeros((n + 1, len(masks)), dtype=np.int64)
    for block, k in independent_partitions(n, edges):
        groups = {}
        for i, (u, v) in enumerate(edges):
            bu, bv = block[u], block[v]
            code = (bu, bv) if bu < bv else (bv, bu)
            groups[code] = groups.get(code, 0) | 1 << i
        valid = None
        for bits in groups.values():
            if bits & (bits - 1):  # two or more edges between the blocks
                blue = masks & bits
                mono = (blue == 0) | (blue == bits)
                valid = mono if valid is None else valid & mono
        counts[k] += 1 if valid is None else valid
    factorials = np.zeros((n + 1, n + 1), dtype=np.int64)
    for k in range(n + 1):
        coeffs = falling_factorial(k).coeffs
        factorials[k, :len(coeffs)] = coeffs
    return counts.T @ factorials


def chromatic_number(M):
    """Least k admitting a colouring; 0 for the empty graph.

    Never exceeds n: an injective assignment always satisfies both
    colouring conditions.
    """
    if M.n == 0:
        return 0
    counts = _colouring_counts(M, M.n)
    return next(k for k, c in enumerate(counts) if c)


def classical_chromatic(graph):
    """Ordinary chromatic polynomial of a plain graph: with every edge
    Flexible there is no colour-pair condition."""
    return poly_partition(from_simple(graph))


def coeff_formula_second(M):
    """Closed form for the coefficient of lambda^(n-1)."""
    if M.n < 1:
        raise ValueError("needs at least one vertex")
    return -(len(M.edges) + len(bichromatic_pairs(M)))


def coeff_formula_third(M):
    """Asserted closed form for the coefficient of lambda^(n-2).

    Implemented verbatim; NOT guaranteed ground truth.  Known to disagree
    with the true coefficient on some instances (e.g. the bichromatic
    2K2); see audit_coefficients.
    """
    if M.n < 2:
        raise ValueError("needs at least two vertices")
    c = census(M)
    m = c.red_count + c.blue_count + c.ppair_count + c.flex_count
    return comb(m, 2) - c.triangle_count - c.ppair_count - c.obstruct_count


@dataclass(frozen=True)
class CoefficientAudit:
    formula_second: int
    true_second: int
    formula_third: int
    true_third: int

    @property
    def agrees_second(self):
        return self.formula_second == self.true_second

    @property
    def agrees_third(self):
        return self.formula_third == self.true_third


def audit_coefficients(M, poly=None):
    """Compare both closed forms against an engine-computed polynomial:
    poly if given, else poly_partition(M)."""
    if M.n < 2:
        raise ValueError("needs at least two vertices")
    if poly is None:
        poly = poly_partition(M)
    return CoefficientAudit(
        formula_second=coeff_formula_second(M),
        true_second=poly.coefficient(M.n - 1),
        formula_third=coeff_formula_third(M),
        true_third=poly.coefficient(M.n - 2),
    )
