"""Special graph families with closed-form polynomials.

Every closed form here is also realizable as a concrete MixedGraph so the
formulas can be cross-checked against the engines.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import RED, BLUE, FLEX, EdgeKind, MixedGraph
from .engine import chromatic_number, poly_recursive
from .polynomial import IntPolynomial, compose_shift, falling_factorial
from .roots import DEFAULT_TOL, find_roots


class PreconditionChiNotFull(Exception):
    pass


class TooSmall(Exception):
    pass


@dataclass(frozen=True)
class FamilySpec:
    kind: str           # mono_union | gk2 | thm45 | hshift
    params: tuple


def mono_complete(n, colour):
    """Monochromatic complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("mono_complete needs n >= 1")
    colour = EdgeKind(colour)
    return MixedGraph(n, [(u, v, colour) for u, v in combinations(range(n), 2)])


def disjoint_union(G, H):
    edges = [(u, v, k) for (u, v), k in G.edges.items()]
    edges += [(u + G.n, v + G.n, k) for (u, v), k in H.edges.items()]
    return MixedGraph(G.n + H.n, edges)


def coloured_join(G, H, colour):
    """Disjoint union plus every cross edge in the given colour."""
    colour = EdgeKind(colour)
    base = disjoint_union(G, H)
    edges = [(u, v, k) for (u, v), k in base.edges.items()]
    for u in range(G.n):
        for v in range(G.n, G.n + H.n):
            edges.append((u, v, colour))
    return MixedGraph(base.n, edges)


def gk2_graph(G):
    """G disjoint-union a red K2."""
    return disjoint_union(G, mono_complete(2, RED))


def poly_GK2(G):
    """Closed form for G union a red K2 when every colouring of G rainbows
    its vertices: falling_factorial(n) * (x^2 - x - 2|B|)."""
    if any(k is FLEX for k in G.edges.values()):
        raise PreconditionChiNotFull("G must have no Flexible edges")
    if chromatic_number(G) != G.n:
        raise PreconditionChiNotFull("chromatic number of G must equal |V(G)|")
    b = sum(1 for k in G.edges.values() if k is BLUE)
    return falling_factorial(G.n) * IntPolynomial((-2 * b, -1, 1))


def cor42_graph(n):
    """Blue K_n union red K2; its polynomial has integer roots -(n-1)..n."""
    if n < 2:
        raise TooSmall("needs n >= 2")
    return gk2_graph(mono_complete(n, BLUE))


def cor42_poly(n):
    if n < 2:
        raise TooSmall("needs n >= 2")
    return falling_factorial(n + 1) * IntPolynomial((n - 1, 1))


def shifted_join_graph(G, n, clique_colour=RED, joining_colour=BLUE):
    """Join G to a monochromatic K_n with every joining edge one colour."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return coloured_join(mono_complete(n, clique_colour), G, joining_colour)


def poly_shifted_join(G, n, clique_colour=RED, joining_colour=BLUE):
    """Polynomial of the shifted join: the clique rainbows n fresh colours
    and G keeps its own polynomial in the remaining palette.

    Accepts a MixedGraph (its polynomial is computed by the recurrence
    engine) or an already-known IntPolynomial for G.
    """
    if isinstance(G, IntPolynomial):
        base = G
    else:
        base = poly_recursive(G)
    return falling_factorial(n) * compose_shift(base, n)


def thm45_graph(n):
    """K_{2,n-2} with parts {u, v} and Y; the three lowest-indexed
    Y-vertices attach to v by Blue edges, everything else is Red.

    Vertex 0 is u, vertex 1 is v, Y is 2..n-1.
    """
    if n < 5:
        raise TooSmall("needs n >= 5")
    edges = []
    for y in range(2, n):
        edges.append((0, y, RED))
        edges.append((1, y, BLUE if y < 5 else RED))
    return MixedGraph(n, edges)


def thm45_poly(n):
    """Case sum over how many colours the three blue-attached vertices
    use; valid for all n >= 5."""
    if n < 5:
        raise TooSmall("needs n >= 5")
    t1 = falling_factorial(5) * IntPolynomial((-5, 1)) ** (n - 5)
    t2 = 3 * falling_factorial(4) * IntPolynomial((-4, 1)) ** (n - 5)
    t3 = falling_factorial(3) * IntPolynomial((-3, 1)) ** (n - 5)
    return t1 + t2 + t3


def thm45_bracket(n):
    """(x-3)^(n-6) + 3(x-4)^(n-5) + (x-4)(x-5)^(n-5); the factor whose
    roots approach the vertical line Re = 4."""
    if n < 6:
        raise TooSmall("bracket form needs n >= 6")
    xm3 = IntPolynomial((-3, 1))
    xm4 = IntPolynomial((-4, 1))
    xm5 = IntPolynomial((-5, 1))
    return xm3 ** (n - 6) + 3 * xm4 ** (n - 5) + xm4 * xm5 ** (n - 5)


def limit_curve_rows(n, roots, shift=0):
    """Rows (n, re, im, residual, distance) of the RootSet of
    thm45_bracket(n), every root moved right by shift, with its
    horizontal distance to the limiting vertical line Re = 4 + shift."""
    line = 4 + shift
    return [(n, re + shift, im, res, abs(re + shift - line))
            for re, im, res in roots.rows()]


def limit_curve_experiment(sizes, shift=0, tol=DEFAULT_TOL):
    """Roots of the complete-bipartite family's bracket factor and their
    horizontal distance to the limiting vertical line Re = 4 + shift.

    shift = 0 is the base family; shift = n adds a red K_n join, which
    translates every root (and the limit line) right by n.  Returns rows
    (size, re, im, residual, distance), conjugates written out.
    """
    return [row for n in sizes
            for row in limit_curve_rows(n, find_roots(thm45_bracket(n), tol=tol),
                                        shift)]


def hshift_graph(n, ell):
    """Red K_n joined to the n >= 5 family graph with blue joining edges."""
    return shifted_join_graph(thm45_graph(ell), n, clique_colour=RED,
                              joining_colour=BLUE)


def hshift_poly(n, ell):
    return poly_shifted_join(thm45_poly(ell), n, clique_colour=RED,
                             joining_colour=BLUE)


# parameter count of each family kind
_FAMILY_ARITY = {"mono_union": 2, "gk2": 1, "cor42": 1, "thm45": 1, "hshift": 2}


def build_family(spec):
    """FamilySpec -> (MixedGraph, closed-form IntPolynomial or None)."""
    kind, params = spec.kind, spec.params
    arity = _FAMILY_ARITY.get(kind)
    if arity is None:
        raise ValueError("unknown family kind %r" % kind)
    if len(params) != arity:
        raise ValueError("family %s takes %d parameter%s, got %d"
                         % (kind, arity, "" if arity == 1 else "s", len(params)))
    if kind == "mono_union":
        n, m = params
        graph = disjoint_union(mono_complete(n, RED), mono_complete(m, BLUE))
        return graph, None
    if kind in ("gk2", "cor42"):
        (n,) = params
        return cor42_graph(n), cor42_poly(n)
    if kind == "thm45":
        (n,) = params
        return thm45_graph(n), thm45_poly(n)
    n, ell = params
    return hshift_graph(n, ell), hshift_poly(n, ell)
