"""Reference computations for the benchmark's correctness checks.

Nothing here imports bichroma.  Colouring counts, bichromatic pairs,
interpolation and root verification are derived again from the
definitions, so a fault in the program cannot hide behind the same fault
in its check.  Graphs are plain (n, [(u, v, kind)]) with kind one of
"R", "B", "F"; polynomials are ascending integer coefficient sequences.

Every check_* function returns a list of error strings, empty when the
output passes.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, hypot, ulp

RESIDUAL_TOL = 1e-9
# a root of multiplicity m meets the residual tolerance anywhere within
# about RESIDUAL_TOL^(1/m) of its true place, so the sum of the roots is
# held to a looser, relative tolerance
VIETA_TOL = 1e-6


def bichromatic_pairs(n, edges):
    """Non-adjacent pairs {x, y} joined by a path x -Red- c -Blue- y."""
    adjacent = set()
    red = [[] for _ in range(n)]
    blue = [[] for _ in range(n)]
    for u, v, kind in edges:
        adjacent.add((u, v))
        adjacent.add((v, u))
        if kind == "R":
            red[u].append(v)
            red[v].append(u)
        elif kind == "B":
            blue[u].append(v)
            blue[v].append(u)
    pairs = set()
    for c in range(n):
        for x in red[c]:
            for y in blue[c]:
                if x != y and (x, y) not in adjacent:
                    pairs.add((x, y) if x < y else (y, x))
    return pairs


def is_invariant(n, edges):
    """A 2-edge-coloured graph is chromatically invariant when it has no
    induced bichromatic 2-path (no bichromatic pair) and no induced
    bichromatic 2K2: a Red and a Blue edge on four vertices with no other
    edge among them."""
    if bichromatic_pairs(n, edges):
        return False
    adjacent = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for a, b, k1 in edges:
        for c, d, k2 in edges:
            quad = {a, b, c, d}
            if k1 == "R" and k2 == "B" and len(quad) == 4:
                if len(adjacent & set(combinations(sorted(quad), 2))) == 2:
                    return False
    return True


def count_colourings(n, edges, k):
    """Brute-force count of proper k-colourings of a mixed graph.

    Vertices are coloured in order; a vertex's edges to earlier vertices
    are checked as it is placed.  Each colour pair remembers the edge kind
    it carries with a reference count, so undoing a placement is exact.
    Vertex 0 is fixed to colour 0 and the count multiplied by k, which is
    exact because the conditions are invariant under renaming colours.
    """
    if n == 0:
        return 1
    if k <= 0:
        return 0
    earlier = [[] for _ in range(n)]
    for u, v, kind in edges:
        lo, hi = min(u, v), max(u, v)
        earlier[hi].append((lo, kind))
    colour = [0] * n
    carried = {}  # colour pair -> [kind, number of edges carrying it]

    def extend(v):
        if v == n:
            return 1
        total = 0
        for c in range(k):
            placed = []
            ok = True
            for u, kind in earlier[v]:
                cu = colour[u]
                if cu == c:
                    ok = False
                    break
                if kind == "F":
                    continue
                pair = (cu, c) if cu < c else (c, cu)
                entry = carried.get(pair)
                if entry is None:
                    carried[pair] = [kind, 1]
                elif entry[0] != kind:
                    ok = False
                    break
                else:
                    entry[1] += 1
                placed.append(pair)
            if ok:
                colour[v] = c
                total += extend(v + 1)
            for pair in placed:
                entry = carried[pair]
                entry[1] -= 1
                if not entry[1]:
                    del carried[pair]
        return total

    return k * extend(1)


def interpolate(values):
    """Integer coefficients of the polynomial through (i, values[i]), by
    Lagrange's formula in exact rationals."""
    d = len(values) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for i, yi in enumerate(values):
        if not yi:
            continue
        basis = [Fraction(1)]
        denom = 1
        for j in range(d + 1):
            if j == i:
                continue
            basis = [Fraction(0)] + basis  # times x
            for t in range(len(basis) - 1):
                basis[t] -= j * basis[t + 1]
            denom *= i - j
        for t, b in enumerate(basis):
            coeffs[t] += yi * b / denom
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("values are not those of an integer polynomial")
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def brute_force_poly(n, edges):
    """Chromatic polynomial from brute-force counts at k = 0..n."""
    return interpolate([count_colourings(n, edges, k) for k in range(n + 1)])


def evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def expand_linear_power(a, e):
    """Coefficients of (x - a)^e."""
    return [comb(e, i) * (-a) ** (e - i) for i in range(e + 1)]


def add_polys(*polys):
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return out


def thm45_bracket(n):
    """(x-3)^(n-6) + 3(x-4)^(n-5) + (x-4)(x-5)^(n-5), expanded by the
    binomial theorem."""
    t1 = expand_linear_power(3, n - 6)
    t2 = [3 * c for c in expand_linear_power(4, n - 5)]
    p5 = expand_linear_power(5, n - 5)
    t3 = add_polys([0] + p5, [-4 * c for c in p5])
    return add_polys(t1, t2, t3)


def check_polynomial(coeffs, n, edges):
    """Monic of degree n, zero constant term (n >= 1), and an x^(n-1)
    coefficient of -(edges + bichromatic pairs) (Theorem 2.2)."""
    errors = []
    coeffs = list(coeffs)
    if len(coeffs) != n + 1:
        return ["degree %d, expected %d" % (len(coeffs) - 1, n)]
    if coeffs[n] != 1:
        errors.append("leading coefficient %d, expected 1" % coeffs[n])
    if n >= 1 and coeffs[0] != 0:
        errors.append("constant term %d, expected 0" % coeffs[0])
    if n >= 1:
        want = -(len(edges) + len(bichromatic_pairs(n, edges)))
        if coeffs[n - 1] != want:
            errors.append("x^%d coefficient %d, expected %d"
                          % (n - 1, coeffs[n - 1], want))
    return errors


def check_counts(coeffs, n, edges, ks):
    """P(k) equals the brute-force count for each k in ks."""
    errors = []
    for k in ks:
        got, want = evaluate(coeffs, k), count_colourings(n, edges, k)
        if got != want:
            errors.append("P(%d) = %d, brute force %d" % (k, got, want))
    return errors


def deflate(coeffs, r):
    """Exact division by (x - r); returns (quotient, remainder)."""
    quotient = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc * r
        quotient[i - 1] = acc
    return quotient, coeffs[0] + acc * r


def _scaled_value_and_slope(coeffs, re, im):
    """Exact p(z) and p'(z) at the binary point z = re + i*im, as Gaussian
    integers scaled by a power of two, and that power of two."""
    fr, fi = Fraction(re), Fraction(im)
    den = max(fr.denominator, fi.denominator)  # both powers of two
    wr, wi = int(fr * den), int(fi * den)
    d = len(coeffs) - 1
    # Horner with H = den^(d-j) h_j and G = den^(d-j-1) h_j':
    # H <- H w + c_j den^(d-j) and G <- G w + H (the old H)
    pr, pi = coeffs[d], 0
    dr, di = 0, 0
    power = 1
    for j in range(d - 1, -1, -1):
        power *= den
        dr, di = dr * wr - di * wi + pr, dr * wi + di * wr + pi
        pr, pi = pr * wr - pi * wi + coeffs[j] * power, pr * wi + pi * wr
    return (pr, pi), (dr, di), den


def root_errors(coeffs, re, im):
    """(residual, slope) of a numeric root of an integer polynomial.

    residual is |p(z)| / |lead| and slope |p'(z)| / |lead|, those of the
    monic-scaled factor, computed exactly from the binary value of z.
    residual / slope is the first-order distance to the nearest root.
    """
    d = len(coeffs) - 1
    (pr, pi), (dr, di), den = _scaled_value_and_slope(coeffs, re, im)
    lead = den ** d * coeffs[-1]
    residual = float(Fraction(pr * pr + pi * pi, lead * lead)) ** 0.5
    slope = float(Fraction((dr * dr + di * di) * den * den, lead * lead)) ** 0.5
    return residual, slope


def root_points(rootset):
    """Every root of a RootSet-like object, conjugates included, with
    multiplicity: (re, im) pairs."""
    pts = [(float(r), 0.0) for r in rootset.integer_roots]
    for v, _, m in rootset.real_roots:
        pts.extend([(v, 0.0)] * m)
    for re, im, _, m in rootset.complex_roots:
        pts.extend([(re, im)] * m + [(re, -im)] * m)
    return pts


def check_roots(coeffs, rootset, tol=RESIDUAL_TOL, passes=None):
    """A root set of an integer polynomial is whole and right.

    * total multiplicity equals the degree;
    * the integer roots are exact, with their multiplicities: deflating
      each leaves remainder zero;
    * complex roots are stored once with a positive imaginary part, the
      conjugate implied (conjugate symmetry of a real polynomial);
    * the roots sum to -a_(d-1)/a_d (Vieta), within VIETA_TOL relative;
    * each numeric root, recomputed exactly against the deflated factor,
      has residual <= tol; or, only where the factor is so ill-conditioned
      there that a one-ulp move of z changes the residual by more than
      tol (so no double-precision point can reach tol), a first-order
      distance to a root <= tol * max(1, |z|);
    * no numeric root is an integer root left undeflated.

    passes, a Counter if given, counts the numeric roots that passed by
    "residual" and by "distance".
    """
    errors = []
    coeffs = list(coeffs)
    d = len(coeffs) - 1
    if rootset.source_degree != d:
        errors.append("source degree %d, polynomial degree %d"
                      % (rootset.source_degree, d))
    pts = root_points(rootset)
    if len(pts) != d:
        errors.append("%d roots counted with multiplicity, degree %d" % (len(pts), d))
    rest = coeffs
    for r in rootset.integer_roots:
        if r != int(r) or len(rest) < 2:
            errors.append("integer root %r is not exact" % (r,))
            break
        rest, remainder = deflate(rest, int(r))
        if remainder:
            errors.append("P(%d) != 0 after deflation: %d is not a root of that multiplicity"
                          % (r, r))
            break
    for re, im, _, m in rootset.complex_roots:
        if not im > 0 or m < 1:
            errors.append("complex root %.17g%+.17gi stored without a positive imaginary part"
                          % (re, im))
    for v, _, m in rootset.real_roots:
        if m < 1 or v != v:
            errors.append("real root %r with multiplicity %d" % (v, m))
    if d >= 1 and not errors:
        total = sum(complex(re, im) for re, im in pts)
        want = -coeffs[d - 1] / coeffs[d]
        scale = max(1.0, sum(abs(complex(re, im)) for re, im in pts))
        if abs(total - want) > VIETA_TOL * scale:
            errors.append("roots sum to %r, Vieta gives %r" % (total, want))
    if errors or len(rest) < 2:
        return errors
    numeric = [(v, 0.0) for v, _, _ in rootset.real_roots]
    numeric += [(re, im) for re, im, _, _ in rootset.complex_roots]
    for re, im in numeric:
        residual, slope = root_errors(rest, re, im)
        if residual <= tol:
            passed = "residual"
        else:
            distance = residual / slope if slope else float("inf")
            one_ulp = slope * hypot(ulp(re), ulp(im))
            passed = ("distance" if one_ulp > tol
                      and distance <= tol * max(1.0, abs(complex(re, im))) else None)
            if passed is None:
                errors.append("root %.17g%+.17gi: recomputed residual %.3g, distance %.3g,"
                              " one-ulp residual change %.3g" % (re, im, residual, distance, one_ulp))
        if passes is not None and passed:
            passes[passed] += 1
        near = round(re)
        if abs(im) < 1e-6 and abs(re - near) < 1e-6 and evaluate(rest, near) == 0:
            errors.append("numeric root %r is the integer root %d" % (re, near))
    return errors
