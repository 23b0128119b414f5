"""Root location for exact integer polynomials.

Integer roots are split off exactly, with no numerics.  Zero roots come
first.  Every other integer root divides the trailing coefficient a0
(rational root theorem) and lies inside the root radius R, the smaller
of Cauchy's and Fujiwara's bounds.  So the divisors c <= R of |a0|,
found by trial division up to min(R, isqrt|a0|), are a complete list of
candidates; each is tested and deflated with exact Horner.  A polynomial
that would need more than MAX_SCAN trial divisions raises ValueError.
The remaining factor, which has no integer root, goes to one
simultaneous Aberth-Ehrlich iteration.  It runs over Python complex
numbers first; when an iterate misses the residual tolerance there, or
two iterates collapse within the cluster tolerance, the same iteration
runs again over mpmath numbers, seeded with the double iterates, at a
working precision set by the degree and the coefficient size.
"""

import cmath
from dataclasses import dataclass, field
from math import isqrt

import mpmath as mp

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-6
MAX_DEGREE = 64
MAX_SCAN = 10 ** 6  # trial divisions of the integer-root step
_ABERTH_CAP = 500


class ConvergenceFailure(Exception):
    """The Aberth iteration missed the residual tolerance."""


@dataclass(frozen=True)
class RootSet:
    """Roots of an integer polynomial, integer part exact.

    Complex entries carry a positive imaginary part; the conjugate is
    implied.  Entries are (value(s), residual, multiplicity) and the
    multiplicity-weighted total (conjugates counted) equals source_degree.
    """

    source_degree: int
    integer_roots: tuple            # sorted, with repetition
    real_roots: tuple = field(default=())    # (value, residual, multiplicity)
    complex_roots: tuple = field(default=()) # (re, im, residual, multiplicity)

    def total_count(self):
        return (len(self.integer_roots)
                + sum(m for _, _, m in self.real_roots)
                + 2 * sum(m for _, _, _, m in self.complex_roots))

    def rows(self):
        """Every root as an (re, im, residual) row, sorted, with
        multiplicities and conjugates written out; integer roots carry
        residual 0."""
        rows = [(float(r), 0.0, 0.0) for r in self.integer_roots]
        for v, res, m in self.real_roots:
            rows.extend([(v, 0.0, res)] * m)
        for re, im, res, m in self.complex_roots:
            rows.extend([(re, im, res)] * m + [(re, -im, res)] * m)
        return sorted(rows)

    def all_points(self):
        """Every root as a complex point, conjugates included."""
        return [complex(re, im) for re, im, _ in self.rows()]


def _deflate_int(coeffs, r):
    """Exact synthetic division of an integer polynomial by (x - r)."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc * r
        out[i - 1] = acc
    assert coeffs[0] + acc * r == 0, "not a root"
    return out


def _poly_int(coeffs, r):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _extract_integer_roots(coeffs):
    """(sorted integer roots, the factor left after deflating them).

    Every nonzero integer root divides a0 and lies inside the root
    radius, so the divisors c <= R of |a0| are the complete candidate
    list; deflating by c != 0 keeps a0 nonzero and its divisors among
    the candidates.
    """
    roots = []
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(0)
        coeffs = coeffs[1:]
    if len(coeffs) == 1:
        return roots, coeffs
    a0 = abs(coeffs[0])
    bound = int(_root_radius(coeffs)) + 1
    steps = min(bound, isqrt(a0))
    if steps > MAX_SCAN:
        raise ValueError("integer-root search needs %d trial divisions,"
                         " above the bound of %d" % (steps, MAX_SCAN))
    small, large = [], []
    for d in range(1, steps + 1):
        if a0 % d == 0:
            small.append(d)
            if d < a0 // d <= bound:
                large.append(a0 // d)
    for c in small + large[::-1]:
        for r in (c, -c):
            while len(coeffs) > 1 and _poly_int(coeffs, r) == 0:
                roots.append(r)
                coeffs = _deflate_int(coeffs, r)
    return sorted(roots), coeffs


def _root_radius(coeffs):
    """A bound on the moduli of the roots: the smaller of Cauchy's and
    Fujiwara's, in floats."""
    d = len(coeffs) - 1
    lead = abs(coeffs[-1])
    cauchy = 1 + max(abs(c) for c in coeffs) / lead
    fuji = 2 * max((abs(coeffs[i]) / lead) ** (1.0 / (d - i))
                   for i in range(d)) if d else 1.0
    return min(cauchy, fuji)


def _initial_circle(coeffs):
    d = len(coeffs) - 1
    radius = _root_radius(coeffs)
    return [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / d)
            for k in range(d)]


def _horner(poly, z):
    acc = 0j
    for c in reversed(poly):
        acc = acc * z + c
    return acc


def _aberth(cs, z, stop):
    """Simultaneous Aberth-Ehrlich iteration on the monic coefficients cs
    from the start points z, until no step exceeds stop.  The arithmetic
    is that of the arguments: floats and complex, or mpmath numbers."""
    d = len(cs) - 1
    dcs = [cs[i] * i for i in range(1, len(cs))]
    for _ in range(_ABERTH_CAP):
        moved = 0.0
        for i in range(d):
            pz = _horner(cs, z[i])
            dz = _horner(dcs, z[i])
            if dz == 0:
                z[i] += 1e-6 + 1e-6j
                moved = float("inf")
                continue
            w = pz / dz
            s = 0j
            for j in range(d):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = 1e-12
                    s += 1 / diff
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < stop:
            break
    return z


def _monic(coeffs, number):
    lead = number(coeffs[-1])
    return [number(c) / lead for c in coeffs]


def _residuals(cs, z):
    return [float(abs(_horner(cs, x))) for x in z]


def _collapsed(approx):
    """True when two iterates landed within the cluster tolerance, the
    signature of a double-precision pass that lost roots."""
    for i, a in enumerate(approx):
        for b in approx[i + 1:]:
            if abs(a - b) <= CLUSTER_TOL:
                return True
    return False


def find_roots(p, tol=DEFAULT_TOL):
    """All roots of a nonzero integer polynomial of degree <= 64.

    Integer roots are exact (residual 0) and complete: every divisor of
    the trailing coefficient inside the root radius is tested by exact
    Horner.  A polynomial whose search would take more than MAX_SCAN
    (10^6) trial divisions raises ValueError; that needs both a root
    radius and a square root of |a0| above 10^6.  The rest carry
    residuals of the monic-scaled deflated polynomial, required to be at
    most tol.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no root set")
    if p.degree > MAX_DEGREE:
        raise ValueError("degree %d exceeds cap %d" % (p.degree, MAX_DEGREE))
    int_roots, coeffs = _extract_integer_roots(list(p.coeffs))
    if len(coeffs) == 1:
        return _assemble(p.degree, int_roots, [])
    cs = _monic(coeffs, float)
    z = _aberth(cs, _initial_circle(cs), 1e-14)
    residuals = _residuals(cs, z)
    if not all(r <= tol for r in residuals) or _collapsed(z):
        # on ill-conditioned input the double pass misses the tolerance or
        # merges iterates; carry on from its iterates at a precision that
        # covers the degree and the coefficient size, and stop only when
        # the steps are negligible there: stopping at the first residual
        # under tol would leave the iterates of a double root ~1e-5 apart.
        # Those iterates settle only to within sqrt(eps) of the root, so
        # the stop is the cube root of eps, which they do reach
        digits = len(str(max(abs(c) for c in coeffs)))
        with mp.workdps(max(30, 25 + 2 * len(coeffs) + digits)):
            cs = _monic(coeffs, mp.mpf)
            z = _aberth(cs, [mp.mpc(x) for x in z], mp.cbrt(mp.eps))
            residuals = _residuals(cs, z)
            z = [complex(x) for x in z]
    worst = max(range(len(z)), key=residuals.__getitem__)
    if not residuals[worst] <= tol:
        raise ConvergenceFailure(
            "residual %.3g above tolerance %.3g" % (residuals[worst], tol))
    return _assemble(p.degree, int_roots, list(zip(z, residuals)))


def _assemble(source_degree, int_roots, polished):
    clusters = []
    for z, res in polished:
        for cl in clusters:
            if abs(z - cl[0][0]) <= CLUSTER_TOL:
                cl.append((z, res))
                break
        else:
            clusters.append([(z, res)])
    reals, upper, lower = [], [], []
    for cl in clusters:
        zc = sum(z for z, _ in cl) / len(cl)
        res = max(r for _, r in cl)
        if abs(zc.imag) <= CLUSTER_TOL:
            reals.append((zc.real, res, len(cl)))
        elif zc.imag > 0:
            upper.append([zc.real, zc.imag, res, len(cl)])
        else:
            lower.append([zc.real, -zc.imag, res, len(cl)])
    # the coefficients are real, so non-real roots come in conjugate
    # pairs; ill conditioning can push a root and its mirror apart by far
    # more than the cluster tolerance, so fold each lower-half cluster
    # into its nearest upper-half mate instead of position matching
    unmatched = list(range(len(upper)))
    complexes = []
    for re, im, res, m in lower:
        if unmatched:
            best = min(unmatched, key=lambda i: abs(upper[i][0] - re)
                       + abs(upper[i][1] - im))
            unmatched.remove(best)
            ure, uim, ures, um = upper[best]
            complexes.append([(ure + re) / 2, (uim + im) / 2,
                              max(ures, res), max(um, m)])
        else:
            complexes.append([re, im, res, m])
    for i in unmatched:
        complexes.append(upper[i])
    reals.sort()
    complexes.sort()
    return RootSet(
        source_degree=source_degree,
        integer_roots=tuple(int_roots),
        real_roots=tuple(reals),
        complex_roots=tuple(tuple(e) for e in complexes),
    )
