"""Exact integer polynomial arithmetic.

Polynomials are dense sequences of arbitrary-precision integer
coefficients in ascending degree order, trimmed of trailing zeros.  The
zero polynomial has an empty coefficient tuple and degree -1.
"""

from math import comb, factorial, gcd


class NonIntegerCoefficient(Exception):
    """Interpolation produced a non-integer coefficient.

    Signals a caller bug: the supplied values were not the colouring
    counts of a monic integer polynomial.
    """


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @property
    def degree(self):
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __reduce__(self):
        return (IntPolynomial, (self.coeffs,))

    def __str__(self):
        return display(self)


def falling_factorial_sum(counts):
    """The polynomial sum of counts[k] * (x)_k."""
    result = [0] * len(counts)
    falling = [1]  # coefficients of (x)_k
    for k, c in enumerate(counts):
        if c:
            for i, f in enumerate(falling):
                result[i] += c * f
        # (x)_{k+1} = (x)_k * (x - k)
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return IntPolynomial(result)


def falling_factorial(n):
    """x(x-1)...(x-n+1); the constant 1 when n is 0."""
    return falling_factorial_sum([0] * n + [1])


def interpolate(values):
    """Unique integer polynomial through (i, values[i]) for i = 0..d.

    Newton forward differences in integers: with Delta^j the j-th forward
    difference at 0, d! p(x) = sum_j Delta^j (d!/j!) (x)_j, built with
    falling_factorial_sum and divided exactly by d! at the end.
    Raises NonIntegerCoefficient if a coefficient of p is not an integer.
    """
    values = list(values)
    if not values:
        raise ValueError("interpolate needs at least one value")
    diffs = [values[0]]
    row = values
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        diffs.append(row[0])
    scale = factorial(len(diffs) - 1)
    scaled = falling_factorial_sum(
        [d * (scale // factorial(j)) for j, d in enumerate(diffs)])
    out = []
    for c in scaled.coeffs:
        q, r = divmod(c, scale)
        if r:
            g = gcd(c, scale)
            raise NonIntegerCoefficient("coefficient %d/%d is not an integer"
                                        % (c // g, scale // g))
        out.append(q)
    return IntPolynomial(out)


def compose_shift(p, s):
    """p(x - s), computed exactly by binomial expansion."""
    out = [0] * max(len(p.coeffs), 1)
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        # (x - s)^i
        for k in range(i + 1):
            out[k] += c * comb(i, k) * ((-s) ** (i - k))
    return IntPolynomial(out)


def evaluate_int(p, k):
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * k + c
    return acc


def evaluate_complex(p, z):
    """Horner evaluation in double-precision complex arithmetic."""
    acc = complex(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def display(p):
    """Fixed display form: descending terms, e.g. x^4 - 2*x^3 + 2*x."""
    if p.is_zero():
        return "0"
    terms = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            xpart = "x" if d == 1 else "x^%d" % d
            body = xpart if mag == 1 else "%d*%s" % (mag, xpart)
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out
