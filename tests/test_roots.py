import math
import statistics

import pytest

from bichroma.families import (cor42_poly, limit_curve_experiment,
                               thm45_bracket, thm45_poly)
from bichroma.polynomial import (IntPolynomial, evaluate_complex, evaluate_int,
                                 falling_factorial)
from bichroma.roots import find_roots


def test_all_integer_roots_exact():
    rs = find_roots(falling_factorial(10))
    assert rs.integer_roots == tuple(range(10))
    assert not rs.real_roots and not rs.complex_roots
    assert rs.total_count() == 10


def test_cor42_roots():
    rs = find_roots(cor42_poly(3))
    assert rs.integer_roots == (-2, 0, 1, 2, 3)


def test_integer_multiplicity():
    p = IntPolynomial((-3, 1)) ** 2  # (x - 3)^2
    rs = find_roots(p)
    assert rs.integer_roots == (3, 3)
    assert thm45_bracket(6) == p


def test_irrational_real_roots():
    p = IntPolynomial((-2, 0, 1))  # x^2 - 2
    rs = find_roots(p)
    assert not rs.integer_roots and not rs.complex_roots
    vals = sorted(v for v, _, _ in rs.real_roots)
    assert abs(vals[0] + math.sqrt(2)) < 1e-9
    assert abs(vals[1] - math.sqrt(2)) < 1e-9


def test_complex_conjugates_implied():
    p = IntPolynomial((1, 0, 1))  # x^2 + 1
    rs = find_roots(p)
    assert not rs.integer_roots and not rs.real_roots
    assert len(rs.complex_roots) == 1
    re, im, res, m = rs.complex_roots[0]
    assert abs(re) < 1e-9 and abs(im - 1) < 1e-9 and m == 1
    assert rs.total_count() == 2
    assert len(rs.all_points()) == 2


def test_mixed_root_types():
    # (x - 1)(x^2 + x + 1)(x^2 - 3)
    p = (IntPolynomial((-1, 1)) * IntPolynomial((1, 1, 1))
         * IntPolynomial((-3, 0, 1)))
    rs = find_roots(p)
    assert rs.integer_roots == (1,)
    assert len(rs.real_roots) == 2
    assert len(rs.complex_roots) == 1
    assert rs.total_count() == 5


def test_residuals_within_tolerance():
    rs = find_roots(thm45_bracket(30))
    for _, res, _ in rs.real_roots:
        assert res <= 1e-9
    for _, _, res, _ in rs.complex_roots:
        assert res <= 1e-9
    assert rs.total_count() == thm45_bracket(30).degree


def test_integer_hits_verified_exactly():
    rs = find_roots(cor42_poly(5))
    p = cor42_poly(5)
    for r in rs.integer_roots:
        assert evaluate_int(p, r) == 0


def test_root_count_large_coefficients():
    # huge-coefficient bracket still fully resolved
    p = thm45_bracket(45)
    rs = find_roots(p)
    assert rs.total_count() == p.degree
    for z in rs.all_points():
        # relative residual check via forward evaluation
        assert abs(evaluate_complex(p, z)) <= 1e-9 * max(
            1.0, max(abs(c) for c in p.coeffs) * max(1.0, abs(z)) ** p.degree)


def test_repeated_non_integer_root():
    # x (x - 1) (x^2 - 3x + 3)^2: the double pair 3/2 +- (sqrt 3)/2 i
    rs = find_roots(IntPolynomial((0, -9, 27, -33, 21, -7, 1)))
    assert rs.integer_roots == (0, 1)
    assert rs.real_roots == ()
    assert len(rs.complex_roots) == 1
    re, im, res, m = rs.complex_roots[0]
    assert abs(complex(re, im) - complex(1.5, 0.8660254)) < 1e-7
    assert m == 2
    assert res <= 1e-9


def test_limit_curve_rows():
    rows = limit_curve_experiment([20])
    assert all(r[0] == 20 for r in rows)
    assert len(rows) == thm45_bracket(20).degree
    # distance column is consistent with the real part
    for _, re, im, res, dist in rows:
        assert abs(dist - abs(re - 4)) < 1e-12


def test_limit_curve_approach():
    # the bulk of the roots moves toward the vertical line as the family
    # grows; the extreme pair wanders, so compare medians
    far = statistics.median(r[4] for r in limit_curve_experiment([20])
                            if abs(r[2]) > 1)
    near = statistics.median(r[4] for r in limit_curve_experiment([60])
                             if abs(r[2]) > 1)
    assert near < far


def test_limit_curve_shift():
    rows = limit_curve_experiment([20], shift=2)
    base = limit_curve_experiment([20])
    for (n1, re1, im1, _, d1), (n0, re0, im0, _, d0) in zip(rows, base):
        assert abs((re1 - 2) - re0) < 1e-12
        assert abs(im1 - im0) < 1e-12
        assert abs(d1 - d0) < 1e-12


def test_zero_roots_stripped_first():
    p = IntPolynomial((0, 0, 0, -1, 1))  # x^3 (x - 1)
    rs = find_roots(p)
    assert rs.integer_roots == (0, 0, 0, 1)


def test_integer_roots_past_a_large_trailing_coefficient():
    # thm45_poly(30) = (x)_4 * thm45_bracket(30); once the zero root is
    # stripped, |a0| is about 7e18
    assert find_roots(thm45_poly(30)).integer_roots == (0, 1, 2, 3)


def test_high_multiplicity_integer_roots_exact():
    p = (IntPolynomial((-3, 1)) ** 4 * IntPolynomial((5, 1)) ** 3
         * IntPolynomial((-7, 1)) ** 20)
    rs = find_roots(p)
    assert rs.integer_roots == (-5,) * 3 + (3,) * 4 + (7,) * 20
    assert rs.real_roots == () and rs.complex_roots == ()


def test_integer_search_refuses_past_its_bound():
    # root radius and isqrt|a0| both 10^15: the search would need more
    # than 10^6 trial divisions
    with pytest.raises(ValueError, match="bound of 1000000"):
        find_roots(IntPolynomial((-10 ** 30, 0, 1)))
