import math
from fractions import Fraction

from vandersolve.poly import Polynomial, first_miss
from vandersolve.symfuncs import NodeSet, poly_from_roots


def test_trailing_zeros_trimmed():
    p = Polynomial((1, 0, 2, 0, 0))
    assert p.coeffs == (1, 0, 2)
    assert p.degree == 2


def test_zero_polynomial_is_empty():
    p = Polynomial((0, 0, 0))
    assert p.coeffs == ()
    assert p.degree == -1
    assert p.evaluate(Fraction(7)) == 0


def test_evaluate_at_roots():
    # (x-1)(x-2) in ascending coefficients
    p = Polynomial((2, -3, 1))
    assert p.evaluate(Fraction(1)) == 0
    assert p.evaluate(Fraction(2)) == 0
    assert p.evaluate(Fraction(3)) == 2


def test_evaluate_power_sum():
    assert Polynomial((1, 2, 3)).evaluate(Fraction(2)) == 17


def test_polynomial_is_callable():
    p = Polynomial((Fraction(1, 2), Fraction(1)))
    assert p(Fraction(3)) == Fraction(7, 2)


def test_first_miss_reports_lowest_miss_from_start():
    p = Polynomial((2, -3, 1))  # (x-1)(x-2)
    nodes = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert first_miss(p, nodes, [0, 0, 2, 6]) is None
    assert first_miss(p, nodes, [1, 0, 5, 6]) == (0, 0)
    assert first_miss(p, nodes, [1, 0, 5, 6], start=1) == (2, 2)


def test_first_miss_tolerates_float_rounding_only():
    p = Polynomial((0.1, 0.2))
    assert first_miss(p, [1.0], [0.30000000000000004 + 1e-15]) is None
    assert first_miss(p, [1.0], [0.31]) is not None
    # terms near 1e8 cancel at the roots: the tolerance scales with them
    roots = (0.1, 0.7, 33.3, 100.9)
    head = poly_from_roots(NodeSet(roots))
    assert first_miss(head, roots, [0] * 4) is None
    assert first_miss(head, roots, [0, 0, 1, 0])[0] == 2
    # an overflowed or NaN residual is a miss, never a pass
    assert first_miss(Polynomial((0.0, 1e10)), [1e300], [5.0]) == (0, math.inf)
    assert first_miss(Polynomial((1e308, 1e308)), [-1.0], [0.0]) is not None
    assert first_miss(Polynomial((math.nan,)), [1.0], [0.0]) is not None
