import random
from fractions import Fraction

from helpers import random_fraction
from vandersolve.field import CountingNumber, OpCounter
from vandersolve.kernel import solve_overdetermined
from vandersolve.poly import Polynomial, first_miss
from vandersolve.symfuncs import NodeSet, poly_from_roots
from vandersolve.vandermonde import solve_square


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


def test_first_miss_compares_exactly():
    p = Polynomial((Fraction(1, 10), Fraction(1, 5)))
    assert first_miss(p, [1], [Fraction(3, 10)]) is None
    assert first_miss(p, [1], [Fraction(3, 10) + Fraction(1, 10**30)]) == (0, Fraction(3, 10))
    # terms near 1e8 cancel at the roots, exactly
    roots = (Fraction(1, 10), Fraction(7, 10), Fraction(333, 10), Fraction(1009, 10))
    head = poly_from_roots(NodeSet(roots))
    assert first_miss(head, roots, [0] * 4) is None
    assert first_miss(head, roots, [0, 0, 1, 0]) == (2, 0)


# --- integer Horner against the generic loop ------------------------------------------


def _generic_evaluate(poly, x):
    """The generic Horner loop (x wrapped in a CountingNumber), unwrapped."""
    value = poly.evaluate(CountingNumber(x, OpCounter()))
    return value.value if isinstance(value, CountingNumber) else value


def test_integer_horner_matches_generic_value_and_type():
    rng = random.Random(3)
    points = [0, Fraction(0), 5, -4, Fraction(-7, 3), Fraction(9, 2), Fraction(1, 97),
              random_fraction(rng), random_fraction(rng)]
    polys = [Polynomial(()), Polynomial((4,)), Polynomial((Fraction(-2, 3),)),
             Polynomial((2, -3, 1)), Polynomial((1, Fraction(1, 2), 0, -5))]
    for degree in range(9):
        polys.append(Polynomial(tuple(random_fraction(rng) for _ in range(degree + 1))))
        polys.append(Polynomial(tuple(rng.randint(-9, 9) for _ in range(degree)) + (7,)))
    for poly in polys:
        for x in points:
            got, want = poly.evaluate(x), _generic_evaluate(poly, x)
            assert (got, type(got)) == (want, type(want)), (poly, x)


def test_integer_horner_types():
    assert type(Polynomial((2, -3, 1)).evaluate(4)) is int
    assert type(Polynomial(()).evaluate(Fraction(1, 2))) is int
    assert type(Polynomial((2, -3, 1)).evaluate(Fraction(4))) is Fraction
    assert type(Polynomial((Fraction(2), 3)).evaluate(4)) is Fraction


def test_first_miss_lhs_on_an_inconsistent_system():
    nodes = NodeSet((Fraction(1, 2), Fraction(-3), Fraction(5, 3), Fraction(7, 2)))
    q = [Fraction(1), Fraction(2, 3), Fraction(-1), Fraction(4)]
    result = solve_overdetermined(nodes, q, 3)
    assert (result.inconsistent_at, result.rhs) == (3, 4)
    head = Polynomial(tuple(solve_square(NodeSet(nodes[:3]), q[:3])))
    assert result.lhs == _generic_evaluate(head, nodes[3]) == Fraction(-615, 98)
    assert type(result.lhs) is Fraction
