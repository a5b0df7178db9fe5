"""Output certificates for the benchmark.

Every check here is exact and shares no code with vandersolve.  Rational
polynomials are evaluated over the integers: the coefficients are brought
to one common denominator and the homogenised form
sum C_i u^i v^(m-i) is evaluated at x = u/v by Horner's scheme, so no
check depends on the library's arithmetic, its oracles or its types.

Each check returns nothing and raises `Mismatch` on the first defect.
"""

from fractions import Fraction
from math import lcm


class Mismatch(ValueError):
    """An output that fails its certificate."""


def _integer_form(coeffs) -> tuple:
    """(integer numerators, common denominator) of a rational vector."""
    coeffs = [Fraction(c) for c in coeffs]
    d = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _homogeneous(ints, x: Fraction) -> int:
    """sum ints[i] u^i v^(m-i) for x = u/v and m = len(ints) - 1."""
    if not ints:
        return 0
    u, v = x.numerator, x.denominator
    acc, vpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return acc


def poly_value(coeffs, x) -> Fraction:
    """Exact value of sum c_i x^i."""
    x = Fraction(x)
    ints, d = _integer_form(coeffs)
    return Fraction(_homogeneous(ints, x), d * x.denominator ** max(len(ints) - 1, 0))


def _first_miss(coeffs, nodes, values) -> int | None:
    """Index of the first node where the polynomial misses its value."""
    ints, d = _integer_form(coeffs)
    m = max(len(ints) - 1, 0)
    for k, (a, q) in enumerate(zip(nodes, values)):
        a, q = Fraction(a), Fraction(q)
        if _homogeneous(ints, a) * q.denominator != q.numerator * d * a.denominator ** m:
            return k
    return None


def check_distinct(nodes) -> None:
    if len(set(Fraction(a) for a in nodes)) != len(nodes):
        raise Mismatch("nodes are not pairwise distinct")


def check_residual(nodes, values, coeffs) -> None:
    """The polynomial with these coefficients takes every value at its node."""
    k = _first_miss(coeffs, nodes, values)
    if k is not None:
        raise Mismatch(f"residual is nonzero at node {k}")


def check_interpolant(nodes, values, coeffs) -> None:
    """Degree below p and zero residual: with distinct nodes, the unique one."""
    check_distinct(nodes)
    if len(coeffs) > len(nodes):
        raise Mismatch(f"{len(coeffs)} coefficients for {len(nodes)} nodes")
    check_residual(nodes, values, coeffs)


def check_kernel(nodes, n: int, basis) -> None:
    """n - p annihilated vectors whose last nonzero entries are ones that
    move strictly right, which makes the family free."""
    p = len(nodes)
    check_distinct(nodes)
    if len(basis) != n - p:
        raise Mismatch(f"kernel dimension {len(basis)}, expected {n - p}")
    last = -1
    for k, vec in enumerate(basis):
        if len(vec) != n:
            raise Mismatch(f"kernel vector {k} has length {len(vec)}, expected {n}")
        check_residual(nodes, [0] * p, vec)
        tail = max((i for i, c in enumerate(vec) if c != 0), default=-1)
        if tail <= last or Fraction(vec[tail]) != 1:
            raise Mismatch(f"kernel vector {k} breaks the echelon of trailing ones")
        last = tail


def check_space(nodes, values, n: int, particular, basis) -> None:
    """A particular solution of the p x n system plus a kernel basis."""
    if len(particular) != n:
        raise Mismatch(f"particular solution has length {len(particular)}, expected {n}")
    check_residual(nodes, values, particular)
    check_kernel(nodes, n, basis)


def check_sigma(nodes, sigma) -> None:
    """sum_t (-1)^t sigma(t) x^(p-t) is monic of degree p and vanishes at
    the p distinct nodes, so it is prod (x - a_i)."""
    check_distinct(nodes)
    p = len(nodes)
    if len(sigma) != p + 1 or Fraction(sigma[0]) != 1:
        raise Mismatch("sigma must have p + 1 entries starting with 1")
    signed = [sigma[t] if t % 2 == 0 else -Fraction(sigma[t]) for t in range(p, -1, -1)]
    check_residual(nodes, [0] * p, signed)


def check_deflated(nodes, rows) -> None:
    """Row i is the sigma row of the nodes without node i."""
    if len(rows) != len(nodes):
        raise Mismatch(f"{len(rows)} deflated rows for {len(nodes)} nodes")
    for i, row in enumerate(rows):
        check_sigma(list(nodes[:i]) + list(nodes[i + 1:]), row)


def lagrange_value(nodes, values, x) -> Fraction:
    """Value at x of the unique polynomial of degree < len(nodes) through
    the points, by the Lagrange formula."""
    nodes = [Fraction(a) for a in nodes]
    x = Fraction(x)
    total = Fraction(0)
    for j, (a_j, q_j) in enumerate(zip(nodes, values)):
        num, den = 1, 1
        for k, a_k in enumerate(nodes):
            if k != j:
                num *= x - a_k
                den *= a_j - a_k
        total += Fraction(q_j) * num / den
    return total


def check_inconsistent(nodes, values, n: int, row: int, lhs, rhs) -> None:
    """Row `row` is the first equation the degree-<n interpolant of the
    first n points violates, and `lhs` is that interpolant's value there."""
    head_nodes, head_values = nodes[:n], values[:n]
    if not n <= row < len(nodes):
        raise Mismatch(f"inconsistent row {row} is outside {n}..{len(nodes) - 1}")
    for r in range(n, row):
        if lagrange_value(head_nodes, head_values, nodes[r]) != Fraction(values[r]):
            raise Mismatch(f"row {r} is already inconsistent")
    true_lhs = lagrange_value(head_nodes, head_values, nodes[row])
    if Fraction(lhs) != true_lhs or Fraction(rhs) != Fraction(values[row]):
        raise Mismatch(f"reported lhs/rhs at row {row} are not the true values")
    if true_lhs == Fraction(values[row]):
        raise Mismatch(f"row {row} is consistent")


def check_inverse(nodes, rows) -> None:
    """Column j holds the coefficients of the polynomial that is 1 at node j
    and 0 at every other node, so V times the matrix is the identity."""
    p = len(nodes)
    check_distinct(nodes)
    if len(rows) != p or any(len(r) != p for r in rows):
        raise Mismatch(f"inverse is not {p} x {p}")
    for j in range(p):
        column = [rows[i][j] for i in range(p)]
        check_residual(nodes, [1 if k == j else 0 for k in range(p)], column)


def closed_form_ops(p: int) -> dict:
    """Field operations of the closed-form solve, by kind: the sigma pass,
    p - 1 deflation columns, p column denominators of p - 1 differences
    each, p scalings, the combine product and the sign flips."""
    return {
        "adds": p * (p + 1) // 2 + p * p,
        "subs": 2 * p * (p - 1),
        "muls": p * (p + 1) // 2 + 2 * p * (p - 1) + p * p,
        "divs": p,
        "negs": p // 2,
    }


def gaussian_ops(p: int) -> dict:
    """Field operations of elimination with back substitution, by kind."""
    s1 = p * (p - 1) // 2
    s2 = (p - 1) * p * (2 * p - 1) // 6
    return {"adds": 0, "subs": s2 + 2 * s1, "muls": s2 + 2 * s1, "divs": s1 + p, "negs": 0}
