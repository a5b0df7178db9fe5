"""The exact Gaussian elimination that `interpolate --verify` checks against.

Naive on purpose and sharing no code with the closed-form solvers: it
imports only the standard library.  Matrices are plain sequences of rows
of ints and Fractions; any other scalar raises TypeError.

`gaussian_solve` eliminates fraction-free: each augmented row is scaled
to primitive integers (no common factor), the pivot is the nonzero
candidate of smallest magnitude and is made primitive when chosen, a row
update is u * row_r - v * row_k with g = gcd(a_kk, a_rk), u = a_kk/g,
v = a_rk/g, and a row whose multiplier a_rk is zero is skipped.  Back
substitution keeps every unknown over one common denominator until one
Fraction per output.  An updated row is made primitive again only when
g <= |u|.  On Vandermonde rows g takes most of the pivot's bits and the
content left after the update averages a few bits, not worth a full-row
gcd; on dense integer matrices g is short, and the row carries the
Sylvester factor that Bareiss's elimination divides out, which the gcd
removes before it compounds.  `solve_by_elimination` takes exact nodes
and values and hands them over as integer rows.
"""

import math
from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    """Elimination found an all-zero pivot column."""


def gaussian_solve(matrix, q) -> list:
    """Fraction-free Gaussian elimination on a square sequence of int and Fraction rows.

    Pivots on the smallest magnitude and divides a row by the gcd of its
    entries when it becomes the pivot row and after an update whose pair
    gcd g = gcd(a_kk, a_rk) is at most |a_kk/g|.  Returns one Fraction
    per unknown.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    if len(q) != n:
        raise ValueError(f"{n} equations but {len(q)} values")
    rows = []
    for given, y in zip(matrix, q):
        row = [*given, y]
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{type(x).__name__} {x!r} is not an int or a Fraction")
        scale = math.lcm(*(x.denominator for x in row))
        rows.append(_primitive([x.numerator * (scale // x.denominator) for x in row]))
    for k in range(n):
        # A small pivot a_kk keeps the multiplier a_kk/g of every row below short.
        pivot = min((r for r in range(k, n) if rows[r][k] != 0),
                    key=lambda r: abs(rows[r][k]), default=None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot available in column {k}")
        top = _primitive(rows[pivot])
        rows[pivot] = rows[k]
        rows[k] = top
        head = top[k]
        tail = top[k + 1:]
        for r in range(k + 1, n):
            row = rows[r]
            lead = row[k]
            if lead == 0:
                continue
            g = math.gcd(head, lead)
            u, v = head // g, lead // g
            row = [0] * (k + 1) + [u * x - v * y for x, y in zip(row[k + 1:], tail)]
            # g > |u| took over half of the pivot's bits: the content left is short.
            rows[r] = row if g > abs(u) else _primitive(row)
    # x_c = num[c] / den for c > i; solving row i multiplies den by its pivot.
    num = [0] * n
    den = 1
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = row[n] * den - sum(row[c] * num[c] for c in range(i + 1, n))
        pivot = row[i]
        for c in range(i + 1, n):
            num[c] *= pivot
        num[i] = s
        den *= pivot
        g = math.gcd(den, *num[i:])
        if g > 1:
            den //= g
            for c in range(i, n):
                num[c] //= g
    return [Fraction(x, den) for x in num]


def _primitive(row: list) -> list:
    """The int row divided by the gcd of its entries (unchanged if all zero)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def solve_by_elimination(nodes, q) -> list:
    """gaussian_solve on the explicit square Vandermonde matrix of the nodes.

    Nodes and values are ints and Fractions.  With a_i = n_i / d_i, row i
    is built in ints as the Vandermonde row times d_i^(p-1), that is
    (d_i^(p-1), n_i d_i^(p-2), ..., n_i^(p-1)), with the value
    q_i d_i^(p-1).  Scaling a row leaves the solution alone.
    """
    nodes = list(nodes)
    p = len(nodes)
    if len(q) != p:
        raise ValueError(f"{p} equations but {len(q)} values")
    rows = []
    values = []
    for a, y in zip(nodes, q):
        n, d = a.numerator, a.denominator
        row = [d ** (p - 1)]
        for _ in range(p - 1):
            row.append(row[-1] // d * n)
        rows.append(row)
        values.append(y * row[0])
    return gaussian_solve(rows, values)
