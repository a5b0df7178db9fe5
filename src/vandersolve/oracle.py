"""Brute-force reference implementations.

Naive on purpose, exact over rationals, and sharing no code with the
closed-form solvers: subset enumeration for the symmetric coefficients,
Gaussian elimination for solve and rank, and Laplace expansion for
determinants.  The tests use all of them; the CLI's --verify uses the
elimination only, to cross-check `interpolate`, on exact scalars in
every output format.

`gaussian_solve` has two paths, chosen by `field.is_exact` only.  When
every entry of the matrix and the right-hand side is an int or a
Fraction it
eliminates fraction-free: each augmented row is scaled to primitive
integers (no common factor), the pivot is the nonzero candidate of
smallest magnitude and is made primitive when chosen, a row update is
u * row_r - v * row_k with g = gcd(a_kk, a_rk), u = a_kk/g, v = a_rk/g,
and back substitution keeps every unknown over one common denominator
until one Fraction per output.  An updated row is made primitive again
only when g <= |u|.  On Vandermonde rows g takes most of the pivot's
bits and the content left after the update averages a few bits, not
worth a full-row gcd; on dense integer matrices g is short, and the row
carries the Sylvester factor that Bareiss's elimination divides out,
which the gcd removes before it compounds.  Only this path skips a row
whose multiplier a_rk is zero.  `solve_by_elimination` takes exact
nodes and values only and hands them over as integer rows.  Every
other scalar type (`CountingNumber`, and floats, which this module takes
ungated as the reference for the bench's float elimination) runs the
generic elimination with first-nonzero pivoting, which does every
update, so its operation count depends only on the matrix size; the
bench's op counts are defined by that path.  Both paths raise the same
`SingularMatrixError`: whether column k has a pivot depends only on the
rank of the leading k + 1 columns, not on the pivots chosen before it.
"""

import math
from fractions import Fraction
from itertools import combinations

from .field import exact_div, is_exact
from .vandermonde import DenseMatrix


class SingularMatrixError(ArithmeticError):
    """Elimination found an all-zero pivot column."""


def gaussian_solve(m: DenseMatrix, q) -> list:
    """Exact Gaussian elimination.

    Ints and Fractions take the fraction-free path (`_integer_solve`),
    which pivots on the smallest magnitude and divides a row by the gcd
    of its entries when it becomes the pivot row and after an update
    whose pair gcd g = gcd(a_kk, a_rk) is at most |a_kk/g|.  Otherwise
    pivoting is first-nonzero, with no zero-factor skipping and no
    pivot-size heuristic, so the operation count depends only on the
    matrix size.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    if len(q) != n:
        raise ValueError(f"{n} equations but {len(q)} values")
    if is_exact(m.entries, q):
        return _integer_solve(m, q)
    a = m.to_rows()
    b = list(q)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot available in column {k}")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            b[k], b[pivot] = b[pivot], b[k]
        for r in range(k + 1, n):
            f = exact_div(a[r][k], a[k][k])
            for c in range(k + 1, n):
                a[r][c] = a[r][c] - f * a[k][c]
            b[r] = b[r] - f * b[k]
            a[r][k] = 0
    x = [0] * n
    for i in range(n - 1, -1, -1):
        s = b[i]
        for c in range(i + 1, n):
            s = s - a[i][c] * x[c]
        x[i] = exact_div(s, a[i][i])
    return x


def _primitive(row: list) -> list:
    """The int row divided by the gcd of its entries (unchanged if all zero)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_solve(m: DenseMatrix, q) -> list:
    """gaussian_solve on integer rows, primitive as pivots; one Fraction per output."""
    n = m.rows
    rows = []
    for i in range(n):
        row = list(m.row(i)) + [q[i]]
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
    entries = []
    values = []
    for a, y in zip(nodes, q):
        n, d = a.numerator, a.denominator
        row = [d ** (p - 1)]
        for _ in range(p - 1):
            row.append(row[-1] // d * n)
        entries.extend(row)
        values.append(y * row[0])
    return gaussian_solve(DenseMatrix(p, p, entries), values)


def gaussian_rank(m: DenseMatrix) -> int:
    """Exact row-echelon rank."""
    a = m.to_rows()
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, m.rows):
            if a[r][col] != 0:
                f = exact_div(a[r][col], a[rank][col])
                for c in range(col, m.cols):
                    a[r][c] = a[r][c] - f * a[rank][c]
        rank += 1
        if rank == m.rows:
            break
    return rank


def sigma_bruteforce(nodes, t: int):
    """Sum over all size-t subsets of node products, by literal enumeration.

    1 for t = 0, 0 beyond the node count.  Exponential, keep p small.
    """
    if t == 0:
        return 1
    seq = list(nodes)
    if t > len(seq):
        return 0
    return sum(math.prod(c) for c in combinations(seq, t))


def cofactor_determinant(m: DenseMatrix):
    """Laplace expansion along the first row; factorial cost, keep n small."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    return _laplace(m.to_rows())


def _laplace(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
