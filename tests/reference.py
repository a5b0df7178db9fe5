"""Brute-force references that only the tests use.

Naive on purpose and sharing no code with the closed-form solvers: a
generic Gaussian elimination for solve and rank, subset enumeration for
the symmetric coefficients, and Laplace expansion for determinants.
Matrices are plain sequences of rows.  `combine_exact_table` is the
exact combine over the full table of deflated rows, which the blocked
combine of `vandermonde` must match bit for bit.

`gaussian_solve` here pivots on the first nonzero candidate and does
every update, with no zero-factor skipping and no pivot-size heuristic,
so its operation count depends only on the matrix size: the tests run
it on floats as the reference for the bench's float elimination, and on
`CountingNumber` rows to count the operations of Gaussian elimination.
It takes Fractions too.  It raises the package oracle's
`SingularMatrixError` where `vandersolve.oracle.gaussian_solve` does:
whether column k has a pivot depends only on the rank of the leading
k + 1 columns, not on the pivots chosen before it.
"""

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from vandersolve.field import exact_div, over_common_denominator
from vandersolve.oracle import SingularMatrixError


def gaussian_solve(rows, q) -> list:
    """Gaussian elimination with first-nonzero pivoting on a square sequence of rows."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if len(q) != n:
        raise ValueError(f"{n} equations but {len(q)} values")
    a = [list(r) for r in rows]
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


def gaussian_rank(rows) -> int:
    """Exact row-echelon rank of a sequence of equal-length rows."""
    a = [list(r) for r in rows]
    height, width = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, height) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, height):
            if a[r][col] != 0:
                f = exact_div(a[r][col], a[rank][col])
                for c in range(col, width):
                    a[r][c] = a[r][c] - f * a[rank][c]
        rank += 1
        if rank == height:
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


def cofactor_determinant(rows):
    """Laplace expansion along the first row; factorial cost, keep n small."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return _laplace([list(r) for r in rows])


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


def combine_exact_table(rows, pairs, denominators, q) -> list:
    """The exact combine over the whole p x p table of deflated rows H_j.

    w_i = (-1)^(p-1-i) sum_j H_j[p-1-i] * q_j * d_j^(p-1) / E_j, with the
    values over their common denominator M and the weights over
    G = lcm(E_j), so w_i is one integer dot product over M * G: the
    reference for the blocked combine of `vandermonde`.
    """
    n = len(rows)
    g = math.lcm(*denominators)
    m, nums = over_common_denominator(q)
    weights = [y * (g // e) * d ** (n - 1) for y, (_, d), e in zip(nums, pairs, denominators)]
    columns = list(zip(*rows))  # columns[t][j] = rows[j][t]
    w = []
    for i in range(n):
        t = n - 1 - i
        s = sum(map(mul, columns[t], weights))
        w.append(Fraction(s if t % 2 == 0 else -s, m * g))
    return w
