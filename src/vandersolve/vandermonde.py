"""Square Vandermonde systems in closed form.

Inverse and solve run the same four layers on every scalar type, with
quadratic total work and no elimination:

1. `symfuncs.compute_sigma`, the sigma pass, one int row;
2. `symfuncs.deflate_all`, the deflated rows, p int rows;
3. `_column_denominators`, one denominator per column;
4. the combine: `_combine_exact` or `_combine_generic` for the solve,
   one `field.exact_div` per entry for the inverse.

The combine's arithmetic is the only fork.  Column j of the inverse
holds the coefficients of the Lagrange basis polynomial that is 1 at
node j and 0 at every other node, divided by its denominator; the solve
sums those columns weighted by q_j, and `interpolate` wraps the result
in a `Polynomial` (evaluate it with `Polynomial.evaluate`).  The
determinant is the plain product of node differences.

Inputs are exact scalars (`field.exact_scalar` gates the nodes in
`NodeSet` and the values here).  With a_k = n_k / d_k
(`NodeSet.pairs`), the rows are the int rows H_j of prod over k != j of
(d_k x + n_k) (see `symfuncs`), and the column denominator is
E_j = prod over k != j of (n_j d_k - n_k d_j).  The factors prod over
k != j of d_k cancel between the two, so inverse entry (i, j) is
(-1)^(p-1-i) d_j^(p-1) H_j[p-1-i] / E_j.  `_combine_exact` puts the
values over one common denominator and the weights d_j^(p-1) / E_j over
G = lcm(E_j), so each output coefficient is one integer dot product.
`_combine_generic` runs on `CountingNumber` nodes, whose d_k are all 1,
so E_j is the Lagrange denominator prod over k != j of (a_j - a_k): the
same sum on the scalars' own operators, one division per column, then
p^2 multiply-adds; the op-count tests pin that path.  A solve is all
exact or all counted: exact nodes take only int and Fraction values,
counted nodes only `CountingNumber` values, and any other mix raises
TypeError.  `inverse` and `poly_from_roots` take either kind of node
set, and `Polynomial.evaluate` any mix.

`DenseMatrix` is the record `inverse` returns.

Indexing note: everything here is 0-based.  Matrix entry (i, j) is
node_i ** j, and coefficient index i is the degree-i coefficient.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .field import exact_div, exact_scalar, is_exact, over_common_denominator
from .poly import Polynomial
from .symfuncs import NodeSet, _signed, compute_sigma, deflate_all

__all__ = [
    "DenseMatrix",
    "DimensionMismatchError",
    "determinant",
    "interpolate",
    "inverse",
    "solve_square",
]


class DimensionMismatchError(ValueError):
    """A vector or dimension does not match the node count."""


@dataclass(frozen=True)
class DenseMatrix:
    """The p x p inverse as `inverse` returns it: row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")

    def to_rows(self) -> list:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


def determinant(nodes: NodeSet):
    """prod over j < i of (a_i - a_j); nonzero because nodes are distinct."""
    seq = list(nodes)
    det = 1
    for i in range(len(seq)):
        for j in range(i):
            det = det * (seq[i] - seq[j])
    return det


def _column_denominators(pairs) -> list:
    """E_j = prod over k != j of (n_j d_k - n_k d_j) for every j, from the (n, d) pairs.

    When every d is 1 (always, off the exact path) E_j is the Lagrange
    basis denominator D_j = prod over k != j of (a_j - a_k), formed with
    one subtraction per factor.  Computed as a direct product (the cheap
    route); the equivalent signed power sum over the deflated coefficients
    is asserted equal in the tests.
    """
    plain = all(d == 1 for _, d in pairs)
    nums = [n for n, _ in pairs]
    out = []
    for j, (n_j, d_j) in enumerate(pairs):
        e = 1
        if plain:
            for k, n_k in enumerate(nums):
                if k != j:
                    e = e * (n_j - n_k)
        else:
            for k, (n_k, d_k) in enumerate(pairs):
                if k != j:
                    e = e * (n_j * d_k - n_k * d_j)
        out.append(e)
    return out


def inverse(nodes: NodeSet) -> DenseMatrix:
    """Closed-form inverse of the square matrix on these nodes.

    Columns are independent (each one needs only its own deflated row and
    denominator), so they could be computed in parallel.  Exact nodes give
    entry (i, j) = d_j^(p-1) * numerator / E_j from the integer row, one
    Fraction each.
    """
    n = len(nodes)
    rows = deflate_all(nodes, compute_sigma(nodes))
    columns = []
    for row, (_, d), e in zip(rows, nodes.pairs, _column_denominators(nodes.pairs)):
        lead = d ** (n - 1)
        columns.append([exact_div(c if d == 1 else lead * c, e)
                        for c in (_signed(row[t], t) for t in range(n - 1, -1, -1))])
    entries = tuple(columns[j][i] for i in range(n) for j in range(n))
    return DenseMatrix(n, n, entries)


def solve_square(nodes: NodeSet, q) -> list:
    """The unique w with V(nodes) @ w = q, from one deflation pass.

    Quadratic cost overall: the sigma pass, p deflation rows, one
    denominator per column, and a final grid-vector sum.  No elimination
    anywhere.  Each value passes `field.exact_scalar`, and the solve is
    all exact or all counted: the values are ints and Fractions exactly
    when the nodes are, else every value is a `CountingNumber`.  Any
    other mix raises TypeError.
    """
    n = len(nodes)
    if len(q) != n:
        raise DimensionMismatchError(f"{n} nodes but {len(q)} values")
    q = [exact_scalar(x) for x in q]
    exact = is_exact(nodes)
    if any(is_exact([x]) != exact for x in q):
        raise TypeError("a solve is all exact or all counted: int and Fraction values "
                        "on exact nodes, CountingNumber values on counted nodes")
    rows = deflate_all(nodes, compute_sigma(nodes))
    combine = _combine_exact if exact else _combine_generic
    return combine(rows, nodes.pairs, _column_denominators(nodes.pairs), q)


def _combine_exact(rows, pairs, denominators, q) -> list:
    """The combine step on the integer rows H_j of exact nodes.

    w_i = (-1)^(p-1-i) sum_j H_j[p-1-i] * q_j * d_j^(p-1) / E_j.  The
    values go over their common denominator M and the column weights
    d_j^(p-1) / E_j over G = lcm(E_j), so w_i is one integer dot product
    over M * G.
    """
    n = len(rows)
    g = lcm(*denominators)
    m, nums = over_common_denominator(q)
    weights = [y * (g // e) * d ** (n - 1) for y, (_, d), e in zip(nums, pairs, denominators)]
    columns = list(zip(*rows))  # columns[t][j] = rows[j][t]
    w = []
    for i in range(n):
        t = n - 1 - i
        s = sum(map(mul, columns[t], weights))
        w.append(Fraction(s if t % 2 == 0 else -s, m * g))
    return w


def _combine_generic(rows, pairs, denominators, q) -> list:
    """The combine step on counted scalars' own operators: the path the op counts pin.

    Counted nodes have every d = 1, so `pairs` is not read and each value
    is divided by its Lagrange denominator.
    """
    n = len(rows)
    scaled = [x / e for x, e in zip(q, denominators)]
    w = []
    for t in range(n - 1, -1, -1):
        s = 0
        for row, x in zip(rows, scaled):
            s = s + row[t] * x
        w.append(s if t % 2 == 0 else -s)
    return w


def interpolate(nodes: NodeSet, q) -> Polynomial:
    """The unique polynomial of degree < p through the points (a_i, q_i)."""
    return Polynomial(tuple(solve_square(nodes, q)))
