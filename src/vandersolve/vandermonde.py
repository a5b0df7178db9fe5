"""Square Vandermonde systems in closed form.

Inverse and solve run the same four layers on every scalar type, with
quadratic total work and no elimination; the first three read only the
nodes' (n_k, d_k) pairs (`NodeSet.pairs`):

1. `symfuncs.compute_sigma`, the sigma pass, one int row;
2. `symfuncs.deflate_all`, the deflated rows, one int row per node;
3. `_column_denominators`, one denominator per column;
4. the combine: `_combine_exact` or `_combine_generic` for the solve,
   one `field.exact_div` per entry for the inverse.

Column j of the inverse holds the coefficients of the Lagrange basis
polynomial that is 1 at node j and 0 at every other node, divided by
its denominator; the solve sums those columns weighted by q_j, and
`interpolate` wraps the result in a `Polynomial` (evaluate it with
`Polynomial.evaluate`).  The determinant is the plain product of node
differences.

Inputs are exact scalars (`field.exact_scalar` gates the nodes in
`NodeSet` and the values in `NodeSet.gate_values`).  With a_k = n_k / d_k
(`NodeSet.pairs`), the rows are the int rows H_j of prod over k != j of
(d_k x + n_k) (see `symfuncs`), and the column denominator is
E_j = prod over k != j of (n_j d_k - n_k d_j).  The factors prod over
k != j of d_k cancel between the two, so inverse entry (i, j) is
(-1)^(p-1-i) d_j^(p-1) H_j[p-1-i] / E_j.  `inverse` and
`_combine_generic` run the layers once on the whole node set over the
full p x p table of rows.  `_combine_generic` runs on `CountingNumber`
nodes, whose d_k are all 1, so E_j is the Lagrange denominator prod
over k != j of (a_j - a_k): the sum on the scalars' own operators, one
division per column, then p^2 multiply-adds; the op-count tests pin
that path.

The exact solve puts the values over one common denominator and the
weights d_j^(p-1) / E_j over G = lcm(E_j), so each output coefficient is
one integer of the row N = sum_j c_j H_j.  `_combine_exact` runs the
sigma pass and the deflation on each block of BLOCK consecutive pairs,
takes the block's part of N as integer dot products, and folds it into
one running numerator, so no p x p table is ever held.  For p <= BLOCK
that is the full-table combine itself.  It is an algorithm equivalent
to the table over all p nodes, and a test holds the two bit-identical.
The node set fixes the lane (`NodeSet.exact`), and a solve's values
must keep to it (`NodeSet.gate_values`).  `inverse` and
`poly_from_roots` take either kind of node set, `Polynomial.evaluate`
any mix.

`DenseMatrix` is the record `inverse` returns.

Indexing note: everything here is 0-based.  Matrix entry (i, j) is
node_i ** j, and coefficient index i is the degree-i coefficient.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from .field import exact_div, over_common_denominator
from .poly import Polynomial
from .symfuncs import DimensionMismatchError, NodeSet, ascending, compute_sigma, deflate_all

__all__ = [
    "DenseMatrix",
    "DimensionMismatchError",
    "determinant",
    "interpolate",
    "inverse",
    "solve_square",
]

BLOCK = 16  # nodes per block of the exact combine


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
    n, pairs = len(nodes), nodes.pairs
    rows = deflate_all(pairs, compute_sigma(pairs))
    columns = []
    for row, (_, d), e in zip(rows, pairs, _column_denominators(pairs)):
        lead = d ** (n - 1)
        columns.append([exact_div(c if d == 1 else lead * c, e) for c in ascending(row)])
    entries = tuple(columns[j][i] for i in range(n) for j in range(n))
    return DenseMatrix(n, n, entries)


def solve_square(nodes: NodeSet, q) -> list:
    """The unique w with V(nodes) @ w = q, from the closed form's layers.

    Quadratic cost overall: one denominator per column, then on exact
    nodes, per block of BLOCK nodes, the sigma pass, the block's
    deflation rows and their dot products with the column weights,
    folded into one running numerator; on counted nodes the sigma pass,
    p deflation rows and a final grid-vector sum.  No elimination
    anywhere.  `NodeSet.gate_values` checks the values first.
    """
    q = nodes.gate_values(q)
    pairs = nodes.pairs
    denominators = _column_denominators(pairs)
    if nodes.exact:
        return _combine_exact(pairs, denominators, q)
    return _combine_generic(deflate_all(pairs, compute_sigma(pairs)), denominators, q)


def _combine_exact(pairs, denominators, q) -> list:
    """The layers and the combine on exact nodes, BLOCK nodes at a time.

    w_i = (-1)^(p-1-i) sum_j H_j[p-1-i] * q_j * d_j^(p-1) / E_j.  With
    the values over their common denominator M (q_j = y_j / M) and
    G = lcm(E_j), the column weight c_j = y_j (G / E_j) d_j^(p-1) is an
    integer and w_i = (-1)^(p-1-i) N[p-1-i] / (M * G) for the integer
    row N = sum_j c_j H_j.  Block b runs the sigma pass and the
    deflation on its own nodes, giving P_b and the rows H_j^b of
    P_b / (d_j x + n_j), and its part N_b = sum over j in b of c_j H_j^b
    is one integer dot product per coefficient.  Since
    H_j = H_j^b * P / P_b, the blocks fold as N <- N * P_b + P * N_b,
    then P <- P * P_b, P being the product over the nodes so far.
    """
    p = len(pairs)
    g = lcm(*denominators)
    m, nums = over_common_denominator(q)
    weights = [y * (g // e) * d ** (p - 1) for y, (_, d), e in zip(nums, pairs, denominators)]
    num, prod = [], (1,)  # the empty sum over the empty product
    for b0 in range(0, p, BLOCK):
        block = pairs[b0:b0 + BLOCK]
        prod_b = compute_sigma(block)
        rows = deflate_all(block, prod_b)
        c = weights[b0:b0 + BLOCK]
        part = [sum(map(mul, column, c)) for column in zip(*rows)]
        num = _times(num, prod_b, _times(prod, part))
        prod = _times(prod, prod_b)
    return [Fraction(s, m * g) for s in ascending(num)]


def _times(a, b, out=None) -> list:
    """out + a * b on int coefficient rows, b the short one, out as long as the product."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    width = len(a)
    for i, y in enumerate(b):
        out[i:i + width] = map(add, out[i:i + width], map(mul, a, repeat(y)))
    return out


def _combine_generic(rows, denominators, q) -> list:
    """The combine step on counted scalars' own operators: the path the op counts pin.

    Counted nodes have every d = 1, so each value is divided by its
    Lagrange denominator.
    """
    scaled = [x / e for x, e in zip(q, denominators)]
    return list(ascending([sum(row[t] * x for row, x in zip(rows, scaled))
                           for t in range(len(rows))]))


def interpolate(nodes: NodeSet, q) -> Polynomial:
    """The unique polynomial of degree < p through the points (a_i, q_i)."""
    return Polynomial(tuple(solve_square(nodes, q)))
