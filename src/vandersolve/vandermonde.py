"""Square Vandermonde systems in closed form.

Inverse and solve both come from one sigma pass plus one deflation pass
(quadratic total work, no elimination); the determinant is the direct
product of node differences.  Column j of the inverse holds the
coefficients of the Lagrange basis polynomial that is 1 at node j and 0 at
every other node, divided by its denominator D_j; the solve sums those
columns weighted by q_j / D_j, and `interpolate` wraps the result in a
`Polynomial` (evaluate it with `Polynomial.evaluate`).

Inputs are exact scalars (`field.exact_scalar` gates the nodes in
`NodeSet` and the values here): ints and Fractions stay in ints until
one `Fraction(numerator, denominator)` per output.  With
a_k = n_k / d_k, the table holds the int rows H_j of
prod over k != j of (d_k x + n_k) (see `symfuncs`), and the column
denominator becomes E_j = prod over k != j of (n_j d_k - n_k d_j).  The
factors prod over k != j of d_k cancel between the two, so inverse entry
(i, j) is (-1)^(p-1-i) d_j^(p-1) H_j[p-1-i] / E_j.  The solve puts the
values over one common denominator and the weights d_j^(p-1) / E_j over
G = lcm(E_j), so each output coefficient is one integer dot product.
`CountingNumber` nodes or values run the same passes generically on
their own operators, with every d_k = 1 and E_j = D_j, the Lagrange
basis denominator; the op-count tests pin that path.  The determinant
is the plain product on every scalar type.

`DenseMatrix` and `build_matrix` give the explicit matrix that the
elimination oracle and the tests work on; no closed form uses them.

Indexing note: everything here is 0-based.  Matrix entry (i, j) is
node_i ** j, and coefficient index i is the degree-i coefficient.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .field import exact_scalar, is_exact
from .poly import Polynomial
from .symfuncs import NodeSet, compute_sigma, deflate_all, homogeneous

__all__ = [
    "DenseMatrix",
    "DimensionMismatchError",
    "Polynomial",
    "build_matrix",
    "determinant",
    "interpolate",
    "inverse",
    "solve_square",
]


class DimensionMismatchError(ValueError):
    """A vector or dimension does not match the node count."""


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major matrix of scalars."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def mat_vec(self, v) -> list:
        if len(v) != self.cols:
            raise DimensionMismatchError(f"matrix has {self.cols} columns, vector {len(v)}")
        out = []
        for i in range(self.rows):
            s = 0
            for j in range(self.cols):
                s = s + self.at(i, j) * v[j]
            out.append(s)
        return out

    def mat_mul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.cols} columns against {other.rows} rows")
        entries = []
        for i in range(self.rows):
            for j in range(other.cols):
                s = 0
                for k in range(self.cols):
                    s = s + self.at(i, k) * other.at(k, j)
                entries.append(s)
        return DenseMatrix(self.rows, other.cols, tuple(entries))


def build_matrix(nodes: NodeSet, n: int) -> DenseMatrix:
    """p x n matrix with rows (1, a, a^2, ..., a^(n-1))."""
    if n < 1:
        raise ValueError("need at least one column")
    entries = []
    for a in nodes:
        row = [1]
        for _ in range(n - 1):
            row.append(row[-1] * a)
        entries.extend(row)
    return DenseMatrix(len(nodes), n, tuple(entries))


def determinant(nodes: NodeSet):
    """prod over j < i of (a_i - a_j); nonzero because nodes are distinct."""
    seq = list(nodes)
    det = 1
    for i in range(len(seq)):
        for j in range(i):
            det = det * (seq[i] - seq[j])
    return det


def _numerator_coeff(row, n: int, i: int):
    """Degree-i coefficient of row j's polynomial prod over k != j of (d_k x - n_k)."""
    c = row[n - 1 - i]
    return c if (n - 1 - i) % 2 == 0 else -c


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
    table = deflate_all(compute_sigma(nodes))
    pairs = homogeneous(nodes)
    exact = is_exact(nodes)
    columns = []
    for j, ((_, d_j), e) in enumerate(zip(pairs, _column_denominators(pairs))):
        numerators = [_numerator_coeff(table.rows[j], n, i) for i in range(n)]
        if exact:
            lead = d_j ** (n - 1)
            columns.append([Fraction(lead * c, e) for c in numerators])
        else:
            columns.append([c / e for c in numerators])
    entries = tuple(columns[j][i] for i in range(n) for j in range(n))
    return DenseMatrix(n, n, entries)


def solve_square(nodes: NodeSet, q) -> list:
    """The unique w with V(nodes) @ w = q, from one deflation pass.

    Quadratic cost overall: the sigma pass, p deflation rows, one
    denominator per column, and a final grid-vector sum.  No elimination
    anywhere.  Each value passes `field.exact_scalar`.
    """
    n = len(nodes)
    if len(q) != n:
        raise DimensionMismatchError(f"{n} nodes but {len(q)} values")
    q = [exact_scalar(x) for x in q]
    table = deflate_all(compute_sigma(nodes))
    if is_exact(nodes, q):
        pairs = homogeneous(nodes)
        return _combine_exact(table.rows, pairs, _column_denominators(pairs), q)
    denominators = _column_denominators([(a, 1) for a in nodes])
    scaled = [q_j / d for q_j, d in zip(q, denominators)]
    w = []
    for i in range(n):
        t = n - 1 - i
        s = 0
        for j in range(n):
            s = s + table.deflated[j][t] * scaled[j]
        w.append(s if t % 2 == 0 else -s)
    return w


def _combine_exact(rows, pairs, denominators, q) -> list:
    """The combine step on the integer rows H_j of an exact table.

    w_i = (-1)^(p-1-i) sum_j H_j[p-1-i] * q_j * d_j^(p-1) / E_j.  The
    values go over their common denominator M and the column weights
    d_j^(p-1) / E_j over G = lcm(E_j), so w_i is one integer dot product
    over M * G.
    """
    n = len(rows)
    g = lcm(*denominators)
    m = lcm(*(x.denominator for x in q))
    weights = [x.numerator * (m // x.denominator) * (g // e) * d ** (n - 1)
               for x, (_, d), e in zip(q, pairs, denominators)]
    columns = list(zip(*rows))  # columns[t][j] = rows[j][t]
    w = []
    for i in range(n):
        t = n - 1 - i
        s = sum(map(mul, columns[t], weights))
        w.append(Fraction(s if t % 2 == 0 else -s, m * g))
    return w


def interpolate(nodes: NodeSet, q) -> Polynomial:
    """The unique polynomial of degree < p through the points (a_i, q_i)."""
    return Polynomial(tuple(solve_square(nodes, q)))
