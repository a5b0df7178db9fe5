"""Square Vandermonde systems in closed form.

Inverse and solve both come from one sigma pass plus one deflation pass
(quadratic total work, no elimination); the determinant is the direct
product of node differences.  Column j of the inverse holds the
coefficients of the Lagrange basis polynomial that is 1 at node j and 0 at
every other node; the solve combines those columns with one reused
denominator per column, and `interpolate` wraps the result in a
`Polynomial` (evaluate it with `Polynomial.evaluate`).

`DenseMatrix` and `build_matrix` give the explicit matrix that the
elimination oracle and the tests work on; no closed form uses them.

Indexing note: everything here is 0-based.  Matrix entry (i, j) is
node_i ** j, and coefficient index i is the degree-i coefficient.
"""

from dataclasses import dataclass

from .field import exact_div
from .poly import Polynomial
from .symfuncs import NodeSet, compute_sigma, deflate_all

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


def _numerator_coeff(deflated_row, n: int, i: int):
    """Degree-i coefficient of prod over k != j of (x - a_k)."""
    c = deflated_row[n - 1 - i]
    return c if (n - 1 - i) % 2 == 0 else -c


def _column_denominator(nodes: NodeSet, j: int):
    """D_j = prod over k != j of (a_j - a_k), the Lagrange basis denominator.

    Computed as a direct product (the cheap route); the equivalent signed
    power sum over the deflated coefficients is asserted equal in the tests.
    """
    a_j = nodes[j]
    d = 1
    for k, a_k in enumerate(nodes):
        if k != j:
            d = d * (a_j - a_k)
    return d


def inverse(nodes: NodeSet) -> DenseMatrix:
    """Closed-form inverse of the square matrix on these nodes.

    Columns are independent (each one needs only its own deflated row and
    denominator), so they could be computed in parallel.
    """
    n = len(nodes)
    table = deflate_all(compute_sigma(nodes))
    columns = []
    for j in range(n):
        d = _column_denominator(nodes, j)
        row_j = table.deflated[j]
        columns.append([exact_div(_numerator_coeff(row_j, n, i), d) for i in range(n)])
    entries = tuple(columns[j][i] for i in range(n) for j in range(n))
    return DenseMatrix(n, n, entries)


def solve_square(nodes: NodeSet, q) -> list:
    """The unique w with V(nodes) @ w = q, from one deflation pass.

    Quadratic cost overall: the sigma pass, p deflation rows, one
    denominator per column reused across every output coefficient, and a
    final grid-vector sum.  No elimination anywhere.
    """
    n = len(nodes)
    if len(q) != n:
        raise DimensionMismatchError(f"{n} nodes but {len(q)} values")
    table = deflate_all(compute_sigma(nodes))
    scaled = []
    for j in range(n):
        scaled.append(exact_div(q[j], _column_denominator(nodes, j)))
    w = []
    for i in range(n):
        t = n - 1 - i
        s = 0
        for j in range(n):
            s = s + table.deflated[j][t] * scaled[j]
        w.append(s if t % 2 == 0 else -s)
    return w


def interpolate(nodes: NodeSet, q) -> Polynomial:
    """The unique polynomial of degree < p through the points (a_i, q_i)."""
    return Polynomial(tuple(solve_square(nodes, q)))
