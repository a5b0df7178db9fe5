"""Square Vandermonde systems in closed form.

Inverse and solve both come from one sigma pass plus one deflation pass
(quadratic total work, no elimination); the determinant is the direct
product of node differences.  Column j of the inverse holds the
coefficients of the Lagrange basis polynomial that is 1 at node j and 0 at
every other node, divided by its denominator D_j; the solve sums those
columns weighted by q_j / D_j, and `interpolate` wraps the result in a
`Polynomial` (evaluate it with `Polynomial.evaluate`).

Exact inputs (every node and value an int or a Fraction) are lifted to
the int nodes b = L * a, L the lcm of the node denominators, and stay in
ints until one `Fraction(numerator, denominator)` per output.  The lift
is undone by the diagonal scaling V(b) = V(a) diag(L^i): the solution of
V(a) w = q is w_i = L^i w'_i with V(b) w' = q.  The solve puts the values
over one common denominator and the weights over G = lcm(D_j), so each
output coefficient is one integer dot product.  Every other scalar type
(floats, `CountingNumber`) runs the same passes generically on its own
operators; the op-count tests pin that path.  The determinant is the
plain product on every scalar type.

`DenseMatrix` and `build_matrix` give the explicit matrix that the
elimination oracle and the tests work on; no closed form uses them.

Indexing note: everything here is 0-based.  Matrix entry (i, j) is
node_i ** j, and coefficient index i is the degree-i coefficient.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .poly import Polynomial
from .symfuncs import NodeSet, compute_sigma, deflate_all, integer_lift

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
    denominator), so they could be computed in parallel.  Exact nodes give
    entry (i, j) = L^i * numerator / D_j over the lifted nodes, one
    Fraction each.
    """
    n = len(nodes)
    lifted = integer_lift(nodes)
    work = nodes if lifted is None else lifted[1]
    table = deflate_all(compute_sigma(work))
    powers = None if lifted is None else [lifted[0] ** i for i in range(n)]
    columns = []
    for j in range(n):
        d = _column_denominator(work, j)
        numerators = [_numerator_coeff(table.deflated[j], n, i) for i in range(n)]
        if powers is None:
            columns.append([c / d for c in numerators])
        else:
            columns.append([Fraction(s * c, d) for s, c in zip(powers, numerators)])
    entries = tuple(columns[j][i] for i in range(n) for j in range(n))
    return DenseMatrix(n, n, entries)


def solve_square(nodes: NodeSet, q) -> list:
    """The unique w with V(nodes) @ w = q, from one deflation pass.

    Quadratic cost overall: the sigma pass, p deflation rows, one
    denominator per column, and a final grid-vector sum.  No elimination
    anywhere.
    """
    n = len(nodes)
    if len(q) != n:
        raise DimensionMismatchError(f"{n} nodes but {len(q)} values")
    lifted = integer_lift(nodes, q)
    work = nodes if lifted is None else lifted[1]
    table = deflate_all(compute_sigma(work))
    denominators = [_column_denominator(work, j) for j in range(n)]
    if lifted is not None:
        return _combine_lifted(lifted[0], table.deflated, denominators, q)
    scaled = [q_j / d for q_j, d in zip(q, denominators)]
    w = []
    for i in range(n):
        t = n - 1 - i
        s = 0
        for j in range(n):
            s = s + table.deflated[j][t] * scaled[j]
        w.append(s if t % 2 == 0 else -s)
    return w


def _combine_lifted(scale: int, deflated, denominators, q) -> list:
    """The combine step over int nodes b = scale * a, returning w for the nodes a.

    q_j / D_j = c_j / (M * G) with M the common denominator of the values
    and G = lcm(D_j), so w'_i is an integer dot product over M * G and
    w_i = scale^i * w'_i.
    """
    g = lcm(*denominators)
    m = lcm(*(x.denominator for x in q))
    weights = [x.numerator * (m // x.denominator) * (g // d) for x, d in zip(q, denominators)]
    columns = list(zip(*deflated))  # columns[t][j] = deflated[j][t]
    n = len(columns)
    w = []
    power = 1
    for i in range(n):
        t = n - 1 - i
        s = sum(map(mul, columns[t], weights))
        w.append(Fraction(power * s if t % 2 == 0 else -power * s, m * g))
        power *= scale
    return w


def interpolate(nodes: NodeSet, q) -> Polynomial:
    """The unique polynomial of degree < p through the points (a_i, q_i)."""
    return Polynomial(tuple(solve_square(nodes, q)))
