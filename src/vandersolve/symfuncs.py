"""Monomial coefficients of a node set.

sigma(t) is the sum of all products of t distinct nodes (sigma(0) = 1,
sigma(t) = 0 beyond the node count).  `compute_sigma` fills the whole row
in one triangular pass of exactly p(p+1)/2 multiply-add steps, updating a
single array in place with the inner index descending.  `deflate_all`
removes each node again in p-1 linear-time steps via

    deflated(t) = sigma(t) - a * deflated(t-1)

which is exact over rationals; over doubles the subtraction cancels
badly, so the float lane (`bench`) uses it for cost measurement only.

A `NodeSet` holds exact scalars only (`field.exact_scalar`): ints and
Fractions, or `CountingNumber` for op counting.  Exact nodes never reach
these passes as Fractions: each node is taken in its own homogeneous
coordinates, a_k = n_k / d_k in lowest terms, and the passes build the
int coefficients S of P(x) = prod(d_k x + n_k) instead, so sigma(t) =
S_t / prod d_k.  Node k turns the row into S_t <- d_k S_t + n_k S_(t-1),
and the row of P / (d_j x + n_j) is H_t = (S_t - n_j H_(t-1)) / d_j, an
exact division.  No gcd runs anywhere, and no entry exceeds
prod(|n_k| + d_k).  A node with d_k = 1 takes the plain step above, so
integer grids run the same pass as `CountingNumber`, which is the path
the op-count tests pin.
`SigmaTable.sigma` and `.deflated` divide the stored rows out on read.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .field import exact_scalar, is_exact
from .poly import Polynomial


class DuplicateNodeError(ValueError):
    """Two nodes compare equal; abscissae must be pairwise distinct."""

    def __init__(self, value, first: int, second: int):
        super().__init__(f"duplicate node {value} at positions {first} and {second}")
        self.value = value
        self.first = first
        self.second = second


@dataclass(frozen=True)
class NodeSet:
    """Ordered, pairwise-distinct abscissae.

    Order is preserved as given: it fixes the row order of every matrix
    built from the set.  Each node passes `field.exact_scalar`, so a
    float or a `Decimal` raises TypeError.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(map(exact_scalar, self.nodes)))
        if not self.nodes:
            raise ValueError("a NodeSet needs at least one node")
        seen = {}
        for i, a in enumerate(self.nodes):
            if a in seen:
                raise DuplicateNodeError(a, seen[a], i)
            seen[a] = i

    @property
    def p(self) -> int:
        return len(self.nodes)

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index):
        return self.nodes[index]


@dataclass(frozen=True)
class SigmaTable:
    """sigma(0..p) of a node set, optionally with every deflated row.

    Stored are the coefficients of P(x) = prod(d_k x + n_k), with
    a_k = n_k / d_k in lowest terms for exact nodes and d_k = 1 otherwise:
    `coeffs[t]` is codegree t, so coeffs[0] = prod d_k and
    sigma(t) = coeffs[t] / coeffs[0].  Row j of `rows` holds
    P(x) / (d_j x + n_j) the same way, and deflated(j, t) =
    rows[j][t] / rows[j][0].  `sigma` and `deflated` are derived on first
    read; they are the stored rows themselves when every d_k = 1.
    """

    nodes: NodeSet
    coeffs: tuple
    rows: tuple | None = None

    @property
    def p(self) -> int:
        return len(self.nodes)

    @cached_property
    def sigma(self) -> tuple:
        return _normalized(self.coeffs)

    @cached_property
    def deflated(self) -> tuple | None:
        """Row i: coefficients of the set with node i removed, indices 0..p-1."""
        if self.rows is None:
            return None
        return tuple(_normalized(row) for row in self.rows)


def _normalized(row) -> tuple:
    """row / row[0]: the row itself when row[0] is 1, else Fractions."""
    head = row[0]
    if head == 1:
        return row
    return tuple(Fraction(c, head) for c in row)


def homogeneous(nodes: NodeSet) -> list:
    """(n_k, d_k) per node: a_k = n_k / d_k in lowest terms, or (a_k, 1) off the exact path."""
    if is_exact(nodes):
        return [(a.numerator, a.denominator) for a in nodes]
    return [(a, 1) for a in nodes]


def compute_sigma(nodes: NodeSet) -> SigmaTable:
    """All coefficients of prod(d_k x + n_k) in one triangular pass."""
    p = len(nodes)
    s = [1] + [0] * p
    for i, (n, d) in enumerate(homogeneous(nodes), 1):
        if d == 1:
            for j in range(i, 0, -1):
                s[j] = s[j] + n * s[j - 1]
        else:
            for j in range(i, 0, -1):
                s[j] = d * s[j] + n * s[j - 1]
            s[0] *= d
    return SigmaTable(nodes=nodes, coeffs=tuple(s))


def _quotient(s, n, d) -> tuple:
    """Coefficients of P(x) / (d x + n), P given by s; every division is exact."""
    p = len(s) - 1
    row = [s[0] if d == 1 else s[0] // d] + [0] * (p - 1)
    if d == 1:
        for t in range(1, p):
            row[t] = s[t] - n * row[t - 1]
    else:
        for t in range(1, p):
            row[t] = (s[t] - n * row[t - 1]) // d
    return tuple(row)


def deflate_all(table: SigmaTable) -> SigmaTable:
    """New table with all p deflated rows filled (quadratic total work).

    Rows are independent, so the loop could run in parallel without
    changing any result.
    """
    s = table.coeffs
    rows = tuple(_quotient(s, n, d) for n, d in homogeneous(table.nodes))
    return replace(table, rows=rows)


def _signed(c, codegree: int):
    return c if codegree % 2 == 0 else -c


def poly_from_roots(nodes: NodeSet) -> Polynomial:
    """Monic polynomial whose roots are exactly the nodes.

    The coefficient of x^i is the codegree-(p-i) coefficient with
    alternating sign.  Exact nodes get Fraction coefficients, one
    coeffs[p-i] / prod d_k each.
    """
    p = len(nodes)
    s = compute_sigma(nodes).coeffs
    if not is_exact(nodes):
        return Polynomial(tuple(_signed(s[p - i], p - i) for i in range(p + 1)))
    return Polynomial(tuple(Fraction(_signed(s[p - i], p - i), s[0]) for i in range(p + 1)))

