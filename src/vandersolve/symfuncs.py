"""Monomial coefficients of a node set.

sigma(t) is the sum of all products of t distinct nodes (sigma(0) = 1,
sigma(t) = 0 beyond the node count).  `compute_sigma` fills the whole row
in one triangular pass of exactly p(p+1)/2 multiply-add steps, updating a
single array in place with the inner index descending.  `deflate` removes
one node again in p-1 linear-time steps via

    deflated(t) = sigma(t) - a * deflated(t-1)

which is exact over rationals; over floats the subtraction cancels badly,
so the float lane uses it for cost measurement only.

Exact inputs never reach these passes as Fractions: the entry points
(`poly_from_roots` here, the square solvers in `vandermonde`) first call
`integer_lift`, which scales the nodes by L, the lcm of their
denominators.  The passes then run on Python ints, with no gcd anywhere,
and sigma(t) of the original nodes is sigma(t) of the lifted ones over L^t.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import lcm

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
    built from the set.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
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

    def without(self, index: int) -> "NodeSet":
        """Copy with node `index` removed (needs at least two nodes)."""
        if not 0 <= index < len(self.nodes):
            raise IndexError(f"node index {index} out of range")
        return NodeSet(self.nodes[:index] + self.nodes[index + 1:])


@dataclass(frozen=True)
class SigmaTable:
    """sigma(0..p) of a node set, optionally with every deflated row.

    Row i of `deflated` holds the coefficients of the set with node i
    removed, indices 0..p-1.
    """

    nodes: NodeSet
    sigma: tuple
    deflated: tuple | None = None

    @property
    def p(self) -> int:
        return len(self.nodes)

    def sigma_at(self, t: int):
        """Total accessor: zero outside 0..p."""
        if 0 <= t <= self.p:
            return self.sigma[t]
        return 0

    def deflated_at(self, i: int, t: int):
        """Deflated coefficient of row i, zero outside 0..p-1."""
        if self.deflated is None:
            raise ValueError("deflated rows not computed; call deflate_all first")
        if 0 <= t < self.p:
            return self.deflated[i][t]
        return 0


def integer_lift(nodes: NodeSet, values=()) -> tuple | None:
    """(L, b): L the lcm of the node denominators and b the NodeSet L * a of ints.

    None unless every node and value is an int or a Fraction; every other
    scalar type (floats, CountingNumber) takes the generic path.  Scaling
    by L > 0 keeps the nodes distinct and in order.
    """
    if not all(isinstance(x, (int, Fraction)) for x in chain(nodes, values)):
        return None
    scale = lcm(*(a.denominator for a in nodes))
    return scale, NodeSet(tuple(a.numerator * (scale // a.denominator) for a in nodes))


def compute_sigma(nodes: NodeSet) -> SigmaTable:
    """All monomial coefficients of the node set in one triangular pass."""
    p = len(nodes)
    s = [1] + [0] * p
    for i in range(1, p + 1):
        a = nodes[i - 1]
        for j in range(i, 0, -1):
            s[j] = s[j] + a * s[j - 1]
    return SigmaTable(nodes=nodes, sigma=tuple(s))


def deflate(table: SigmaTable, index: int) -> tuple:
    """Coefficients of the set with node `index` removed, in linear time."""
    p = table.p
    if not 0 <= index < p:
        raise IndexError(f"node index {index} out of range for p={p}")
    a = table.nodes[index]
    row = [1] + [0] * (p - 1)
    for t in range(1, p):
        row[t] = table.sigma[t] - a * row[t - 1]
    return tuple(row)


def deflate_all(table: SigmaTable) -> SigmaTable:
    """New table with all p deflated rows filled (quadratic total work).

    Rows are independent, so the loop could run in parallel without
    changing any result.
    """
    rows = tuple(deflate(table, i) for i in range(table.p))
    return replace(table, deflated=rows)


def _signed(c, codegree: int):
    return c if codegree % 2 == 0 else -c


def poly_from_roots(nodes: NodeSet) -> Polynomial:
    """Monic polynomial whose roots are exactly the nodes.

    The coefficient of x^i is the codegree-(p-i) coefficient with
    alternating sign.  Exact nodes get Fraction coefficients, one
    sigma(t)(L * a) / L^t each.
    """
    p = len(nodes)
    lifted = integer_lift(nodes)
    if lifted is None:
        sigma = compute_sigma(nodes).sigma
        return Polynomial(tuple(_signed(sigma[p - i], p - i) for i in range(p + 1)))
    scale, ints = lifted
    sigma = compute_sigma(ints).sigma
    return Polynomial(tuple(Fraction(_signed(sigma[p - i], p - i), scale ** (p - i))
                            for i in range(p + 1)))


def check_root_identity(table: SigmaTable, a):
    """Signed power sum that vanishes exactly iff `a` is one of the nodes.

    Equals the monic root-product polynomial evaluated at `a`, so off-node
    inputs return prod(a - a_i).
    """
    p = table.p
    acc = 1
    for i in range(p - 1, -1, -1):
        acc = acc * a + _signed(table.sigma[p - i], p - i)
    return acc
