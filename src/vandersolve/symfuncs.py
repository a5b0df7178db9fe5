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
Fractions, or `CountingNumber` for op counting; it fixes a solve's lane
(`NodeSet.exact`) and holds the values to it (`NodeSet.gate_values`).
Exact nodes never reach these passes as Fractions: each node is taken in
its own homogeneous coordinates, a_k = n_k / d_k in lowest terms.
`NodeSet.pairs` holds those (n_k, d_k), formed when the node set is built,
or (a_k, 1) for every node once one is a `CountingNumber`.  The sigma
pass, the deflation and the column denominators of `vandermonde` are
functions of such a tuple of pairs alone, so a run of consecutive nodes
is a slice of it.  The passes build the int coefficients S of
P(x) = prod(d_k x + n_k) instead of sigma, so sigma(t) = S_t / prod d_k.
Node k turns the row into
S_t <- d_k S_t + n_k S_(t-1), and the row of P / (d_j x + n_j) is
H_t = (S_t - n_j H_(t-1)) / d_j, an exact division.  No gcd runs
anywhere, and no entry exceeds prod(|n_k| + d_k).  A node with d_k = 1
takes the plain step above, so integer grids run the same pass as
`CountingNumber`, which is the path the op-count tests pin.
Both passes return these int rows as plain tuples for the closed forms;
`normalized` divides one by its head, giving sigma or a deflated row, and
`ascending` reads one as a polynomial by ascending degree, codegree t
at degree len - 1 - t with the sign (-1)^t: the one home of that rule.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .field import CountingNumber, exact_scalar, exact_str
from .poly import Polynomial


class DimensionMismatchError(ValueError):
    """A vector or dimension does not match the node count."""


class DuplicateNodeError(ValueError):
    """Two nodes compare equal; abscissae must be pairwise distinct."""

    def __init__(self, value, first: int, second: int):
        super().__init__(f"duplicate node {exact_str(value)} at positions {first} and {second}")
        self.value = value
        self.first = first
        self.second = second


@dataclass(frozen=True)
class NodeSet:
    """Ordered, pairwise-distinct abscissae.

    Order is preserved as given: it fixes the row order of every matrix
    built from the set.  Each node passes `field.exact_scalar`, so a
    float or a `Decimal` raises TypeError.  The `pairs` and `exact` are
    fixed as the set is built, and a repeat is found on the pairs.
    """

    nodes: tuple
    pairs: tuple = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(map(exact_scalar, self.nodes))
        if not nodes:
            raise ValueError("a NodeSet needs at least one node")
        try:
            pairs, exact = tuple([(a.numerator, a.denominator) for a in nodes]), True
        except AttributeError:  # a CountingNumber has no numerator
            pairs, exact = tuple([(a, 1) for a in nodes]), False
        first = {}
        for i, pair in enumerate(pairs):
            if first.setdefault(pair, i) != i:
                raise DuplicateNodeError(nodes[i], first[pair], i)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "exact", exact)

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index):
        return self.nodes[index]

    def gate_values(self, q) -> list:
        """A solve's values, one per node, through `field.exact_scalar` and all in this lane.

        A solve is all exact or all counted, else TypeError: ints and
        Fractions on exact nodes, `CountingNumber`s on counted ones.
        """
        if len(q) != len(self.nodes):
            raise DimensionMismatchError(f"{len(self.nodes)} nodes but {len(q)} values")
        q = [exact_scalar(x) for x in q]
        if any(isinstance(x, CountingNumber) == self.exact for x in q):
            raise TypeError("a solve is all exact or all counted: int and Fraction values "
                            "on exact nodes, CountingNumber values on counted nodes")
        return q


def normalized(row) -> tuple:
    """row / row[0], sigma or a deflated row: the row itself when row[0] is 1, else Fractions."""
    head = row[0]
    if head == 1:
        return row
    return tuple(Fraction(c, head) for c in row)


def compute_sigma(pairs) -> tuple:
    """All coefficients of prod(d_k x + n_k) over the (n_k, d_k) pairs, codegree 0 first."""
    s = [1] + [0] * len(pairs)
    for i, (n, d) in enumerate(pairs, 1):
        if d == 1:
            for j in range(i, 0, -1):
                s[j] = s[j] + n * s[j - 1]
        else:
            for j in range(i, 0, -1):
                s[j] = d * s[j] + n * s[j - 1]
            s[0] *= d
    return tuple(s)


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


def deflate_all(pairs, coeffs: tuple) -> tuple:
    """Row j: the coefficients of P(x) / (d_j x + n_j), P given by `coeffs`.

    `coeffs` is `compute_sigma(pairs)`; the p rows take quadratic total
    work.  Rows are independent, so the loop could run in parallel without
    changing any result.
    """
    return tuple(_quotient(coeffs, n, d) for n, d in pairs)


def ascending(row) -> tuple:
    """The row by ascending degree: codegree t at degree len - 1 - t, negated when t is odd."""
    return tuple(row[t] if t % 2 == 0 else -row[t] for t in range(len(row) - 1, -1, -1))


def poly_from_roots(nodes: NodeSet) -> Polynomial:
    """Monic polynomial whose roots are exactly the nodes, `ascending` of the sigma row.

    Exact nodes get Fraction coefficients, one S_(p-i) / prod d_k each.
    """
    s = compute_sigma(nodes.pairs)
    if not nodes.exact:
        return Polynomial(ascending(s))
    return Polynomial(tuple(Fraction(c, s[0]) for c in ascending(s)))

