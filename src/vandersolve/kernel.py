"""Solution sets of p x n Vandermonde systems, for any p and any n >= 1.

For p nodes and n >= p unknowns the null space has dimension n - p and is
spanned by cyclic shifts of one signed-sigma vector; the complete solution
set of the p x n system is one particular solution (square solve on the
first p coefficients, zero-padded) plus that span.  For p > n the kernel
is trivial: the square solve on the first n nodes is the only candidate,
and each remaining equation is checked exactly.  A system that misses one
has no solution and raises InconsistentSystemError.  `kernel_basis`
owns the rule n >= 1 and `solve_general` runs it first: n < 1 raises
ValueError("need n >= 1").
"""

from dataclasses import dataclass

from .field import exact_scalar
from .poly import Polynomial, first_miss
from .symfuncs import NodeSet, poly_from_roots
from .vandermonde import DimensionMismatchError, solve_square


class InconsistentSystemError(ValueError):
    """A tall system with no solution: equation `row` is the first one missed.

    `lhs` is the value there of the unique solution of the first n
    equations, and `rhs` the value the system asks for.
    """

    def __init__(self, row: int, lhs, rhs):
        super().__init__(f"the system has no solution: equation {row} is missed")
        self.row, self.lhs, self.rhs = row, lhs, rhs


@dataclass(frozen=True)
class KernelBasis:
    """n - p cyclic shifts of the signed-sigma vector.

    Each vector carries the nonzero block ((-1)^p sigma(p), ...,
    -sigma(1), 1) starting one position later than its predecessor; the
    trailing ones form an echelon pattern, so the family is free.
    """

    vectors: tuple

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class AffineSolutionSpace:
    """particular + span(basis): every solution of the p x n system."""

    particular: tuple
    basis: KernelBasis


def kernel_basis(nodes: NodeSet, n: int) -> KernelBasis:
    """Basis of the null space of the p x n matrix on these nodes.

    The first vector holds the coefficients of the monic root product
    prod (x - a_i), position t being (-1)^(p-t) sigma(p-t) for t = 0..p
    (ending in 1), the rest is zero; later vectors shift the block right
    one slot.  Empty when p >= n: the kernel is trivial.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = len(nodes)
    if p >= n:
        return KernelBasis(())
    head = poly_from_roots(nodes).coeffs
    vectors = tuple(
        (0,) * k + head + (0,) * (n - p - 1 - k) for k in range(n - p))
    return KernelBasis(vectors)


def solve_general(nodes: NodeSet, q, n: int) -> AffineSolutionSpace:
    """All solutions of the p-equation, n-unknown system, for any p and n.

    Each value passes `field.exact_scalar`.  The particular solution
    solves the square system on the first min(p, n) nodes: the node set
    itself for p <= n, padded with n - p zeros, and a `NodeSet` of the
    first n nodes for p > n, every remaining equation then compared
    exactly, the first one missed raising InconsistentSystemError;
    n < 1 raises ValueError before any of it.
    """
    p = len(nodes)
    if len(q) != p:
        raise DimensionMismatchError(f"{p} nodes but {len(q)} values")
    basis = kernel_basis(nodes, n)
    q = [exact_scalar(x) for x in q]
    m = min(p, n)
    w = tuple(solve_square(nodes if p <= n else NodeSet(nodes[:n]), q[:m]))
    miss = first_miss(Polynomial(w), nodes, q, start=m)
    if miss is not None:
        raise InconsistentSystemError(*miss, q[miss[0]])
    return AffineSolutionSpace(particular=w + (0,) * (n - m), basis=basis)
