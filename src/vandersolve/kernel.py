"""Null spaces of wide Vandermonde matrices and full solution sets.

For p nodes and n >= p unknowns the null space has dimension n - p and is
spanned by cyclic shifts of one signed-sigma vector; the complete solution
set of the p x n system is one particular solution (square solve on the
first p coefficients, zero-padded) plus that span.  Overdetermined systems
(p > n) get a separate solve-then-verify treatment whose failure is a
reported value, not an exception.
"""

from dataclasses import dataclass

from .field import exact_scalar
from .poly import Polynomial, first_miss
from .symfuncs import NodeSet, poly_from_roots
from .vandermonde import DimensionMismatchError, solve_square


class OverdeterminedInputError(ValueError):
    """p > n leaves no kernel to describe; use solve_overdetermined."""


@dataclass(frozen=True)
class KernelBasis:
    """n - p cyclic shifts of the signed-sigma vector.

    Each vector carries the nonzero block ((-1)^p sigma(p), ...,
    -sigma(1), 1) starting one position later than its predecessor; the
    trailing ones form an echelon pattern, so the family is free.
    """

    n: int
    p: int
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
    one slot.  Empty when p == n.
    """
    p = len(nodes)
    if p > n:
        raise OverdeterminedInputError(
            f"matrix with {p} rows and {n} columns has a trivial kernel; "
            "use solve_overdetermined")
    head = poly_from_roots(nodes).coeffs
    vectors = tuple(
        (0,) * k + head + (0,) * (n - p - 1 - k) for k in range(n - p))
    return KernelBasis(n=n, p=p, vectors=vectors)


def solve_general(nodes: NodeSet, q, n: int) -> AffineSolutionSpace:
    """All solutions of the p-equation, n-unknown system (p <= n).

    The particular solution solves the square system on the first p
    coefficient positions and is padded with n - p zeros.
    """
    p = len(nodes)
    if len(q) != p:
        raise DimensionMismatchError(f"{p} nodes but {len(q)} values")
    basis = kernel_basis(nodes, n)  # rejects p > n with the routing error
    particular = tuple(solve_square(nodes, list(q))) + (0,) * (n - p)
    return AffineSolutionSpace(particular=particular, basis=basis)


@dataclass(frozen=True)
class OverdeterminedResult:
    """Unique solution when consistent, else the first violated equation.

    `inconsistent_at` is the 0-based equation index; `lhs` is the value the
    candidate solution produces there and `rhs` the value the system asks
    for.
    """

    solution: tuple | None
    inconsistent_at: int | None = None
    lhs: object = None
    rhs: object = None

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve_overdetermined(nodes: NodeSet, q, n: int) -> OverdeterminedResult:
    """Solve on the first n nodes, then check the remaining equations.

    Each value passes `field.exact_scalar`, and the remaining equations
    are compared exactly.  Inconsistency comes back as a value, never as
    an exception.
    """
    p = len(nodes)
    if len(q) != p:
        raise DimensionMismatchError(f"{p} nodes but {len(q)} values")
    if p <= n:
        raise ValueError("system is not overdetermined; use solve_general")
    q = [exact_scalar(x) for x in q]
    head = NodeSet(nodes.nodes[:n])
    w = solve_square(head, q[:n])
    miss = first_miss(Polynomial(tuple(w)), nodes, q, start=n)
    if miss is not None:
        r, lhs = miss
        return OverdeterminedResult(None, inconsistent_at=r, lhs=lhs, rhs=q[r])
    return OverdeterminedResult(tuple(w))
