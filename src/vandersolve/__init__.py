"""Closed-form solvers for square and generalized Vandermonde systems.

Everything mathematical runs over exact rationals: nodes and values are
ints or Fractions, and floats raise TypeError (`field.exact_scalar`).  A
float lane exists for the complexity benchmark.  See the README for the CLI.
"""

import collections

from . import symfuncs
from .field import (
    CountingNumber,
    OpCounter,
    ScalarParseError,
    parse_scalar,
)
from .kernel import (
    AffineSolutionSpace,
    InconsistentSystemError,
    KernelBasis,
    kernel_basis,
    solve_general,
)
from .poly import Polynomial
from .symfuncs import (
    DuplicateNodeError,
    NodeSet,
    poly_from_roots,
)
from .vandermonde import (
    DenseMatrix,
    DimensionMismatchError,
    determinant,
    interpolate,
    inverse,
    solve_square,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSolutionSpace",
    "CountingNumber",
    "DenseMatrix",
    "DimensionMismatchError",
    "DuplicateNodeError",
    "InconsistentSystemError",
    "KernelBasis",
    "NodeSet",
    "OpCounter",
    "Polynomial",
    "ScalarParseError",
    "compute_sigma",
    "deflate_all",
    "determinant",
    "interpolate",
    "inverse",
    "kernel_basis",
    "parse_scalar",
    "poly_from_roots",
    "solve_general",
    "solve_square",
]

# The package's `deflate_all(compute_sigma(nodes))` keeps its record shape for
# callers of the package; the closed forms read `symfuncs`' int rows directly.
_Sigma = collections.namedtuple("Sigma", "nodes coeffs sigma deflated", defaults=(None,))


def compute_sigma(nodes: NodeSet) -> _Sigma:
    """sigma(0..p) of the node set in `.sigma`, its int row in `.coeffs`."""
    coeffs = symfuncs.compute_sigma(nodes.pairs)
    return _Sigma(nodes, coeffs, symfuncs.normalized(coeffs))


def deflate_all(table: _Sigma) -> _Sigma:
    """The record with every deflated row, indices 0..p-1, in `.deflated`."""
    rows = symfuncs.deflate_all(table.nodes.pairs, table.coeffs)
    return table._replace(deflated=tuple(map(symfuncs.normalized, rows)))
