"""Closed-form solvers for square and generalized Vandermonde systems.

Everything mathematical runs over exact rationals: nodes and values are
ints or Fractions, and floats raise TypeError (`field.exact_scalar`).  A
float lane exists for the complexity benchmark.  See the README for the CLI.
"""

from .field import (
    CountingNumber,
    OpCounter,
    ScalarParseError,
    counting,
    parse_scalar,
)
from .kernel import (
    AffineSolutionSpace,
    KernelBasis,
    OverdeterminedInputError,
    OverdeterminedResult,
    kernel_basis,
    solve_general,
    solve_overdetermined,
)
from .poly import Polynomial
from .symfuncs import (
    DuplicateNodeError,
    NodeSet,
    SigmaTable,
    compute_sigma,
    deflate_all,
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
    "KernelBasis",
    "NodeSet",
    "OpCounter",
    "OverdeterminedInputError",
    "OverdeterminedResult",
    "Polynomial",
    "ScalarParseError",
    "SigmaTable",
    "compute_sigma",
    "counting",
    "deflate_all",
    "determinant",
    "interpolate",
    "inverse",
    "kernel_basis",
    "parse_scalar",
    "poly_from_roots",
    "solve_general",
    "solve_overdetermined",
    "solve_square",
]
