"""Dense polynomials as ascending coefficient vectors."""

import math
from dataclasses import dataclass

REL_TOL = 1e-9  # float residuals, relative to the Horner magnitude


def _trimmed(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Coefficients ascending by degree; the zero polynomial stores nothing.

    The highest stored coefficient is always nonzero (trailing zeros are
    trimmed on construction), so `degree` is len - 1 and the zero polynomial
    has degree -1.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        """Horner-scheme value at x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.evaluate(x)


def first_miss(poly: Polynomial, nodes, values, start: int = 0):
    """First node where the polynomial misses its value, or None.

    Returns (i, poly(nodes[i])) for the lowest i >= start whose value
    differs from values[i].  Exact comparison for rationals.  With floats
    the residual may be REL_TOL times the Horner magnitude
    sum |c_k| * |x|^k, which bounds the rounding error of the evaluation
    whatever the size of its terms; a NaN or overflowed residual, or an
    overflowed magnitude, is a miss.  One Horner evaluation per node.
    """
    for i in range(start, len(nodes)):
        x, want = nodes[i], values[i]
        lhs = poly.evaluate(x)
        if isinstance(lhs, float) or isinstance(want, float):
            tol = REL_TOL * _magnitude(poly.coeffs, abs(x))
            if not abs(lhs - want) <= tol < math.inf:
                return i, lhs
        elif lhs != want:
            return i, lhs
    return None


def _magnitude(coeffs, r):
    """sum |c_k| * r^k by Horner's scheme."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * r + abs(c)
    return acc
