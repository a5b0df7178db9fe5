"""Dense polynomials as ascending coefficient vectors."""

from dataclasses import dataclass

from .field import values_equal


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
    differs from values[i].  Exact comparison for rationals, tolerance
    comparison for floats.  One Horner evaluation per node.
    """
    for i in range(start, len(nodes)):
        lhs = poly.evaluate(nodes[i])
        if not values_equal(lhs, values[i]):
            return i, lhs
    return None
