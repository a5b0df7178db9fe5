"""Dense polynomials as ascending coefficient vectors.

`Polynomial.evaluate` runs Horner's scheme on the scalars' own operators,
except when every coefficient and x is an int or a Fraction: then it
evaluates in ints, with the coefficients over
their common denominator (cached per polynomial) and x = a/b
homogenised, and builds one Fraction at the end.  Any other scalar
(`CountingNumber`, a float) takes the generic loop.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .field import over_common_denominator


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

    @cached_property
    def _integer_form(self) -> tuple | None:
        """(D, N, ints) when every coefficient is an int or a Fraction, else None.

        D is the lcm of the coefficient denominators, N the numerators over
        D, and ints tells whether every coefficient is an int.
        """
        if not all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            return None
        den, nums = over_common_denominator(self.coeffs)
        return den, nums, all(isinstance(c, int) for c in self.coeffs)

    def evaluate(self, x):
        """Horner-scheme value at x.

        When the coefficients and x = a/b are ints or Fractions, the sum
        of N_k a^k b^(d-k) by homogeneous Horner in ints, over D b^d: one
        Fraction per call, or an int where the generic loop gives one.
        """
        lifted = self._integer_form if isinstance(x, (int, Fraction)) else None
        if lifted is None:
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        den, nums, ints = lifted
        if not nums:
            return 0
        a, b = x.numerator, x.denominator
        acc = nums[-1]
        scale = 1  # b^(d-k)
        for c in reversed(nums[:-1]):
            scale *= b
            acc = acc * a + c * scale
        if ints and isinstance(x, int):
            return acc
        return Fraction(acc, den * scale)


def first_miss(poly: Polynomial, nodes, values, start: int = 0):
    """First node where the polynomial misses its value, or None.

    Returns (i, poly(nodes[i])) for the lowest i >= start whose value
    differs from values[i].  The comparison is exact: one Horner
    evaluation per node and `!=`.
    """
    for i in range(start, len(nodes)):
        lhs = poly.evaluate(nodes[i])
        if lhs != values[i]:
            return i, lhs
    return None
