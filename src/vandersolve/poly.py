"""Dense polynomials as ascending coefficient vectors.

`Polynomial.evaluate` runs Horner's scheme on the scalars' own operators,
except when every coefficient and x is an int or a Fraction: then it
evaluates in ints, with the coefficients over their common denominator
(cached per polynomial) and x = a/b homogenised, and builds one Fraction
at the end.  Floats and `CountingNumber` take the generic loop.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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

    @cached_property
    def _integer_form(self) -> tuple | None:
        """(D, N, ints) when every coefficient is an int or a Fraction, else None.

        D is the lcm of the coefficient denominators, N the numerators over
        D, and ints tells whether every coefficient is an int.
        """
        if not all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            return None
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
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
