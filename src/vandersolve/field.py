"""Scalar parsing, exact division and operation counting.

The exact lane works on `fractions.Fraction` values: arbitrary-precision,
always in lowest terms with a positive denominator, so overflow is
impossible and equality is decidable.  The closed forms take ints and
Fractions alike, run on the int numerators and denominators of the nodes
(`symfuncs.homogeneous`) and build one Fraction per output.  The elimination oracle takes the same
scalars by a path of its own: it scales each augmented row to primitive
ints, eliminates fraction-free and builds one Fraction per output.  Every
other scalar type (floats, `CountingNumber`) runs the generic
elimination, with plain ints as the identities 0 and 1; `exact_div`
keeps a quotient of two ints rational there.  `Polynomial.evaluate` also
runs Horner's scheme in ints when the scalars are exact.  The float lane
uses machine doubles; the CLI's elimination cross-check and sigma
certificate compare through `values_equal`, which falls back to a
tolerance comparison, and residuals through `poly.first_miss`.

`CountingNumber` wraps a scalar and tallies every arithmetic operation into
a shared `OpCounter`; it divides through `exact_div`, so wrapped ints
stay rational.  It exists for complexity diagnostics only and never
appears in public results.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction | float | int


class ScalarParseError(ValueError):
    """A literal that is neither "p/q", an integer nor a decimal."""


def parse_scalar(text: str, float_mode: bool = False) -> Scalar:
    """Parse "p/q", "p" or a decimal literal.

    Exact mode returns a Fraction (decimal literals convert exactly);
    float mode returns a finite machine double.
    """
    literal = text.strip()
    if not literal:
        raise ScalarParseError("empty scalar literal")
    try:
        value = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"cannot parse scalar {literal!r}") from exc
    if not float_mode:
        return value
    try:
        result = float(value)
    except OverflowError as exc:
        raise ScalarParseError(f"scalar {literal!r} overflows a double") from exc
    if not math.isfinite(result):
        raise ScalarParseError(f"scalar {literal!r} is not finite in float mode")
    return result


def exact_div(x, y):
    """Field division that keeps int identities exact: int/int stays rational.

    Plain ints only ever appear as the identities 0 and 1 inside the
    elimination oracle; true division would silently turn them into floats.
    """
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def values_equal(x, y, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Exact equality, except when floats are involved (diagnostic paths only)."""
    if isinstance(x, float) or isinstance(y, float):
        return math.isclose(x, y, rel_tol=rel_tol, abs_tol=abs_tol)
    return x == y


@dataclass
class OpCounter:
    """Tally of field operations, grouped by kind."""

    adds: int = 0
    subs: int = 0
    muls: int = 0
    divs: int = 0
    negs: int = 0

    @property
    def total(self) -> int:
        return self.adds + self.subs + self.muls + self.divs + self.negs


class CountingNumber:
    """Scalar that records every arithmetic operation in a shared OpCounter.

    Comparisons and hashing are free: only +, -, *, / and unary minus count
    as field operations.  Not thread-safe.
    """

    __slots__ = ("value", "counter")

    def __init__(self, value, counter: OpCounter):
        self.value = value
        self.counter = counter

    @staticmethod
    def _bare(x):
        return x.value if isinstance(x, CountingNumber) else x

    def __add__(self, other):
        self.counter.adds += 1
        return CountingNumber(self.value + self._bare(other), self.counter)

    def __radd__(self, other):
        self.counter.adds += 1
        return CountingNumber(self._bare(other) + self.value, self.counter)

    def __sub__(self, other):
        self.counter.subs += 1
        return CountingNumber(self.value - self._bare(other), self.counter)

    def __rsub__(self, other):
        self.counter.subs += 1
        return CountingNumber(self._bare(other) - self.value, self.counter)

    def __mul__(self, other):
        self.counter.muls += 1
        return CountingNumber(self.value * self._bare(other), self.counter)

    def __rmul__(self, other):
        self.counter.muls += 1
        return CountingNumber(self._bare(other) * self.value, self.counter)

    def __truediv__(self, other):
        self.counter.divs += 1
        return CountingNumber(exact_div(self.value, self._bare(other)), self.counter)

    def __rtruediv__(self, other):
        self.counter.divs += 1
        return CountingNumber(exact_div(self._bare(other), self.value), self.counter)

    def __neg__(self):
        self.counter.negs += 1
        return CountingNumber(-self.value, self.counter)

    def __eq__(self, other):
        return self.value == self._bare(other)

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return bool(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"CountingNumber({self.value!r})"


def counting(values, counter: OpCounter) -> list:
    """Wrap a sequence of scalars for instrumentation."""
    return [CountingNumber(v, counter) for v in values]
