"""The scalar contract: parsing, the exact-scalar gate, exact division, op counting.

The library solves over `fractions.Fraction` values: arbitrary-precision,
always in lowest terms, so overflow is impossible and equality is
decidable.  `exact_scalar` is the one gate, run where nodes enter a
`NodeSet` and values enter `solve_square` or `solve_general`:
ints and Fractions pass, other integers (numpy's, bool) become ints, and
every other type (float, `Decimal`, str) raises TypeError, since only
the caller knows whether 0.1 means its binary value or 1/10.
`parse_scalar` reads every literal exactly by `LITERAL`, the one grammar
of a literal, owned here; `exact_str` writes an exact scalar back at any
size.  After the gate, `is_exact` picks the path: the closed forms and
`Polynomial.evaluate` run in ints on exact scalars, and `CountingNumber`
runs their generic code; a solve takes exact nodes with exact values or
counted nodes with counted values, never a mix.
`exact_div` keeps a quotient of two ints rational on both paths, and
`over_common_denominator` lifts an exact row to ints over one denominator.

`CountingNumber` wraps a scalar and tallies every arithmetic operation into
a shared `OpCounter`; it divides through `exact_div`, so wrapped ints
stay rational.  It exists for complexity diagnostics only and never
appears in public results.
"""

import decimal
import math
import numbers
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

# How a scalar literal is written: a sign, digits, "." and "/", then an
# optional exponent, group 1 its digits.  No `_` and no inner space,
# whatever a given Python's `Fraction` accepts.
LITERAL = re.compile(r"[-+]?[\d./]+(?:[eE][-+]?(\d+))?")


class ScalarParseError(ValueError):
    """A literal that is neither "p/q", an integer nor a decimal."""


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into an exact Fraction.

    The grammar is this module's `LITERAL`, the same on every Python;
    `Fraction` builds 10**e in full, so a decimal exponent is bounded like
    the digits of an int literal, by `sys.get_int_max_str_digits()`.
    """
    literal = text.strip()
    if not literal:
        raise ScalarParseError("empty scalar literal")
    match = LITERAL.fullmatch(literal)
    if not match:
        raise ScalarParseError(f"cannot parse scalar {literal[:40]!r}")
    limit = sys.get_int_max_str_digits()
    if limit and match.group(1):
        digits = match.group(1).lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise ScalarParseError(
                f"exponent of {literal[:40]!r} exceeds {limit} in magnitude")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"cannot parse scalar {literal[:40]!r}") from exc


def exact_str(x) -> str:
    """An int or a Fraction as "p" or "p/q", at any number of digits.

    `str` refuses more digits than `sys.get_int_max_str_digits()`;
    `decimal.Decimal` has no such limit, so it writes those.
    """
    try:
        return str(x)
    except ValueError:
        n, d = (str(decimal.Decimal(i)) for i in (x.numerator, x.denominator))
        return n if d == "1" else f"{n}/{d}"


def exact_div(x, y):
    """Field division that keeps a quotient of two ints rational.

    `inverse` divides the int rows of exact nodes by their int column
    denominators through it, and a `CountingNumber` its wrapped values;
    true division would silently turn int/int into a float.
    """
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


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

    def __repr__(self):
        return f"CountingNumber({self.value!r})"


def exact_scalar(x):
    """x as the solvers take it: an int, a Fraction or a CountingNumber.

    Ints and Fractions come back unchanged and any other integer (numpy
    integers, bool) as an int; a `CountingNumber` passes through for op
    counting.  Everything else raises TypeError.
    """
    if type(x) is int or isinstance(x, (Fraction, CountingNumber)):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    raise TypeError(
        f"{type(x).__name__} {x!r} is not an exact scalar: pass an int or a "
        f"Fraction, such as Fraction(x) for a float's binary value or "
        f"Fraction(str(x)) for its decimal reading")


def over_common_denominator(row) -> tuple:
    """(L, ints) with L the lcm of the exact row's denominators and ints = L * row."""
    den = math.lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def is_exact(scalars) -> bool:
    """True when every scalar is an int or a Fraction: the exact path applies."""
    return all(isinstance(x, (int, Fraction)) for x in scalars)
