"""Scalar lane: parsing, exact arithmetic contracts, operation counting."""

import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from vandersolve.field import (
    CountingNumber,
    OpCounter,
    ScalarParseError,
    counting,
    exact_div,
    exact_scalar,
    parse_scalar,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero_fractions = fractions.filter(lambda f: f != 0)


@pytest.mark.parametrize("text,expected", [
    ("5", Fraction(5)),
    ("-3", Fraction(-3)),
    ("7/3", Fraction(7, 3)),
    ("-3/4", Fraction(-3, 4)),
    ("1.25", Fraction(5, 4)),
    (" 2 ", Fraction(2)),
    ("6/4", Fraction(3, 2)),
])
def test_parse_exact(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1/0", "2/", "1/2/3", "--3", "nan", "inf"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_parse_bounds_the_decimal_exponent():
    limit = sys.get_int_max_str_digits()
    assert parse_scalar("1e-3000") == Fraction(1, 10**3000)
    assert parse_scalar(f"2e{limit}") == 2 * 10**limit
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e1_000_000", "1E30000000",
                 "1e" + "9" * 10000):
        start = time.perf_counter()
        with pytest.raises(ScalarParseError):
            parse_scalar(text)
        assert time.perf_counter() - start < 1


# --- the exact-scalar gate --------------------------------------------------------


def test_exact_scalars_pass_unchanged():
    for x in (7, -3, Fraction(2, 3), CountingNumber(0.5, OpCounter())):
        assert exact_scalar(x) is x


@pytest.mark.parametrize("x", [np.int64(-5), np.uint8(200), np.int32(7), True])
def test_other_integers_become_ints(x):
    got = exact_scalar(x)
    assert type(got) is int and got == x


@pytest.mark.parametrize("x", [0.1, np.float64(1), Decimal("0.1"), "3", 1j])
def test_inexact_scalars_are_refused(x):
    with pytest.raises(TypeError) as err:
        exact_scalar(x)
    assert "Fraction(x)" in str(err.value) and "Fraction(str(x))" in str(err.value)


def test_inv_examples():
    assert exact_div(1, Fraction(2, 3)) == Fraction(3, 2)
    assert exact_div(1, 1) == 1
    assert isinstance(exact_div(1, 2), Fraction)  # int identities stay rational


def test_inv_refuses_zero():
    for zero in (Fraction(0), 0):
        with pytest.raises(ZeroDivisionError):
            exact_div(1, zero)


@given(fractions, nonzero_fractions)
def test_results_stay_canonical(x, y):
    for r in (x + y, x - y, x * y, exact_div(x, y), exact_div(x.numerator, y.numerator)):
        assert isinstance(r, Fraction)
        assert math.gcd(r.numerator, r.denominator) == 1
        assert r.denominator > 0


@given(nonzero_fractions)
def test_inverse_cancels(x):
    assert x * exact_div(1, x) == 1


def test_counter_tracks_each_operation():
    ops = OpCounter()
    a, b = counting([3.0, 4.0], ops)
    c = a * b
    c = c + a
    c = c - b
    _ = -c
    _ = a / b
    assert (ops.muls, ops.adds, ops.subs, ops.negs, ops.divs) == (1, 1, 1, 1, 1)
    assert ops.total == 5


def test_counting_interops_with_plain_ints():
    ops = OpCounter()
    (a,) = counting([Fraction(1, 2)], ops)
    assert 1 + a == Fraction(3, 2)
    assert 2 * a == 1
    assert 1 - a == Fraction(1, 2)
    assert 1 / a == 2
    assert (ops.adds, ops.muls, ops.subs, ops.divs) == (1, 1, 1, 1)


def test_counting_division_of_ints_stays_rational():
    ops = OpCounter()
    a, b = counting([1, 2], ops)
    quotients = (a / 3, 3 / b, a / b)
    assert [type(x.value) for x in quotients] == [Fraction] * 3
    assert quotients == (Fraction(1, 3), Fraction(3, 2), Fraction(1, 2))
    assert ops.divs == 3 and ops.total == 3


def test_counting_number_compares_and_hashes_by_value():
    ops = OpCounter()
    x = CountingNumber(2.0, ops)
    assert x == 2 and hash(x) == hash(2.0) and bool(x)
    assert ops.total == 0  # comparisons are free
