import math
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import pytest
from hypothesis import given, settings, strategies as st

from uamm_lab.fixedpoint import PRECISION, UNIT, ZERO, amount, format_micro, to_micro


def test_precision_is_six_decimals():
    assert PRECISION == Decimal("0.000001")
    assert ZERO == 0
    assert ZERO.as_tuple().exponent == -6


def test_amount_quantizes_to_six_decimals():
    assert amount("1.2345678") == Decimal("1.234568")
    assert amount(10) == Decimal("10.000000")
    assert amount(Decimal("3.5")) == Decimal("3.500000")


def test_amount_accepts_floats_via_repr():
    assert amount(0.1) == Decimal("0.100000")
    assert amount(19.990010) == Decimal("19.990010")


def test_amount_is_idempotent():
    for raw in ("0.000001", "123.456789", "9999999.999999"):
        once = amount(raw)
        assert amount(once) == once


def test_half_even_rounding():
    assert amount("0.0000005") == Decimal("0.000000")
    assert amount("0.0000015") == Decimal("0.000002")
    assert amount("0.0000025") == Decimal("0.000002")


@pytest.mark.parametrize("a,b", [("0.1", "0.2"), ("1.000001", "2.999999")])
def test_addition_is_exact(a, b):
    assert amount(a) + amount(b) == amount(Decimal(a) + Decimal(b))


# -- the float path ---------------------------------------------------------
#
# amount() rounds most floats through a fast micro-unit path; it must agree
# with the exact Decimal quantization in value and in str for every float,
# except that a value rounding to zero gives ZERO, never -0.000000.  And
# to_micro() must give the same micro-units as an int.

#: Where the fast path ends: larger floats have micro-unit products of at
#: least 2**50 and take the exact Decimal path.
FAST_EDGE = 2.0 ** 50 / 1e6


def _assert_matches_decimal(x):
    try:
        expected = Decimal(x).quantize(PRECISION, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:
        # too many digits for the context: both paths refuse with a
        # ValueError that names the value
        with pytest.raises(ValueError, match="too many digits") as info:
            amount(x)
        assert repr(x) in str(info.value)
        return
    if expected == 0:
        expected = ZERO
    got = amount(x)
    assert got == expected, x
    assert str(got) == str(expected), x
    n = to_micro(x)
    assert type(n) is int and n == expected * UNIT, x


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_amount_float_matches_decimal_quantize(x):
    _assert_matches_decimal(x)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * FAST_EDGE))
def test_amount_float_matches_decimal_quantize_in_range(x):
    _assert_matches_decimal(x)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=10**15))
def test_amount_float_near_ties_matches_decimal_quantize(k):
    # k/1e6 + 5e-7 lands on or next to a half-micro-unit tie
    x = k / 1e6 + 5e-7
    for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
        _assert_matches_decimal(y)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=10**15),
       st.sampled_from(["0", "1E-20", "-1E-20", "1E-12", "-1E-12"]))
def test_amount_decimal_near_ties_matches_decimal_quantize(k, nudge):
    # a Decimal takes the float fast path only when it is clear of a tie
    _assert_matches_decimal(Decimal(k) / 10**6 + Decimal("0.0000005") + Decimal(nudge))


@settings(max_examples=500, deadline=None)
@given(st.decimals(allow_nan=False, allow_infinity=False)
       | st.decimals(allow_nan=False, allow_infinity=False, places=6)
       | st.decimals(allow_nan=False, allow_infinity=False, places=9))
def test_amount_decimal_matches_decimal_quantize(x):
    # a Decimal takes its own branch; on-grid values are the common case
    _assert_matches_decimal(x)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 1e-7, 5e-7, 0.0000005, 1.5e-6, 2.5e-6, 3.5e-6,
    1.0000005, 123.4565005, 0.1, 0.3, 12.34, 19.99001,
    5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    -5e-324, -1e-7, -5e-7, -1.5e-6, -2.5e-6, -12.34, -1e9,
    FAST_EDGE, math.nextafter(FAST_EDGE, 0.0),
    math.nextafter(FAST_EDGE, math.inf), FAST_EDGE - 5e-7, FAST_EDGE + 5e-7,
    1e15, 9.999999999999999e20, 1e22, 1.7976931348623157e308,
])
def test_amount_float_edge_cases(x):
    _assert_matches_decimal(x)


def test_amount_float_exact_ties_match_decimal_quantize():
    for k in range(2000):
        _assert_matches_decimal(k / 1e6 + 5e-7)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"),
    Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), "nan", "inf",
    Decimal("-NaN"), Decimal("sNaN"),
])
def test_amount_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        amount(bad)


# -- no signed zero -----------------------------------------------------------


@pytest.mark.parametrize("x", [
    -1e-7, -5e-7, -0.0, Decimal("-0.0000001"), Decimal("-0.0000005"),
    Decimal("-0"), Decimal("-0E-9"), "-0.0000004",
])
def test_values_rounding_to_zero_give_unsigned_zero(x):
    assert str(amount(x)) == "0.000000"
    assert not amount(x).is_signed()
    assert to_micro(x) == 0


# -- int micro-units ------------------------------------------------------------


def test_to_micro_converts_on_grid_decimals_exactly():
    assert to_micro(Decimal("12.340000")) == 12_340_000
    assert to_micro(Decimal("12.34")) == 12_340_000
    assert to_micro(Decimal("12.340000000")) == 12_340_000
    assert to_micro(Decimal("-3")) == -3_000_000
    assert to_micro(Decimal("0.308641775")) == 308_642
    assert to_micro(10) == 10_000_000
    assert to_micro(-7) == -7_000_000
    assert str(amount(10)) == "10.000000"
    with pytest.raises(ValueError, match="too many digits"):
        to_micro(Decimal("1E+22"))
    with pytest.raises(ValueError, match="too many digits"):
        to_micro(10**22)


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=0, max_value=10**22 - 1))
def test_int_true_division_equals_float_of_decimal(n):
    assert n / 10**6 == float(PRECISION * n)


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=-(10**28) + 1, max_value=10**28 - 1))
def test_format_micro_equals_decimal_str(n):
    assert format_micro(n) == str(PRECISION * n)


@pytest.mark.parametrize("n", [0, 1, 999_999, 1_000_000, 10**27, -1, -1_000_001])
def test_format_micro_edge_cases(n):
    assert format_micro(n) == str(PRECISION * n)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=2**50))
def test_micro_round_trip_through_float(n):
    # the simulator prices and executes a wager of n micro-units as n / UNIT
    assert to_micro(n / UNIT) == n
