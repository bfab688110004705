import math
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import pytest
from hypothesis import given, settings, strategies as st

from uamm_lab.fixedpoint import PRECISION, ZERO, amount


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
# with the exact Decimal quantization in value and in str for every float.

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
    got = amount(x)
    assert got == expected, x
    assert str(got) == str(expected), x


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
