import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uamm_lab.fixedpoint import (
    PRECISION,
    UNIT,
    ZERO,
    amount,
    format_micro,
    from_wad,
    to_micro,
    to_wad,
)
from uamm_lab.sim import ConfigError, SimConfig, build_market


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
#: The same edge as an exact Decimal, 1125899906.842624.
FAST_EDGE_DECIMAL = Decimal(2 ** 50) / 10 ** 6


def _assert_matches_decimal(x):
    try:
        exact = Decimal(int(x)) if isinstance(x, np.integer) else Decimal(x)
        expected = exact.quantize(PRECISION, rounding=ROUND_HALF_EVEN)
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
@given(st.integers(min_value=0, max_value=10**15)
       | st.integers(min_value=2**50 - 10**6, max_value=2**50 + 10**6),
       st.sampled_from(["0", "1E-20", "-1E-20", "1E-12", "-1E-12"]))
def test_amount_decimal_near_ties_matches_decimal_quantize(k, nudge):
    # on, just off and either side of a half-micro-unit tie, below and
    # around the float fast path's edge, where a float read of the Decimal
    # would need its own error bound
    _assert_matches_decimal(Decimal(k) / 10**6 + Decimal("0.0000005") + Decimal(nudge))


@settings(max_examples=500, deadline=None)
@given(st.decimals(allow_nan=False, allow_infinity=False)
       | st.decimals(allow_nan=False, allow_infinity=False, places=6)
       | st.decimals(allow_nan=False, allow_infinity=False, places=9)
       | st.decimals(min_value=FAST_EDGE_DECIMAL - 1, max_value=FAST_EDGE_DECIMAL + 1,
                     places=9))
def test_amount_decimal_matches_decimal_quantize(x):
    # every Decimal takes the exact path; on-grid values are the common case
    _assert_matches_decimal(x)


_INT64 = np.iinfo(np.int64)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-(10**23), max_value=10**23)
       | st.integers(min_value=10**22 - 10**3, max_value=10**22 + 10**3)
       | st.integers(min_value=-(10**22) - 10**3, max_value=-(10**22) + 10**3)
       | st.integers(min_value=_INT64.min, max_value=_INT64.max).map(np.int64))
def test_amount_int_matches_decimal_quantize(x):
    # a Python or numpy int takes the exact path: value * UNIT below 1e22 in
    # magnitude, refused with "too many digits" from there on
    _assert_matches_decimal(x)


@pytest.mark.parametrize("x", [
    0, 1, -1, 10**22 - 1, 10**22, -(10**22) + 1, -(10**22), 10**30,
    np.int64(_INT64.max), np.int64(_INT64.min), np.uint64(2**64 - 1), np.int8(-5),
])
def test_amount_int_edge_cases(x):
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


# -- one error contract -----------------------------------------------------------
#
# Whatever Decimal cannot read raises ValueError, never decimal's
# InvalidOperation or a TypeError, at every public entry point that takes an
# amount.

#: Each public entry point that takes a collateral amount, applied to a
#: freshly funded market.
AMOUNT_ENTRY_POINTS = {
    "to_micro": lambda market, x: to_micro(x),
    "amount": lambda market, x: amount(x),
    "deposit": lambda market, x: market.ledger.deposit("a", x),
    "credit": lambda market, x: market.ledger.credit("a", 1, x),
    "debit": lambda market, x: market.ledger.debit("lp", 0, x),
    "mint": lambda market, x: market.ledger.mint("lp", x),
    "merge": lambda market, x: market.ledger.merge("lp", x),
    "add_liquidity": lambda market, x: market.add_liquidity("lp", x),
    "buy": lambda market, x: market.buy("bettor", 1, x, fund=True),
}


@pytest.mark.parametrize("bad", [True, False, "abc", "", None, Fraction(1, 3)], ids=repr)
@pytest.mark.parametrize("entry", AMOUNT_ENTRY_POINTS)
def test_each_amount_entry_point_refuses_what_decimal_cannot_read(entry, bad):
    market = build_market("uamm", "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    market.deposit("lp", 100)
    market.ledger.mint("lp", 10)
    before = market.snapshot()
    with pytest.raises(ValueError, match=re.escape(f"amount must be a number, got {bad!r}")):
        AMOUNT_ENTRY_POINTS[entry](market, bad)
    assert market.snapshot() == before


@pytest.mark.parametrize("bad", [True, "abc"], ids=repr)
def test_a_funding_decimal_cannot_read_is_a_config_error(bad):
    with pytest.raises(ConfigError, match="funding"):
        SimConfig(funding=bad)


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


# -- whole cents on the grid -------------------------------------------------
#
# A cent-rounded float ``w = c / 100`` is within half an ulp of ``c / 100``,
# which is under half a micro-unit while ``w < 2**33``: so ``to_micro(w)`` is
# exactly ``10_000 * c`` and ``n / UNIT`` gives ``w`` back.  The simulator
# quotes its whole-cent wagers as drawn on the strength of this.  From 2**33
# up to 1e22 a float's spacing exceeds a micro-unit, so every float there
# maps back to itself, whole cents or not.


@pytest.mark.parametrize("e", range(-6, 34))
def test_whole_cents_at_binade_edges_lie_on_the_grid(e):
    edge = round(2.0**e * 100)
    for c in range(max(1, edge - 300), edge + 300):
        w = c / 100
        if w >= 2.0**33:
            break
        assert to_micro(w) == 10_000 * c, c
        assert to_micro(w) / UNIT == w, c


def test_floats_above_2_33_map_back_to_themselves():
    edge = 2.0**33
    misses = 0
    for w in (edge, edge * (1 + 2**-52), 1e10 + 0.07, 2.0**40 + 0.25, 1e21):
        assert to_micro(w) / UNIT == w
    for c in range(round(edge * 100), round(edge * 100) + 300):
        w = c / 100
        assert to_micro(w) / UNIT == w
        misses += to_micro(w) != 10_000 * c
    assert misses  # not whole cents any more, yet still on the grid


def test_share_amounts_are_floored_to_the_wad():
    assert to_wad(Decimal("1.0000000000000000009")) == 10**18
    assert to_wad(Decimal("-0.0000000000000000001")) == -1
    assert to_wad(Fraction(1, 3)) == 333_333_333_333_333_333
    assert to_wad(7) == 7 * 10**18 and to_wad(0.5) == 5 * 10**17
    assert str(from_wad(37_139_744_797_957_595_314)) == "37.139744797957595314"
    assert str(from_wad(10**21)) == "1000.000000000000000000"


@pytest.mark.parametrize("prec", [6, 12, 50])
def test_conversions_do_not_depend_on_the_decimal_context(prec):
    """Amounts read and round alike under any caller context: the exact
    reads and the 28-digit rounding of the slow path are the library's own."""
    values = (Decimal("123456789012.3456785"), Decimal("88557.925"), 1234567.891234,
              "9999999999999999.999999")
    expected = [(to_micro(v), str(amount(v))) for v in values]
    shares = str(from_wad(123_456_789_012_345_678_901_234_567))
    with localcontext(prec=prec):
        assert [(to_micro(v), str(amount(v))) for v in values] == expected
        assert str(from_wad(123_456_789_012_345_678_901_234_567)) == shares
