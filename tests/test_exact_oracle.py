"""The exact oracle of the swap rules, and the product-rule buy it holds.

:func:`conftest.exact_swap_out` and :func:`conftest.exact_cpmm_swap`
evaluate each engine's swap rule in ``Fraction``s.  Their own check is a
value derived by hand for each branch.  A CPMM buy's legs are then held to
the oracle: its odd is the wager plus the chained exact legs, each rounded
half-even to micro-units once, and no such leg pays more than its pool
holds, which is why the product-rule leg loop has no drain test.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import exact_cpmm_swap, exact_swap_out
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm_lab.baseline import CpmmMarket, cpmm_swap
from uamm_lab.fixedpoint import MAX_AMOUNT, PRECISION, UNIT, mul_exact
from uamm_lab.ledger import MarketSpec
from uamm_lab.uamm import swap_out

#: ``(branch, (d, f_in, f_out, r_out, tb), exact output)``, each worked by
#: hand.  Every probability is an exact binary fraction, so each fair rate
#: is exact: 1/3, 1 or 128.
SWAP_OUT_CASES = [
    # rho = 1/3: delta = 1 leaves 9 above the target 5, so the fair amount
    ("surplus", (3, 0.25, 0.75, 10, 5), Fraction(1)),
    # rho = 1, at the target: x = 10, alpha = 10/12, so alpha * delta = 5/3
    # (the deficit formula's 10 - 100/12 too)
    ("straddle", (2, 0.5, 0.5, 10, 10), Fraction(5, 3)),
    # x = 100/12 = 25/3, alpha = 12/(25/3 + 4) = 36/37: 144/37 + (1/37) * 2
    ("straddle", (4, 0.5, 0.5, 12, 10), Fraction(146, 37)),
    # rho = 128, delta = 3/2 across a target 1 below the pool: x = 98.01,
    # alpha = 100/99.51 = 10000/9951, and the leg pays rho * 1 + alpha / 2,
    # more than the pool of 100 holds
    ("straddle", (Fraction(3, 256), 0.5, 2.0 ** -8, 100, 99), 128 + Fraction(5000, 9951)),
    # below the target: x = 100/5 = 20, so 5 - 100/25
    ("deficit", (5, 0.5, 0.5, 5, 10), Fraction(1)),
    ("zero", (0, 0.5, 0.5, 10, 10), Fraction(0)),
    ("zero", (1, 0.5, 0.5, 0, 10), Fraction(0)),
]

#: ``((d, r_in, r_out), exact output)``, each worked by hand.
CPMM_CASES = [
    ((1, 1, 2), Fraction(1)),  # 2 - 2/2
    ((50, 100, 300), Fraction(100)),  # 300 - 30000/150
    ((1, 2, 1), Fraction(1, 3)),  # 1 - 2/3
    ((7, 0, 40), Fraction(40)),  # an empty input pool pays all of r_out
    ((0, 5, 40), Fraction(0)),
    ((3, 5, 0), Fraction(0)),
]


@pytest.mark.parametrize("branch,args,expected", SWAP_OUT_CASES,
                         ids=[f"{c[0]}-{n}" for n, c in enumerate(SWAP_OUT_CASES)])
def test_exact_swap_out_takes_the_hand_derived_value(branch, args, expected):
    got = exact_swap_out(*args)
    assert type(got) is Fraction and got == expected
    # the float kernel lies within a few ulps of it
    assert math.isclose(swap_out(*map(float, args)), expected, rel_tol=1e-15)


@pytest.mark.parametrize("args,expected", CPMM_CASES)
def test_exact_cpmm_swap_takes_the_hand_derived_value(args, expected):
    got = exact_cpmm_swap(*args)
    assert type(got) is Fraction and got == expected
    assert math.isclose(cpmm_swap(*map(float, args)), expected, rel_tol=1e-15)


#: The largest count of micro-units below :data:`MAX_AMOUNT`.
TOP_MICRO = int(MAX_AMOUNT) * UNIT - 1

reserves = st.one_of(st.sampled_from((0, 1)), st.integers(0, 10**9), st.integers(0, 10**30))
wagers = st.one_of(
    st.integers(1, TOP_MICRO).map(lambda n: mul_exact(PRECISION, n)),
    st.floats(1e-6, math.nextafter(MAX_AMOUNT, 0.0)),
)


@st.composite
def cpmm_buys(draw):
    """A CPMM market's ``K`` (2–6), its reserves in micro-units (collateral
    first), an outcome and a wager."""
    k = draw(st.integers(2, 6))
    return (k, draw(st.lists(reserves, min_size=k + 1, max_size=k + 1)),
            draw(st.integers(1, k)), draw(wagers))


@settings(max_examples=300, deadline=None)
@given(buy=cpmm_buys())
# empty pools: the first leg pays the whole output pool, then nothing
@example(buy=(3, [0, 0, 0, 0], 2, 1.0))
@example(buy=(3, [0, 5, 0, 0], 1, 1.0))
# one-micro-unit reserves, a wager of a micro-unit: legs of exactly 1/2 and
# 3/2 micro-units, ties that round half-even to 0 and to 2
@example(buy=(2, [0, 1, 1], 1, Decimal("0.000001")))
@example(buy=(3, [0, 1, 3, 1], 2, Decimal("0.000001")))
# the largest wager below MAX_AMOUNT, on one-micro-unit and on large pools
@example(buy=(6, [1] * 7, 6, mul_exact(PRECISION, TOP_MICRO)))
@example(buy=(4, [10**30, 1, 10**28, 0, 10**9], 3, mul_exact(PRECISION, TOP_MICRO)))
def test_a_cpmm_buy_pays_the_exact_legs_rounded_once(buy):
    k, r, i, wager = buy
    market = CpmmMarket(MarketSpec("ex", k, Decimal("0.025")), [1 / k] * k)
    market.pool.r_micro = list(r)
    record = market.buy("bettor", i, wager, fund=True)
    n = record.wager_micro
    ri = r[i] + r[0]
    odd = n
    for j in range(1, k + 1):
        if j != i:
            exact = exact_cpmm_swap(Fraction(n, UNIT), Fraction(r[j] + r[0], UNIT),
                                    Fraction(ri, UNIT)) * UNIT
            q = round(exact)  # half-even
            assert abs(q - exact) <= Fraction(1, 2)
            assert 0 <= q <= ri
            ri -= q
            odd += q
    assert record.odd_micro == odd
