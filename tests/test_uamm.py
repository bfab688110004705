import decimal
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_conserved, six_places
from uamm_lab.fixedpoint import UNIT, ZERO, amount
from uamm_lab.ledger import InsufficientBalance, MarketSpec, PhaseError
from uamm_lab.uamm import (
    FairPriceVector,
    PoolState,
    UammMarket,
    UnfillableQuote,
    calc_odds,
)


def make_market(k=2, probs=(0.5, 0.5), funding=10_000, fee_rate="0.025"):
    market = UammMarket(
        MarketSpec(market_id="m", k=k, fee_rate=Decimal(fee_rate)),
        FairPriceVector(probs),
    )
    market.deposit("lp", amount(funding))
    market.add_liquidity("lp", amount(funding))
    market.deposit("bettor", amount(1_000_000))
    return market


def surplus_pool(k=2, depth=1_000_000.0, tb=1_000.0):
    pool = PoolState.empty(k)
    pool.r = [ZERO] + [amount(depth)] * k
    pool.tb = amount(tb)
    pool.ts = amount(tb)
    return pool


# -- fair price vector ------------------------------------------------------------


def test_fair_prices_must_sum_to_one():
    with pytest.raises(ValueError):
        FairPriceVector((0.5, 0.6))
    with pytest.raises(ValueError):
        FairPriceVector((0.5,))
    with pytest.raises(ValueError):
        FairPriceVector((0.0, 1.0))


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0])
def test_fair_prices_outside_the_open_unit_interval_are_rejected(bad, position):
    """Each bad value is caught wherever it sits, a trailing NaN included
    (which ``min`` and ``max`` would both skip)."""
    probs = [0.3, 0.3, 0.4]
    probs[position] = bad
    with pytest.raises(ValueError, match=r"probabilities must lie in \(0, 1\)"):
        FairPriceVector(probs)


def test_fair_prices_renormalize_exactly():
    f = FairPriceVector((0.1, 0.2, 0.7))
    assert math.fsum(f.probs) == 1.0
    assert f.probs[2] == pytest.approx(0.7)


# -- total value -------------------------------------------------------------------


def total_value(pool, fair):
    """The pool's exact int value over its power-of-two scale, in collateral,
    checked against r0 + sum f_k * r_k taken in Fractions of its reserves."""
    tv = Fraction(pool.value(fair), fair.weights[0] * UNIT)
    r = [Fraction(x) for x in pool.r]
    assert tv == r[0] + sum(Fraction(f) * x for f, x in zip(fair.probs, r[1:]))
    return tv


def test_total_value_pure_collateral():
    pool = PoolState(r=[amount(10_000), ZERO, ZERO])
    assert total_value(pool, FairPriceVector((0.3, 0.7))) == Decimal("10000.000000")


def test_total_value_mergeable_set():
    pool = PoolState(r=[ZERO, amount(100), amount(100)])
    assert total_value(pool, FairPriceVector((0.5, 0.5))) == Decimal("100.000000")


def test_total_value_mixed_holdings():
    pool = PoolState(r=[amount(50), amount(30), ZERO])
    tv = total_value(pool, FairPriceVector((0.8, 0.2)))
    assert float(tv) == pytest.approx(74.0, rel=1e-12)


# -- liquidity provision ------------------------------------------------------------


def test_bootstrap_add_mints_shares_one_to_one():
    pool = PoolState.empty(2)
    s = pool.add(amount(10_000), FairPriceVector((0.5, 0.5)))
    assert s == Decimal("10000.000000")
    assert pool.ts == s
    assert pool.tb == Decimal("10000.000000")


def test_add_mints_proportional_shares():
    fair = FairPriceVector((0.5, 0.5))
    pool = PoolState.empty(2)
    pool.add(amount(10_000), fair)
    s = pool.add(amount(5_000), fair)
    assert s == Decimal("5000.000000")


def test_split_add_equals_single_add():
    fair = FairPriceVector((0.6, 0.4))
    one = PoolState.empty(2)
    one.add(amount(10_000), fair)
    two = one.copy()
    s_two = two.add(amount(3_000), fair) + two.add(amount(2_000), fair)
    s_one = one.add(amount(5_000), fair)
    assert abs(float(s_two - s_one)) < 1e-9
    assert abs(float(two.r[0] - one.r[0])) < 1e-9
    assert abs(float(two.tb - one.tb)) < 1e-9


def test_remove_all_shares_returns_full_collateral():
    fair = FairPriceVector((0.5, 0.5))
    pool = PoolState.empty(2)
    pool.add(amount(10_000), fair)
    payout = pool.remove(pool.ts)
    assert payout == Decimal("10000.000000")
    assert pool.r[0] == ZERO
    assert pool.ts == ZERO


def test_remove_reverses_add():
    fair = FairPriceVector((0.7, 0.3))
    pool = PoolState.empty(2)
    pool.add(amount(10_000), fair)
    before = pool.copy()
    s = pool.add(amount(2_500), fair)
    back = pool.remove(s)
    assert abs(float(back - Decimal(2_500))) < 1e-9
    for name in ("ts", "tb"):
        assert abs(float(getattr(pool, name) - getattr(before, name))) < 1e-9
    assert abs(float(pool.r[0] - before.r[0])) < 1e-9


def test_split_remove_equals_single_remove():
    fair = FairPriceVector((0.5, 0.5))
    pool = PoolState.empty(2)
    pool.add(amount(10_000), fair)
    other = pool.copy()
    p_split = pool.remove(amount(1_000)) + pool.remove(amount(2_000))
    p_once = other.remove(amount(3_000))
    assert abs(float(p_split - p_once)) < 1e-9
    assert abs(float(pool.tb - other.tb)) < 1e-9


def test_remove_leaves_conditional_pools_untouched():
    market = make_market()
    market.buy("bettor", 1, amount(100))
    conditional = list(market.pool.r[1:])
    market.remove_liquidity("lp", amount(4_000))
    assert market.pool.r[1:] == conditional


def test_remove_requires_shares():
    market = make_market()
    with pytest.raises(InsufficientBalance):
        market.remove_liquidity("lp", amount(10_001))


def test_tb_changes_only_on_liquidity_operations():
    market = make_market()
    tb = market.pool.tb
    market.buy("bettor", 1, amount(250))
    market.buy("bettor", 2, amount(10))
    assert market.pool.tb == tb  # bets never move the target balance
    market.remove_liquidity("lp", amount(100))
    assert market.pool.tb < tb
    market.deposit("lp", amount(500))
    market.add_liquidity("lp", amount(500))
    assert market.pool.tb > tb


def test_remove_all_shares_after_trades_and_a_second_add():
    """An LP can burn every share it holds: shares are exact ints, so the
    amount it reads back is the amount it holds, after bets have minted
    treasury shares and a second add has minted its own."""
    market = make_market()
    for i, w in ((1, 250), (2, 40.5), (1, 3.21)):
        market.buy("bettor", i, amount(w))
    market.deposit("lp", amount(777.77))
    market.add_liquidity("lp", amount(777.77))
    market.buy("bettor", 2, amount(12))
    held = market.lp_shares["lp"]
    assert market.remove_liquidity("lp", held) > 0
    assert market.lp_shares["lp"] == 0
    assert market.pool.ts == market.pool.treasury_shares > 0
    assert_conserved(market)


def test_shares_are_exact_18_place_reads_of_int_wads():
    market = make_market()
    market.buy("bettor", 1, amount(250))
    market.deposit("lp2", amount(500))
    s = market.add_liquidity("lp2", amount(500))
    pool = market.pool
    assert s.as_tuple().exponent == -18 == pool.ts.as_tuple().exponent
    assert type(pool.ts_wad) is type(pool.tb_wad) is type(pool.treasury_wad) is int
    assert pool.ts_wad == market.lp_wad["lp"] + market.lp_wad["lp2"] + pool.treasury_wad
    assert market.lp_shares["lp2"] == s and market.bets[0].s_lp == pool.treasury_shares
    assert pool.tb == Decimal("10500") and pool.tb_float == 10_500.0
    # an off-grid request is floored to the wad
    held = market.lp_wad["lp2"]
    market.remove_liquidity("lp2", Decimal("1.0000000000000000009"))
    assert market.lp_wad["lp2"] == held - 10**18


def test_treasury_mint_is_the_floor_of_the_exact_share_price():
    market = make_market(k=3, probs=(0.2, 0.3, 0.5))
    ts = Fraction(10_000)
    for i, w in ((1, 40), (3, 120.5), (2, 12.34)):
        record = market.buy("bettor", i, amount(w))
        r = [Fraction(x) for x in market.pool.r]
        value = r[0] + sum(Fraction(f) * x for f, x in zip(market.fair.probs, r[1:]))
        exact = Fraction(record.wager) * ts / value
        assert Fraction(record.s_lp) == Fraction(math.floor(exact * 10**18), 10**18)
        ts += Fraction(record.s_lp)
    assert Fraction(market.pool.ts) == ts


def test_records_and_snapshots_do_not_depend_on_the_decimal_context():
    """A seeded market (trades, a second add, removals, settlement) leaves
    the same records, share figures and snapshots under a 12-digit and a
    50-digit caller context as under the default 28.  The test's own
    share requests are exact Fractions, so that only the library could
    differ."""

    def run():
        rng = np.random.default_rng(29)
        market = make_market(k=3, probs=(0.2, 0.3, 0.5), funding=250_000)
        market.deposit("bettor", amount(88_557.925))
        snapshots = []
        for step in range(400):
            wager = amount(round(float(rng.lognormal(3.0, 1.2)), 2))
            try:
                market.buy("bettor", int(rng.integers(1, 4)), wager)
            except (InsufficientBalance, UnfillableQuote):
                pass
            if step == 150:
                market.deposit("lp2", amount(123_456.789012))
                market.add_liquidity("lp2", amount(123_456.789012))
            if step in (250, 300):
                for lp in ("lp", "lp2"):
                    market.remove_liquidity(lp, Fraction(market.lp_shares[lp]) / 3)
            if step % 50 == 0:
                snapshots.append(market.snapshot())
        market.close_betting()
        market.resolve("oracle", 2)
        for account in ("bettor", "lp", "lp2"):
            market.redeem(account)
        market.redeem_pool()
        snapshots.append(market.snapshot())
        assert_conserved(market)
        return repr(market.bets), snapshots

    expected = run()
    for prec in (12, 50):
        with localcontext(prec=prec):
            assert run() == expected, prec


def test_fee_payer_balance_reads_exactly_under_a_narrow_context():
    market = UammMarket(MarketSpec(market_id="m", k=2, fee_rate=Decimal("0.025")),
                        FairPriceVector((0.5, 0.5)))
    market.deposit("lp", 10_000)
    market.add_liquidity("lp", 10_000)
    market.deposit("bettor", Decimal("88568.175"))
    market.buy("bettor", 1, 10)  # costs 10 plus an exact fee of 0.250
    snapshot = market.snapshot()
    balance = six_places("88557.925000000")
    assert f"balance/bettor/collateral={balance}\n" in snapshot
    with localcontext(prec=12):
        assert str(market.ledger.balance("bettor")) == balance
        assert market.snapshot() == snapshot


@pytest.mark.parametrize("prec", [12, 50])
def test_bet_records_are_exact_under_any_context(prec):
    """A record's wager, fee and odd are exact products: a 12-digit caller
    context rounded them to 1234567.89000, 30864.1972500 and 2224666.89268
    when they were built with Decimal operators."""

    def bet():
        market = make_market(funding=5_000_000)
        market.deposit("bettor", 2_000_000)
        return market.buy("bettor", 1, Decimal("1234567.89"))

    record = bet()
    assert (str(record.wager), str(record.fee), str(record.odd)) == (
        "1234567.890000", six_places("30864.197250000"), "2224666.892675")
    with localcontext(prec=prec):
        assert repr(bet()) == repr(record)


#: ``(odd, s_lp, post_r)`` of a 1,234,567.89 bet on outcome 1 of a K=3
#: market funded with 5,000,000, pinned as they read when records held
#: Decimals; the bet's wager and fee read ``1234567.890000`` and
#: ``30864.197250`` on both engines (the fee read ``30864.197250000`` then).
RECORD_READS = {
    "uamm": ("Decimal('3719039.928315'), Decimal('1124223.159917126261860073')",
             "(2515527.961685, 0.0, 3719039.928315, 3719039.928315)"),
    "cpmm": ("Decimal('3978533.216001'), Decimal('0.000000')",
             "(2256034.673999, 0.0, 2311866.549334, 978533.216001)"),
}


@pytest.mark.parametrize("context", [dict(prec=3, traps=[decimal.Inexact, decimal.Rounded]),
                                     dict(prec=50, rounding=decimal.ROUND_FLOOR)])
@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_bet_record_reads_are_exact_under_any_context(engine, context):
    """A record holds ints; its Decimal reads equal, in value and text, what
    the record held when it stored Decimals, whatever the caller's context
    (the fee, which was read at the fee rate's exponent, in value and to 6
    places), the CPMM's shares (and a zero bet's)
    as 0.000000, an unfunded UAMM pool's as 0E-18."""
    from uamm_lab.sim import build_market

    def reads(record):
        return repr((record.wager, record.fee, record.odd, record.s_lp, record.post_r))

    market = build_market(engine, "m", 3, (0.2, 0.3, 0.5), 5_000_000.0, 0.025)
    market.deposit("bettor", 3_000_000)
    record = market.buy("bettor", 1, Decimal("1234567.89"))
    zero = market.buy("bettor", 2, 0)
    unfunded = UammMarket(MarketSpec("m", 2, Decimal("0.025")), (0.5, 0.5))
    unfunded.deposit("bettor", 100)
    odd_s_lp, post_r = RECORD_READS[engine]
    fee, small_fee = six_places("30864.197250000"), six_places("0.250000000")
    with localcontext(**context):
        assert reads(record) == (f"(Decimal('1234567.890000'), Decimal('{fee}'), "
                                 f"{odd_s_lp}, {post_r})")
        assert reads(zero) == f"({', '.join([repr(ZERO)] * 4)}, {post_r})"
        assert reads(unfunded.buy("bettor", 1, 10)) == (
            f"(Decimal('10.000000'), Decimal('{small_fee}'), Decimal('10.000000'), "
            "Decimal('0E-18'), (0.0, 0.0, 10.0))")
        assert str(market.pool.fee_accrued) == fee


# -- the funded buy -------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("fee_rate,wager,cost,fee_text", [
    # tied fees at a 0.5 rate round half-even: 1.5 micro-units to 2, 0.5 to 0
    (0.5, 0.000003, 5, "0.000002"),
    (0.5, 0.000001, 1, "0.000000"),
    # an off-grid wager rounds half-even to 12.345679, its fee to 0.308642
    (0.025, 12.3456789, 12_654_321, "0.308642"),
    # an exact fee, pinned as it read at the fee rate's exponent less 6,
    # reads to 6 places
    (0.025, 12.34, 12_648_500, "0.308500000"),
])
def test_funded_buy_deposits_exactly_its_cost(engine, fee_rate, wager, cost, fee_text):
    """``buy(..., fund=True)`` credits the bettor with the rounded wager plus
    its fee, exactly, and is a deposit of that cost followed by an unfunded
    buy: the same record and the same books."""
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1000.0, fee_rate)
    twin = build_market(engine, "m", 2, (0.5, 0.5), 1000.0, fee_rate)
    deposited = market.ledger.deposited_micro
    record = market.buy("bettor", 1, wager, fund=True)
    assert market.ledger.deposited_micro - deposited == cost
    assert record.wager_micro + record.fee_micro == cost
    assert str(record.fee) == six_places(fee_text) == str(market.pool.fee_accrued)
    assert market.ledger.balance("bettor") == 0
    market.check_invariants()
    twin.ledger.deposit_micro("bettor", cost)
    assert twin.buy("bettor", 1, wager) == record
    assert twin.snapshot() == market.snapshot()


def test_funded_buy_unfillable_at_the_buy_leaves_the_bettor_the_deposit():
    market = make_market(funding=1_000)
    market.buy("bettor", 2, 300.0)
    pool, fees = list(market.pool.r_micro), market.pool.fee_micro
    bettor, deposited = market.ledger.bal_micro["bettor"][0], market.ledger.deposited_micro
    with pytest.raises(UnfillableQuote, match="^wager 10000.000000 on outcome 1 would drain"):
        market.buy("bettor", 1, 10_000.0, fund=True)
    assert market.ledger.deposited_micro - deposited == 10_250_000_000
    assert market.ledger.bal_micro["bettor"][0] - bettor == 10_250_000_000
    assert (market.pool.r_micro, market.pool.fee_micro, len(market.bets)) == (pool, fees, 1)
    market.check_invariants()


# -- quoting -------------------------------------------------------------------------


def test_zero_wager_quotes_zero_odd():
    pool = surplus_pool()
    q = calc_odds(pool, FairPriceVector((0.5, 0.5)), 1, 0)
    assert q.odd == 0.0
    assert q.implied_price == 0.5


def test_deep_surplus_quotes_fair_decimal_odds():
    pool = surplus_pool()
    q = calc_odds(pool, FairPriceVector((0.5, 0.5)), 1, 10.0)
    assert q.decimal_odds == pytest.approx(2.0, abs=1e-6)


def test_three_way_surplus_quote_matches_price_ratios():
    pool = surplus_pool(k=3)
    fair = FairPriceVector((0.25, 0.5, 0.25))
    q = calc_odds(pool, fair, 2, 1.0)
    assert q.odd == pytest.approx(1 + 0.25 / 0.5 + 0.25 / 0.5, abs=1e-6)


def test_quote_is_pure():
    market = make_market()
    before = market.snapshot()
    market.quote(1, amount(500))
    assert market.snapshot() == before


def test_quote_rejects_unknown_outcome():
    from uamm_lab.sim import build_market

    for engine in ("uamm", "cpmm"):
        for k in (2, 3):
            market = build_market(engine, "m", k, (1 / k,) * k, 1_000.0, 0.025)
            before = market.snapshot()
            for outcome in (0, k + 1):
                with pytest.raises(ValueError, match="unknown outcome"):
                    market.quote(outcome, amount(10))
                assert market.snapshot() == before


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_quote_rejects_negative_wager(engine):
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    before = market.snapshot()
    for wager in (-0.01, amount(-10)):
        with pytest.raises(ValueError, match="non-negative"):
            market.quote(1, wager)
        assert market.snapshot() == before


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("wager", [math.inf, -math.inf, math.nan, Decimal("NaN")])
def test_quote_rejects_non_finite_wager(engine, wager):
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    before = market.snapshot()
    with pytest.raises(ValueError, match="finite and non-negative"):
        market.quote(1, wager)
    assert market.snapshot() == before


def test_quote_csv_row_fields(capsys):
    # a quote's CSV row is the market's identity followed by the quote's own
    # fields, each cell the value that market's quote holds
    from uamm_lab import cli
    from uamm_lab.sim import build_market

    args = ["quote", "--k", "2", "--probs", "0.5,0.5", "--funding", "10000",
            "--outcome", "1", "--wager", "10", "--format", "csv"]
    assert cli.main(args) == 0
    header, cells = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(header.split(","), cells.split(",")))
    assert list(row) == [
        "engine", "market_id", "outcome", "wager", "odd",
        "implied_price", "slippage", "fee",
    ]
    assert row["engine"] == "uamm"
    market = build_market("uamm", "quote", 2, (0.5, 0.5), 10_000.0, 0.025)
    quote = market.quote(1, amount(10))
    assert row["market_id"] == market.spec.market_id
    assert list(row.values())[2:] == [str(v) for v in quote]


# -- buying ---------------------------------------------------------------------------


def test_buy_on_symmetric_pool_reference_values():
    market = make_market()
    record = market.buy("bettor", 1, amount(10))
    assert record.odd == Decimal("19.990010")
    assert record.fee == Decimal("0.250000")
    assert min(market.pool.r[1:]) == ZERO
    assert market.pool.r[0] == Decimal("9990.009990")
    assert market.ledger.balance("bettor", 1) == Decimal("19.990010")


def test_buy_zero_wager_is_noop():
    market = make_market()
    before = market.snapshot()
    record = market.buy("bettor", 1, 0)
    assert record.odd == ZERO
    assert market.snapshot() == before


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_buy_records_a_zero_wager_at_its_own_index(engine):
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    market.deposit("bettor", amount(100))
    records = [market.buy("bettor", 1, w) for w in (0, amount(10), 1e-7, 5.0)]
    assert [r.index for r in records] == [0, 1, 2, 3]
    assert market.bets == records
    assert records[2].wager == ZERO and records[2].post_r == records[1].post_r
    assert_conserved(market)


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_buy_rejects_negative_wager(engine):
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    market.deposit("bettor", amount(100))
    before = market.snapshot()
    # the first two round to zero micro-units, as quote never rounds
    for wager in (-1e-7, Decimal("-0.0000004"), -0.01, amount(-10)):
        with pytest.raises(ValueError, match="non-negative"):
            market.quote(1, wager)
        with pytest.raises(ValueError, match="non-negative"):
            market.buy("bettor", 1, wager)
        assert market.snapshot() == before and market.bets == []
    assert market.buy("bettor", 1, -0.0).wager == ZERO


def test_buy_requires_wager_plus_fee():
    market = make_market()
    market.deposit("poor", amount(100))
    with pytest.raises(InsufficientBalance):
        market.buy("poor", 1, amount(100))  # fee pushes cost to 102.5


def test_buy_closed_market_rejected():
    market = make_market()
    market.close_betting()
    with pytest.raises(PhaseError):
        market.buy("bettor", 1, amount(10))


def test_post_buy_minimum_pool_is_swept_to_zero():
    market = make_market(k=3, probs=(0.2, 0.5, 0.3))
    rng = np.random.default_rng(7)
    for _ in range(200):
        side = int(rng.integers(1, 4))
        market.buy("bettor", side, amount(float(rng.uniform(0.01, 300))))
        assert min(market.pool.r[1:]) == ZERO
        assert_conserved(market)


def test_fee_accrual_matches_volume_exactly():
    """Whole-cent wagers: every fee is exactly wager x rate, so the fees
    accrued equal rate x volume.  Micro-unit wagers: every fee is wager x
    rate rounded half-even to the grid, and the pool accrues their sum."""
    market = make_market()
    rng = np.random.default_rng(3)
    volume = ZERO
    for _ in range(100):
        record = market.buy("bettor", int(rng.integers(1, 3)),
                            amount(round(float(rng.uniform(0.01, 200)), 2)))
        volume += record.wager
    assert market.pool.fee_accrued == Decimal("0.025") * volume
    fees = market.pool.fee_accrued
    for _ in range(100):
        record = market.buy("bettor", int(rng.integers(1, 3)),
                            amount(float(rng.uniform(0.01, 200))))
        assert record.fee == amount(record.wager * Decimal("0.025"))
        fees += record.fee
    assert market.pool.fee_accrued == fees
    assert_conserved(market)


def test_off_grid_fee_is_rounded_half_even_to_the_grid():
    market = UammMarket(MarketSpec(market_id="m", k=2, fee_rate=Decimal("0.025")),
                        FairPriceVector((0.5, 0.5)))
    market.deposit("lp", 10_000)
    market.add_liquidity("lp", 10_000)
    market.deposit("bettor", 100)
    record = market.buy("bettor", 1, Decimal("12.345671"))
    # 12.345671 x 0.025 = 0.308641775
    assert str(record.fee) == "0.308642"
    assert str(market.ledger.balance("bettor")) == "87.345687"
    assert market.pool.fee_accrued == Decimal("0.308642")
    assert_conserved(market)
    # a tie rounds to even: 0.00002 x 0.025 = 0.0000005
    record = market.buy("bettor", 1, Decimal("0.00002"))
    assert record.fee == ZERO
    record = market.buy("bettor", 1, Decimal("0.00006"))
    assert record.fee == Decimal("0.000002")
    assert_conserved(market)


def test_share_supply_equals_lp_plus_treasury():
    market = make_market()
    for wager in (10, 250, 3.5):
        market.buy("bettor", 1, amount(wager))
    total = sum(market.lp_shares.values(), ZERO) + market.pool.treasury_shares
    assert market.pool.ts == total


def test_conservation_through_full_lifecycle():
    market = make_market(k=3, probs=(0.3, 0.4, 0.3))
    rng = np.random.default_rng(11)
    for _ in range(300):
        market.buy("bettor", int(rng.integers(1, 4)),
                   amount(float(rng.uniform(0.01, 500))))
    assert_conserved(market)
    market.close_betting()
    market.resolve("oracle", 2)
    market.redeem("bettor")
    market.redeem_pool()
    assert_conserved(market)
    market.redeem("lp")
    assert market.ledger.locked == ZERO


# -- spot prices ------------------------------------------------------------------------


def spot_price(pool: PoolState, fair: FairPriceVector, i: int, eps: float = 1e-4) -> float:
    """Marginal implied probability for outcome ``i``: the implied price of
    a quote for ``eps`` collateral, an infinitesimal wager probed
    numerically."""
    return calc_odds(pool, fair, i, eps).implied_price


def test_spot_price_in_surplus_equals_fair():
    pool = surplus_pool()
    fair = FairPriceVector((0.5, 0.5))
    assert abs(spot_price(pool, fair, 1) - 0.5) < 1e-6


def test_spot_price_in_deficit_exceeds_fair():
    fair = FairPriceVector((0.5, 0.5))
    pool = PoolState(r=[ZERO, amount(2_000), amount(8_000)],
                     ts=amount(10_000), tb=amount(10_000))
    assert spot_price(pool, fair, 1) > 0.5


def test_spot_prices_sum_to_at_least_one():
    rng = np.random.default_rng(19)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        v = rng.uniform(0.1, 0.9, k)
        fair = FairPriceVector(tuple(v / v.sum()))
        market = make_market(k=k, probs=fair.probs,
                             funding=float(rng.uniform(1_000, 50_000)))
        for _ in range(int(rng.integers(0, 20))):
            try:
                market.buy("bettor", int(rng.integers(1, k + 1)),
                           amount(float(rng.uniform(0.01, 500))))
            except UnfillableQuote:
                continue
        total = sum(spot_price(market.pool, fair, i) for i in range(1, k + 1))
        assert total >= 1.0 - 1e-6


# -- snapshots -----------------------------------------------------------------------------


def test_snapshot_is_sorted_and_replayable():
    a, b = make_market(), make_market()
    for m in (a, b):
        m.buy("bettor", 2, amount(42))
    text = a.snapshot()
    assert text == b.snapshot()
    keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)


def _records():
    """One Quote and one BetRecord, with their field names and values."""
    from uamm_lab.market import BetRecord, Quote

    return [
        pytest.param(
            Quote, ("outcome", "wager", "odd", "implied_price", "slippage", "fee"),
            (1, 10.0, 19.99, 0.5, 0.0, 0.25), id="Quote"),
        pytest.param(
            BetRecord, ("index", "outcome", "wager_micro", "fee_micro", "odd_micro",
                        "s_lp_wad", "implied_price", "slippage", "post_micro"),
            (0, 2, 10_000_000, 250_000, 19_990_010, 1_500_000_000_000_000_000,
             0.5, 0.0, (0, 1_000_000, 2_000_000)),
            id="BetRecord"),
    ]


@pytest.mark.parametrize("cls,names,values", _records())
def test_records_are_immutable_named_tuples(cls, names, values):
    assert cls._fields == names
    rec = cls(*values)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(rec, names[-1])
    # field by field: positional and keyword construction agree, equal
    # records hash alike, and any one differing field breaks equality
    twin = cls(**dict(zip(names, values)))
    assert rec == twin and hash(rec) == hash(twin)
    assert tuple(rec) == tuple(values) and rec == tuple(values)
    assert repr(rec) == (
        f"{cls.__name__}("
        + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    )
    for n in names:
        assert rec._replace(**{n: "other"}) != rec
    with pytest.raises(TypeError):
        cls(*values[:-1])


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_pipeline_records_are_the_record_types(engine):
    from uamm_lab.market import BetRecord, Quote
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 3, (0.2, 0.3, 0.5), 1_000.0, 0.025)
    market.deposit("bettor", amount(100))
    for wager in (0, amount(10)):
        quote = market.quote(2, wager)
        record = market.buy("bettor", 2, wager)
        assert type(quote) is Quote and type(record) is BetRecord
        assert quote == Quote(*quote) and record == BetRecord(**record._asdict())
