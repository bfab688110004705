import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import assert_conserved
from uamm_lab.fixedpoint import ZERO, amount
from uamm_lab.ledger import InsufficientBalance, MarketSpec, PhaseError
from uamm_lab.uamm import (
    FairPriceVector,
    PoolState,
    UammMarket,
    UnfillableQuote,
    calc_odds,
    spot_price,
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


def test_fair_prices_renormalize_exactly():
    f = FairPriceVector((0.1, 0.2, 0.7))
    assert math.fsum(f.probs) == 1.0
    assert f.of(3) == pytest.approx(0.7)


# -- total value -------------------------------------------------------------------


def test_total_value_pure_collateral():
    pool = PoolState(r=[amount(10_000), ZERO, ZERO])
    assert pool.total_value(FairPriceVector((0.3, 0.7))) == Decimal("10000.000000")


def test_total_value_mergeable_set():
    pool = PoolState(r=[ZERO, amount(100), amount(100)])
    assert pool.total_value(FairPriceVector((0.5, 0.5))) == Decimal("100.000000")


def test_total_value_mixed_holdings():
    pool = PoolState(r=[amount(50), amount(30), ZERO])
    tv = pool.total_value(FairPriceVector((0.8, 0.2)))
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
    market = make_market()
    with pytest.raises(ValueError):
        market.quote(3, amount(10))


def test_quote_csv_row_fields():
    market = make_market()
    row = market.quote(1, amount(10)).csv_row()
    assert list(row) == [
        "engine", "market_id", "outcome", "wager", "odd",
        "implied_price", "slippage", "fee",
    ]
    assert row["engine"] == "uamm"


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
    """One Quote and one BetRecord, with their field values."""
    from uamm_lab.uamm import BetRecord, Quote

    return [
        (Quote, ("uamm", "m", 1, 10.0, 19.99, 0.5, 0.0, 0.25)),
        (BetRecord, (0, "m", 2, Decimal("10.000000"), Decimal("0.250000"),
                     Decimal("19.990010"), Decimal("1.5"), 0.5, 0.0,
                     (0.0, 1.0, 2.0))),
    ]


@pytest.mark.parametrize("cls,values", _records(),
                         ids=lambda v: getattr(v, "__name__", ""))
def test_records_are_frozen_dataclasses(cls, values):
    import dataclasses

    names = [f.name for f in dataclasses.fields(cls)]
    rec = cls(*values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, names[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, names[-1])
    # field by field: positional and keyword construction agree, equal
    # records hash alike, and any one differing field breaks equality
    twin = cls(**dict(zip(names, values)))
    assert rec == twin and hash(rec) == hash(twin)
    assert dataclasses.astuple(rec) == tuple(values)
    assert repr(rec) == (
        f"{cls.__name__}("
        + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    )
    for n in names:
        assert dataclasses.replace(rec, **{n: "other"}) != rec
    with pytest.raises(TypeError):
        cls(*values[:-1])
