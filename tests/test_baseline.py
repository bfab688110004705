from decimal import Decimal

import numpy as np
import pytest

from conftest import assert_conserved
from uamm_lab.baseline import CpmmMarket, cpmm_swap
from uamm_lab import ledger
from uamm_lab.fixedpoint import UNIT, ZERO, amount
from uamm_lab.ledger import MarketSpec
from uamm_lab.uamm import FairPriceVector


def make_market(k=2, probs=(0.5, 0.5), funding=10_000):
    market = CpmmMarket(
        MarketSpec(market_id="c", k=k, fee_rate=Decimal("0.025")),
        FairPriceVector(probs),
    )
    market.deposit("lp", amount(funding))
    market.add_liquidity("lp", amount(funding))
    market.deposit("bettor", amount(1_000_000))
    return market


def test_product_rule_reference_value():
    assert cpmm_swap(100.0, 10_000.0, 10_000.0) == pytest.approx(
        10_000.0 - 1e8 / 10_100.0, rel=1e-12
    )
    assert abs(cpmm_swap(100.0, 10_000.0, 10_000.0) - 99.0099) < 1e-4


def test_zero_input_zero_output():
    assert cpmm_swap(0.0, 10_000.0, 10_000.0) == 0.0


def test_output_always_below_reserve():
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = float(rng.uniform(0.01, 1e6))
        x = float(rng.uniform(1.0, 1e5))
        y = float(rng.uniform(1.0, 1e5))
        assert cpmm_swap(d, x, y) < y


def test_product_invariant_preserved():
    rng = np.random.default_rng(9)
    for _ in range(500):
        d = float(rng.uniform(0.01, 1e4))
        x = float(rng.uniform(10.0, 1e5))
        y = float(rng.uniform(10.0, 1e5))
        out = cpmm_swap(d, x, y)
        before = x * y
        after = (x + d) * (y - out)
        assert abs(after - before) / before < 1e-9


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        cpmm_swap(-1.0, 10.0, 10.0)


def test_initial_reserves_price_at_true_probabilities():
    market = make_market(probs=(0.7, 0.3))
    for i, f in ((1, 0.7), (2, 0.3)):
        q = market.quote(i, amount("0.01"))
        assert q.implied_price == pytest.approx(f, abs=1e-3)


@pytest.mark.parametrize("k,probs", [(2, (0.75, 0.25)), (3, (0.2, 0.3, 0.5))])
def test_genesis_debits_the_reserves_as_int_micro_units(monkeypatch, k, probs):
    """The ledger rounds only the LP's deposit and the mint of its full set;
    each reserve leaves the LP's account as the int the pool receives."""
    calls = []
    to_micro = ledger.to_micro
    monkeypatch.setattr(ledger, "to_micro", lambda d: calls.append(d) or to_micro(d))
    market = make_market(k=k, probs=probs)
    assert len(calls) == 3  # the LP's and the bettor's deposits, the mint
    lp = market.ledger.bal_micro["lp"]
    funding = 10_000 * UNIT
    for j, f in enumerate(probs, 1):
        reserve = market.pool.r_micro[j]
        assert type(reserve) is int
        assert reserve == to_micro(10_000.0 * min(probs) / f)
        assert lp[j] == funding - reserve
    assert_conserved(market)


def test_seeding_excess_tokens_stay_with_lp():
    market = make_market(probs=(0.75, 0.25))
    # pool reserves equalize at funding * f_min / f_k
    assert market.pool.r[1] == amount(10_000 * 0.25 / 0.75)
    assert market.pool.r[2] == amount(10_000.0)
    assert market.ledger.balance("lp", 1) > ZERO
    assert market.ledger.balance("lp", 2) == ZERO


def test_deep_pool_fair_coin_odds_near_two():
    market = make_market(funding=1_000_000)
    q = market.quote(1, amount(10))
    assert q.odd < 20.0
    assert q.odd == pytest.approx(20.0, rel=1e-4)


def test_zero_wager_zero_odd():
    market = make_market()
    assert market.quote(1, 0).odd == 0.0
    record = market.buy("bettor", 1, 0)
    assert record.odd == ZERO


def test_conservation_over_random_buys():
    market = make_market(k=3, probs=(0.5, 0.3, 0.2))
    rng = np.random.default_rng(13)
    for _ in range(300):
        market.buy("bettor", int(rng.integers(1, 4)),
                   amount(float(rng.uniform(0.01, 200))))
        assert_conserved(market)
    market.close_betting()
    market.resolve("oracle", 1)
    market.redeem("bettor")
    market.redeem_pool()
    market.redeem("lp")
    assert market.ledger.locked == ZERO


def test_buy_moves_price_toward_bet_side():
    market = make_market()
    market.buy("bettor", 1, amount(2_000))
    q = market.quote(1, amount("0.01"))
    assert q.implied_price > 0.5  # reserves-only pricing drifts with flow
