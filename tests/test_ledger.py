from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamm_lab.fixedpoint import ZERO, amount
from uamm_lab.ledger import (
    COLLATERAL,
    ConditionalLedger,
    InsufficientBalance,
    MarketSpec,
    OracleError,
    Phase,
    PhaseError,
)


def fresh(k=2, market_id="m"):
    ledger = ConditionalLedger(MarketSpec(market_id=market_id, k=k))
    ledger.deposit("a", amount(100))
    return ledger


def snapshot(ledger):
    return tuple(sorted(ledger.snapshot_items()))


def test_mint_credits_every_outcome():
    ledger = fresh()
    ledger.mint("a", 10)
    assert ledger.balance("a", 1) == Decimal("10.000000")
    assert ledger.balance("a", 2) == Decimal("10.000000")
    assert ledger.balance("a") == Decimal("90.000000")
    assert ledger.locked == Decimal("10.000000")


def test_mint_zero_is_noop():
    ledger = fresh()
    before = snapshot(ledger)
    ledger.mint("a", 0)
    assert snapshot(ledger) == before


def test_split_mint_equals_single_mint():
    one = fresh()
    one.mint("a", 10)
    two = fresh()
    two.mint("a", amount("7.5"))
    two.mint("a", amount("2.5"))
    assert snapshot(one) == snapshot(two)


def test_mint_requires_collateral():
    ledger = fresh()
    with pytest.raises(InsufficientBalance):
        ledger.mint("a", 1000)


def test_merge_round_trip():
    ledger = fresh()
    before = snapshot(ledger)
    ledger.mint("a", 10)
    ledger.merge("a", 10)
    assert snapshot(ledger) == before
    assert ledger.locked == ZERO


def test_merge_is_min_constrained():
    ledger = fresh()
    ledger.mint("a", 10)
    ledger.debit("a", 2, amount(6))
    ledger.credit("b", 2, amount(6))
    ledger.merge("a", 4)
    assert ledger.balance("a", 1) == Decimal("6.000000")
    assert ledger.balance("a", 2) == Decimal("0.000000")
    assert ledger.balance("a") == Decimal("94.000000")
    with pytest.raises(InsufficientBalance):
        ledger.merge("a", 1)


def test_resolve_requires_oracle_and_closed_market():
    ledger = fresh()
    ledger.mint("a", 10)
    with pytest.raises(PhaseError):
        ledger.resolve("oracle", 1)  # betting still open
    ledger.close_betting()
    before = snapshot(ledger)
    with pytest.raises(OracleError):
        ledger.resolve("mallory", 1)
    assert snapshot(ledger) == before
    ledger.resolve("oracle", 1)
    assert ledger.phase is Phase.RESOLVED
    assert ledger.winner == 1
    with pytest.raises(PhaseError):
        ledger.resolve("oracle", 2)
    assert ledger.winner == 1


def test_resolve_rejects_unknown_winner():
    ledger = fresh()
    ledger.close_betting()
    with pytest.raises(ValueError):
        ledger.resolve("oracle", 3)


def test_no_minting_after_close():
    ledger = fresh()
    ledger.close_betting()
    with pytest.raises(PhaseError):
        ledger.mint("a", 1)


def test_redeem_pays_winner_one_to_one_and_burns_losers():
    ledger = fresh()
    ledger.mint("a", amount("19.99"))
    ledger.close_betting()
    ledger.resolve("oracle", 1)
    paid = ledger.redeem("a")
    assert paid == Decimal("19.990000")
    assert ledger.balance("a", 1) == ZERO
    assert ledger.balance("a", 2) == ZERO
    assert ledger.balance("a") == Decimal("100.000000")
    assert ledger.locked == ZERO


def test_redeem_losing_only_pays_zero():
    ledger = fresh()
    ledger.mint("a", 10)
    ledger.debit("a", 1, amount(10))
    ledger.credit("b", 1, amount(10))
    ledger.close_betting()
    ledger.resolve("oracle", 1)
    assert ledger.redeem("a") == ZERO
    assert ledger.balance("a", 2) == ZERO  # burned
    assert ledger.redeem("b") == Decimal("10.000000")
    assert ledger.locked == ZERO


def test_redeem_requires_resolution():
    ledger = fresh()
    with pytest.raises(PhaseError):
        ledger.redeem("a")


@settings(max_examples=50, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    ops=st.lists(
        st.tuples(st.sampled_from(["mint", "merge"]), st.decimals(
            min_value="0.000001", max_value="30", places=6)),
        max_size=30,
    ),
)
def test_conservation_under_random_mint_merge(k, ops):
    ledger = ConditionalLedger(MarketSpec(market_id="f", k=k))
    ledger.deposit("a", amount(100))
    for name, d in ops:
        try:
            getattr(ledger, name)("a", d)
        except InsufficientBalance:
            pass
        ledger.check_invariants()


def test_snapshot_is_deterministic():
    a, b = fresh(), fresh()
    a.mint("a", 10)
    b.mint("a", 10)
    assert a.snapshot_items() == b.snapshot_items()
