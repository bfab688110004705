import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamm_lab.fixedpoint import ZERO, amount, to_micro
from uamm_lab.ledger import (
    COLLATERAL,
    ConditionalLedger,
    InsufficientBalance,
    MarketSpec,
    OracleError,
    Phase,
    PhaseError,
    check_outcome_count,
)


def fresh(k=2, market_id="m"):
    ledger = ConditionalLedger(MarketSpec(market_id=market_id, k=k))
    ledger.deposit("a", amount(100))
    return ledger


def snapshot(ledger):
    return tuple(sorted(ledger.snapshot_items()))


@pytest.mark.parametrize("name,value", [
    ("phase", Phase.RESOLVED), ("winner", 1), ("locked_micro", 5),
    ("deposited_micro", 5), ("bal_micro", {"a": [5, 0, 0]}), ("fee_payers", {"a"}),
])
def test_ledger_takes_only_its_spec(name, value):
    """The books and the lifecycle start empty and open: a caller cannot
    construct a ledger part-way through its life."""
    with pytest.raises(TypeError):
        ConditionalLedger(MarketSpec(market_id="m", k=2), **{name: value})
    ledger = ConditionalLedger(MarketSpec(market_id="m", k=2))
    assert (ledger.phase, ledger.winner, ledger.locked_micro, ledger.deposited_micro,
            ledger.bal_micro) == (Phase.OPEN, None, 0, 0, {})
    # the ledger keeps no fee-payer book: every balance reads to 6 places
    assert not hasattr(ledger, "fee_payers")


@pytest.mark.parametrize("k", [2.5, 2.0, "3", True, None, np.float64(3.0)])
def test_an_outcome_count_is_an_integer(k):
    """A bool or a non-integer outcome count is refused by the one shape
    rule with ``ValueError``, by the spec and by ``build_market`` alike, before
    any book or leg plan is built; a numpy integer is an outcome count."""
    from uamm_lab.sim import build_market

    message = re.escape(f"k must be an integer, got {k!r}")
    for build in (lambda: check_outcome_count(k), lambda: MarketSpec("m", k),
                  lambda: build_market("uamm", "m", k, (0.5, 0.5), 1_000.0, 0.025)):
        with pytest.raises(ValueError, match=message):
            build()
    assert MarketSpec("m", np.int64(3)).outcomes == range(1, 4)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.floats(0.0, 1e15),
    st.decimals(min_value=0, max_value=10**15, allow_nan=False, places=9),
    st.integers(0, 10**15),
))
def test_deposit_is_deposit_micro_of_the_rounded_amount(d):
    a, b = fresh(), fresh()
    a.deposit("x", d)
    b.deposit_micro("x", to_micro(d))
    assert a.snapshot_items() == b.snapshot_items()
    assert a.bal_micro == b.bal_micro
    assert a.deposited_micro == b.deposited_micro
    a.check_invariants()


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("d", [-1e-7, Decimal("-0.0000004"), "-0.0000001"])
def test_negative_amounts_that_round_to_zero_are_rejected(engine, d):
    # rounded to the grid these are zero, but their sign is checked first,
    # as Market.buy checks a wager's
    from uamm_lab.sim import build_market

    market = build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
    market.deposit("a", amount(100))
    market.ledger.mint("a", amount(10))
    before = market.snapshot()
    ops = (market.deposit, market.ledger.deposit, market.ledger.mint,
           market.ledger.merge)
    for op in ops:
        with pytest.raises(ValueError, match="non-negative"):
            op("a", d)
        assert market.snapshot() == before
    for op in ops:
        op("a", -0.0)  # zero, whatever its sign bit
    assert market.snapshot() == before


def test_deposits_reject_negative_amounts():
    ledger = fresh()
    before = snapshot(ledger)
    for deposit, d in ((ledger.deposit, -1.0), (ledger.deposit, Decimal("-0.01")),
                       (ledger.deposit_micro, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            deposit("a", d)
    assert snapshot(ledger) == before


@pytest.mark.parametrize("token", [COLLATERAL, 1])
def test_credits_and_debits_reject_negative_amounts(token):
    # a negative debit would create tokens from nothing and a negative credit
    # would leave a negative balance; each is refused before any book moves,
    # including for an account the ledger has not seen
    ledger = fresh()
    ledger.mint("a", amount(10))
    before = snapshot(ledger)
    for op, d in ((ledger.credit, -5), (ledger.credit, Decimal("-0.000001")),
                  (ledger.credit, -1e-7), (ledger.debit, -5),
                  (ledger.debit, Decimal("-0.01")), (ledger.debit, "-0.0000001"),
                  (ledger.debit_micro, -1)):
        for account in ("a", "new"):
            with pytest.raises(ValueError, match="non-negative"):
                op(account, token, d)
            assert snapshot(ledger) == before
    ledger.check_invariants()
    for op in (ledger.credit, ledger.debit, ledger.debit_micro):
        op("a", token, 0)  # zero moves nothing
    ledger.credit("a", token, -0.0)
    ledger.debit("a", token, Decimal("-0"))
    assert snapshot(ledger) == before
