"""``Market.check_invariants`` names each book that does not balance.

The conservation fuzz (acceptance criterion 1) and the state machines trust
this checker to raise when a book breaks.  Here a traded market on each
engine has one book corrupted at a time, and the checker must raise
:class:`~uamm_lab.ledger.InvariantViolation` with the exact text of that
book's problem, and of no other.
"""

from fractions import Fraction

import pytest

from uamm_lab import sim
from uamm_lab.ledger import ORACLE, InvariantViolation


def traded(engine):
    """A funded K = 3 market of ``engine`` after two funded bets, whose
    books balance; the bettor's and the LP's collateral are both 0."""
    market = sim.build_market(engine, "inv", 3, (0.2, 0.3, 0.5), 1_000.0, 0.025)
    market.buy(sim.BETTOR, 1, 25.0, fund=True)
    market.buy(sim.BETTOR, 3, 40.0, fund=True)
    market.check_invariants()
    return market


def problems(market) -> list[str]:
    """The problems the checker names, in its order."""
    with pytest.raises(InvariantViolation) as raised:
        market.check_invariants()
    text = str(raised.value)
    assert text.startswith("market inv: ")
    return text.removeprefix("market inv: ").split("; ")


@pytest.mark.parametrize("engine", sim.ENGINES)
def test_a_negative_balance_is_named(engine):
    market = traded(engine)
    # a micro-unit moves from the bettor to the LP: every sum still balances
    market.ledger.bal_micro[sim.BETTOR][0] -= 1
    market.ledger.bal_micro[sim.LP][0] += 1
    assert problems(market) == ["balance bettor/0 is -1, not an int >= 0 of micro-units"]


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("book,slot,name", [("reserve", 2, "pool r2"),
                                            ("balance", 3, "balance bettor/3")])
@pytest.mark.parametrize("kind", [float, Fraction])
def test_a_book_that_is_not_an_int_of_micro_units_is_named(engine, book, slot, name, kind):
    market = traded(engine)
    books = market.pool.r_micro if book == "reserve" else market.ledger.bal_micro[sim.BETTOR]
    # the same value, of another type: only the type check can see it
    books[slot] = kind(books[slot])
    assert problems(market) == [f"{name} is {books[slot]!r}, not an int >= 0 of micro-units"]


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_outcome_token_credited_from_nothing_is_named(engine, k):
    market = traded(engine)
    market.ledger.bal_micro[sim.BETTOR][k] += 7
    locked = market.ledger.locked_micro
    assert problems(market) == [
        f"outcome {k}: holdings + pool = {locked + 7} micro-units, locked = {locked}"]


@pytest.mark.parametrize("engine", sim.ENGINES)
def test_collateral_moved_into_the_fee_book_without_a_deposit_is_named(engine):
    market = traded(engine)
    market.pool.fee_micro += 5
    deposited = market.ledger.deposited_micro
    assert problems(market) == [
        f"collateral: accounts + pool + locked + fees = {deposited + 5} micro-units, "
        f"deposited = {deposited}"]


@pytest.mark.parametrize("engine", sim.ENGINES)
def test_every_broken_book_is_named_at_once(engine):
    market = traded(engine)
    market.ledger.bal_micro[sim.BETTOR][2] += 1
    market.pool.fee_micro += 1
    found = problems(market)
    assert [p.split(":")[0] for p in found] == ["outcome 2", "collateral"]


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("winner", [1, 2, 3])
def test_after_resolution_a_corrupted_winning_token_is_named(engine, winner):
    market = traded(engine)
    market.close_betting()
    market.resolve(ORACLE, winner)
    market.redeem(sim.BETTOR)
    market.redeem_pool()
    market.check_invariants()
    # redeeming burned the losing tokens, so only the winner's is checked
    loser = winner % 3 + 1
    market.ledger.bal_micro[sim.LP][loser] += 3
    market.check_invariants()
    market.ledger.bal_micro[sim.LP][winner] += 3
    locked = market.ledger.locked_micro
    assert problems(market) == [
        f"outcome {winner}: holdings + pool = {locked + 3} micro-units, locked = {locked}"]
