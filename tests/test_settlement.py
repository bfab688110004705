"""Settlement-heavy state machines over both engines.

Every example trades from its first step, so settlement always sees a pool
that bets moved.  Between bets, accounts mint and merge uniform sets, add and
(on the UAMM) remove liquidity; then the market closes, resolves, and the
accounts and the pool settle.  After every step the market checks its own
books with ``Market.check_invariants``.
"""

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from uamm_lab import sim
from uamm_lab.fixedpoint import ZERO
from uamm_lab.ledger import InsufficientBalance, Phase, PhaseError
from uamm_lab.uamm import UammMarket, UnfillableQuote

ACCOUNTS = ("lp", "bettor", "lp2")
WAGER = st.decimals(min_value="0.01", max_value="2000", places=2)
#: Off the cent grid too, so fees are rounded as well as exact.
AMOUNT = st.decimals(min_value="0.000001", max_value="500", places=6)
PROBS = {2: (0.7, 0.3), 3: (0.2, 0.3, 0.5)}


class SettlementMachine(RuleBasedStateMachine):
    engine = "uamm"

    @initialize(
        k=st.sampled_from((2, 3)),
        funding=st.sampled_from((300.0, 2_000.0)),
        bets=st.lists(st.tuples(st.integers(1, 3), WAGER), min_size=1, max_size=4),
    )
    def start(self, k, funding, bets):
        self.market = sim.build_market(self.engine, "s", k, PROBS[k], funding, 0.025)
        for account in ACCOUNTS:
            self.market.deposit(account, 50_000)
        for i, w in bets:
            self.buy("bettor", i, w)

    def is_open(self):
        return self.market.phase is Phase.OPEN

    def outcome(self, i):
        return min(i, self.market.spec.k)

    @rule(account=st.sampled_from(ACCOUNTS), d=AMOUNT)
    def deposit(self, account, d):
        self.market.deposit(account, d)

    @precondition(is_open)
    @rule(account=st.sampled_from(ACCOUNTS), d=AMOUNT)
    def mint(self, account, d):
        try:
            self.market.ledger.mint(account, d)
        except InsufficientBalance:
            pass

    @rule(account=st.sampled_from(ACCOUNTS), d=AMOUNT)
    def merge(self, account, d):
        try:
            self.market.ledger.merge(account, d)
        except InsufficientBalance:
            pass

    @precondition(is_open)
    @rule(account=st.sampled_from(ACCOUNTS), i=st.integers(1, 3), w=WAGER | AMOUNT)
    def buy(self, account, i, w):
        try:
            self.market.buy(account, self.outcome(i), w)
        except (InsufficientBalance, UnfillableQuote):
            pass

    @precondition(is_open)
    @rule(account=st.sampled_from(ACCOUNTS), d=AMOUNT)
    def add(self, account, d):
        try:
            self.market.add_liquidity(account, d)
        except InsufficientBalance:
            pass

    @precondition(lambda self: self.is_open() and isinstance(self.market, UammMarket))
    @rule(account=st.sampled_from(ACCOUNTS), frac=st.sampled_from(("0.1", "0.5", "1")))
    def remove(self, account, frac):
        held = self.market.lp_shares.get(account, ZERO)
        if held > 0:
            self.market.remove_liquidity(account, held * Decimal(frac))

    @precondition(is_open)
    @rule()
    def close(self):
        self.market.close_betting()

    @precondition(lambda self: self.market.phase is Phase.CLOSED)
    @rule(winner=st.integers(1, 3))
    def resolve(self, winner):
        self.market.resolve("oracle", self.outcome(winner))

    @precondition(lambda self: self.market.phase is Phase.RESOLVED)
    @rule(account=st.sampled_from(ACCOUNTS))
    def redeem(self, account):
        self.market.redeem(account)

    @precondition(lambda self: self.market.phase is Phase.RESOLVED)
    @rule()
    def redeem_pool(self):
        self.market.redeem_pool()

    @invariant()
    def books_balance(self):
        self.market.check_invariants()


class CpmmSettlementMachine(SettlementMachine):
    engine = "cpmm"


MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestUammSettlement = SettlementMachine.TestCase
TestUammSettlement.settings = MACHINE_SETTINGS
TestCpmmSettlement = CpmmSettlementMachine.TestCase
TestCpmmSettlement.settings = MACHINE_SETTINGS


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("engine", sim.ENGINES)
def test_a_refused_settlement_moves_nothing(engine, closed):
    """Before resolution ``redeem`` and ``redeem_pool`` raise, leave the
    snapshot as it was and open no account (both settle through the
    ledger's one rule, which checks the phase before it touches a book)."""
    market = sim.build_market(engine, "s", 3, PROBS[3], 2_000.0, 0.025)
    market.deposit("bettor", 1_000)
    market.buy("bettor", 2, 150.0)
    if closed:
        market.close_betting()
    before = market.snapshot()
    with pytest.raises(PhaseError, match="market is not resolved"):
        market.redeem("stranger")
    with pytest.raises(PhaseError, match="market is not resolved"):
        market.redeem("bettor")
    with pytest.raises(PhaseError, match="market is not resolved"):
        market.redeem_pool()
    assert market.snapshot() == before
    assert "stranger" not in market.ledger.accounts()
    market.check_invariants()


@pytest.mark.parametrize("phase", ["closed", "resolved"])
@pytest.mark.parametrize("engine", sim.ENGINES)
def test_once_betting_closes_every_open_phase_operation_gives_the_ledgers_message(engine, phase):
    """A quote, a buy, a liquidity deposit, a mint and a second close all
    raise the ledger's one open-phase message
    (:meth:`ConditionalLedger.require_open`) and move nothing."""
    market = sim.build_market(engine, "s", 3, PROBS[3], 2_000.0, 0.025)
    market.deposit("bettor", 1_000)
    market.buy("bettor", 2, 150.0)
    market.close_betting()
    if phase == "resolved":
        market.resolve("oracle", 2)
    before = market.snapshot()
    message = f"^market is {phase}, not open$"
    with pytest.raises(PhaseError, match=message):
        market.quote(1, 10.0)
    with pytest.raises(PhaseError, match=message):
        market.buy("bettor", 1, 10.0)
    with pytest.raises(PhaseError, match=message):
        market.add_liquidity("bettor", 10.0)
    with pytest.raises(PhaseError, match=message):
        market.ledger.mint("bettor", 10.0)
    with pytest.raises(PhaseError, match=message):
        market.close_betting()
    assert market.snapshot() == before
    market.check_invariants()
