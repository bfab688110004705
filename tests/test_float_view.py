"""A quote must never read stale pool state.

The quote kernels read a pool's int reserves directly, and the float of its
target balance, which the pool writes beside the int wherever the target
balance moves.  Every check compares a live market's quote with the quote of
a twin whose pool is freshly built from the same ``r`` (and ``ts`` and
``tb``); the two must be equal field for field, for every outcome and for
bet sized and probe sized wagers alike.  :func:`conftest.float_view` is the
floats a quote starts from, built from the pool's exact reads.
"""

from decimal import Decimal

import pytest
from conftest import float_view
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from uamm_lab import sim
from uamm_lab.baseline import cpmm_odds
from uamm_lab.fixedpoint import UNIT, ZERO, amount, to_micro
from uamm_lab.ledger import InsufficientBalance, Phase
from uamm_lab.market import Reserves
from uamm_lab.uamm import FairPriceVector, PoolState, UammMarket, UnfillableQuote, calc_odds

ENGINES = ("uamm", "cpmm")
#: Bet-sized, probe-sized (the overround probe's 1e-4) and zero wagers.
WAGERS = (amount(12.34), amount(750), 1e-4, Decimal("0.000001"), 0.0)


def fresh_pool(pool):
    if isinstance(pool, PoolState):
        return PoolState(r=list(pool.r), ts=pool.ts, tb=pool.tb)
    return Reserves(r=list(pool.r))


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except UnfillableQuote:
        return "unfillable"


def fresh_twin(market):
    """A market like ``market`` whose pool is rebuilt from the same state."""
    twin = type(market)(market.spec, market.fair)
    twin.pool = fresh_pool(market.pool)
    return twin


def assert_quotes_fresh(market):
    """``market.quote`` equals a fresh twin's quote for every outcome/wager."""
    twin = fresh_twin(market)
    for i in market.spec.outcomes:
        for w in WAGERS:
            assert outcome_of(market.quote, i, w) == outcome_of(twin.quote, i, w), (i, w)


def assert_kernel_fresh(market):
    """The engine's quote kernel on ``market``'s pool equals it on a fresh
    pool, for every outcome and wager, whatever the market's phase."""
    pool, fresh = market.pool, fresh_pool(market.pool)
    assert pool.tb_float == fresh.tb_float
    for i in market.spec.outcomes:
        for w in WAGERS:
            assert outcome_of(market._odds, pool, market.fair, i, w) == \
                outcome_of(market._odds, fresh, market.fair, i, w), (i, w)


def funded(engine, k=3, funding=2_000.0):
    probs = {2: (0.7, 0.3), 3: (0.2, 0.3, 0.5)}[k]
    market = sim.build_market(engine, "v", k, probs, funding, 0.025)
    market.deposit("bettor", amount(100_000))
    assert_quotes_fresh(market)
    return market


# -- one mutation at a time --------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_quote_after_buy(engine):
    market = funded(engine)
    for i, w in ((1, 40), (3, 250), (2, 5), (1, 900)):
        market.buy("bettor", i, amount(w))
        assert_quotes_fresh(market)


@pytest.mark.parametrize("engine", ENGINES)
def test_quote_after_add_liquidity(engine):
    market = funded(engine)
    market.buy("bettor", 2, amount(300))
    market.quote(1, amount(10))
    market.deposit("lp2", amount(700))
    market.add_liquidity("lp2", amount(700))
    assert_quotes_fresh(market)


def test_quote_after_remove_liquidity():
    market = funded("uamm")
    market.buy("bettor", 3, amount(300))
    market.quote(1, amount(10))
    market.remove_liquidity("lp", market.lp_shares["lp"] / 3)
    assert_quotes_fresh(market)


def test_calc_odds_after_in_place_pool_add_and_remove():
    market = funded("uamm")
    pool, fair = market.pool, market.fair

    def check():
        fresh = fresh_pool(pool)
        for i in market.spec.outcomes:
            for w in WAGERS:
                assert outcome_of(calc_odds, pool, fair, i, w, 0.025) == \
                    outcome_of(calc_odds, fresh, fair, i, w, 0.025)

    calc_odds(pool, fair, 1, 10.0)
    pool.add(Decimal("123.456789"), fair)
    check()
    pool.remove(pool.ts / 7, quantize=True)
    check()


@pytest.mark.parametrize("engine", ENGINES)
def test_view_after_redeem_pool(engine):
    market = funded(engine)
    market.buy("bettor", 1, amount(500))
    market.quote(2, amount(10))
    market.close_betting()
    market.resolve("oracle", 1)
    market.redeem_pool()
    assert_kernel_fresh(market)
    # every outcome reserve is 0, so each combined reserve is the collateral
    r0 = market.pool.r_micro[0] / UNIT
    assert float_view(market.pool)[1] == (0.0,) + (r0,) * market.spec.k


@pytest.mark.parametrize("engine", ENGINES)
def test_quote_after_in_place_reserve_edit(engine):
    market = funded(engine)
    market.pool.r_micro[2] += 333_000_001
    assert_quotes_fresh(market)
    market.pool.r_micro[0] = 50_500_000
    assert_quotes_fresh(market)


@pytest.mark.parametrize("engine", ENGINES)
def test_quote_after_rebinding_reserves(engine):
    market = funded(engine)
    market.pool.r = [Decimal("10")] + [x * 2 for x in market.pool.r[1:]]
    assert_quotes_fresh(market)


def test_quote_after_rebinding_target_balance():
    market = funded("uamm")
    market.buy("bettor", 2, amount(800))
    market.quote(1, amount(10))
    # an equal but distinct object, then a different value
    market.pool.tb = Decimal(str(market.pool.tb))
    assert_quotes_fresh(market)
    market.pool.tb = market.pool.tb * 3
    assert_quotes_fresh(market)


@pytest.mark.parametrize("engine", ENGINES)
def test_buy_leaves_the_reserves_its_record_reports(engine):
    market = funded(engine)
    record = market.buy("bettor", 1, amount(60))
    rf = record.post_r
    assert rf == tuple(n / UNIT for n in market.pool.r_micro)
    assert float_view(market.pool)[1] == (0.0, *[x + rf[0] for x in rf[1:]])
    assert_quotes_fresh(market)


def test_float_view_contents():
    pool = PoolState(r=[Decimal("1.5"), Decimal("2.25"), Decimal("4")],
                     tb=Decimal("3.125"))
    assert float_view(pool) == (3.125, (0.0, 3.75, 5.5))
    assert pool.tb_float == 3.125
    cpmm = Reserves(r=[ZERO, Decimal("2"), Decimal("3")])
    assert float_view(cpmm) == (0.0, (0.0, 2.0, 3.0))
    assert cpmm.tb_float == 0.0
    # a quote after each mutation equals a fresh pool's
    fair = FairPriceVector((0.4, 0.6))

    def check(p):
        for i in (1, 2):
            for kernel in (calc_odds, cpmm_odds):
                assert outcome_of(kernel, p, fair, i, 0.5) == \
                    outcome_of(kernel, fresh_pool(p), fair, i, 0.5)

    for p in (pool, cpmm):
        p.r_micro[1] += 7
        check(p)
    pool.tb = Decimal("2.5")
    check(pool)


# -- stateful: any sequence of operations --------------------------------------


ACCOUNTS = ("lp", "bettor", "lp2")
WAGER = st.decimals(min_value="0.01", max_value="3000", places=2)


class PoolMachine(RuleBasedStateMachine):
    """Deposit, add, remove, quote and buy on one market, then close,
    resolve, redeem and settle the pool; after every step each quote (or,
    once betting has closed, the quote kernel's figures) equals a fresh
    pool's and the market's books balance."""

    engine = "uamm"

    @initialize(k=st.sampled_from((2, 3)), funding=st.sampled_from((300.0, 5_000.0)))
    def start(self, k, funding):
        self.market = funded(self.engine, k, funding)
        self.deposited = to_micro(funding) + to_micro(100_000)

    def is_open(self):
        return self.market.phase is Phase.OPEN

    @rule(account=st.sampled_from(ACCOUNTS), d=WAGER)
    def deposit(self, account, d):
        self.market.deposit(account, d)
        self.deposited += to_micro(d)

    @precondition(is_open)
    @rule(account=st.sampled_from(ACCOUNTS), d=WAGER)
    def add(self, account, d):
        try:
            self.market.add_liquidity(account, d)
        except InsufficientBalance:
            pass

    @precondition(lambda self: isinstance(self.market, UammMarket))
    @rule(account=st.sampled_from(ACCOUNTS), frac=st.sampled_from(("0.1", "0.5", "1")))
    def remove(self, account, frac):
        held = self.market.lp_shares.get(account, ZERO)
        if held > 0:
            self.market.remove_liquidity(account, held * Decimal(frac))

    @precondition(is_open)
    @rule(i=st.integers(1, 3), w=WAGER)
    def quote(self, i, w):
        i = min(i, self.market.spec.k)
        twin = fresh_twin(self.market)
        assert outcome_of(self.market.quote, i, w) == outcome_of(twin.quote, i, w)

    @precondition(is_open)
    @rule(account=st.sampled_from(ACCOUNTS), i=st.integers(1, 3), w=WAGER)
    def buy(self, account, i, w):
        try:
            self.market.buy(account, min(i, self.market.spec.k), w)
        except (InsufficientBalance, UnfillableQuote):
            pass

    # settle traded markets only, so settlement sees pools that bets moved
    @precondition(lambda self: self.is_open() and self.market.bets)
    @rule()
    def close(self):
        self.market.close_betting()

    @precondition(lambda self: self.market.phase is Phase.CLOSED)
    @rule(winner=st.integers(1, 3))
    def resolve(self, winner):
        self.market.resolve("oracle", min(winner, self.market.spec.k))

    @precondition(lambda self: self.market.phase is Phase.RESOLVED)
    @rule(account=st.sampled_from(ACCOUNTS))
    def redeem(self, account):
        self.market.redeem(account)

    @precondition(lambda self: self.market.phase is Phase.RESOLVED)
    @rule()
    def redeem_pool(self):
        self.market.redeem_pool()

    @invariant()
    def quotes_match_a_fresh_pool(self):
        if self.is_open():
            assert_quotes_fresh(self.market)
        else:
            assert_kernel_fresh(self.market)

    @invariant()
    def books_balance(self):
        self.market.check_invariants()
        assert self.market.ledger.deposited_micro == self.deposited


class CpmmPoolMachine(PoolMachine):
    engine = "cpmm"


MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestUammPoolMachine = PoolMachine.TestCase
TestUammPoolMachine.settings = MACHINE_SETTINGS
TestCpmmPoolMachine = CpmmPoolMachine.TestCase
TestCpmmPoolMachine.settings = MACHINE_SETTINGS

