"""Each engine's buy equals the leg-by-leg reference pipeline.

:meth:`uamm_lab.market.Market.buy` runs its engine's leg loop (``_legs``),
which writes the swap rule inline and rounds each leg with ``to_micro``'s
float fast path inline, and merges in int algebra without a scratch pool.
:func:`conftest.reference_buy` runs the pipeline it replaced: a scratch copy
of the combined reserves, one ``to_micro`` of a public swap kernel call per
leg, and the min-merge.  For every pool a market can reach and every wager,
the two must return ``repr``-equal records whose floats have equal
``float.hex`` (so ``-0.0`` and ``0.0`` differ), leave equal snapshots, or
raise the same exception type with the same text; both markets' books must
balance after every buy.
"""

import math
from decimal import Decimal

import pytest
from conftest import reference_buy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm_lab.ledger import InsufficientBalance, MarketSpec, PhaseError
from uamm_lab.sim import ENGINE_CLASSES
from uamm_lab.uamm import UnfillableQuote

#: Zero and ``-0.0``, negatives (one that rounds to zero), a wager that
#: rounds to zero, a micro-unit, and wagers beyond most pools and balances.
SPECIAL_WAGERS = (0.0, -0.0, -1.0, -1e-7, 1e-7, 1e-6, 1e7, 1e20)


def build(engine, weights, funding, balance, moves):
    """A market of ``engine`` priced at ``weights`` normalized, funded with
    ``funding`` (none at 0), whose bettor holds ``balance``, then moved by
    ``moves``: ``("buy", outcome, wager)``, ``("add", _, amount)`` or, on the
    UAMM, ``("remove", n, _)``, which burns ``n / 5`` of the LP's shares.  A
    move the market refuses is skipped."""
    total = sum(weights)
    k = len(weights)
    market = ENGINE_CLASSES[engine](MarketSpec("kb", k, Decimal("0.025")),
                                    [w / total for w in weights])
    market.deposit("lp", 10**10)
    market.deposit("bettor", balance)
    if funding:
        market.add_liquidity("lp", funding)
    for kind, outcome, value in moves:
        try:
            if kind == "buy":
                market.buy("bettor", (outcome - 1) % k + 1, value)
            elif kind == "add":
                market.add_liquidity("lp", value)
            elif engine == "uamm":
                market.remove_liquidity("lp", market.lp_shares.get("lp", 0) * outcome / 5)
        except (UnfillableQuote, InsufficientBalance, ValueError):
            pass
    return market


def outcome_of(buy, *args):
    """The record's ``repr`` and the hex of its floats, or the type and text
    of what the buy raised."""
    try:
        record = buy(*args)
    except (ValueError, UnfillableQuote, InsufficientBalance, PhaseError) as exc:
        return type(exc), str(exc)
    floats = (record.implied_price, record.slippage, *record.post_r)
    return repr(record), tuple(float.hex(x) for x in floats)


def run_both(case, branches=None):
    """Run the case's buys on a market and, through the reference, on its
    twin; check each pair and return the market's outcomes."""
    engine, weights, funding, balance, moves, bets = case
    market = build(engine, weights, funding, balance, moves)
    twin = build(engine, weights, funding, balance, moves)
    assert market.snapshot() == twin.snapshot()
    seen = []
    for i, wager in bets:
        got = outcome_of(market.buy, "bettor", i, wager)
        assert got == outcome_of(reference_buy, twin, "bettor", i, wager, branches)
        assert market.snapshot() == twin.snapshot()
        market.check_invariants()
        twin.check_invariants()
        seen.append(got)
    return seen


wagers = st.one_of(
    st.sampled_from(SPECIAL_WAGERS),
    st.integers(1, 10**8).map(lambda cents: cents / 100),
    st.floats(1e-9, 1e7, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**5),
)
#: Legs of about 10**7 to 10**9 units on a pool of 10**9: there a float's last
#: bit is up to an eighth of a micro-unit, so a leg computed with any other
#: float operations, or rounded without the tie guard, soon lands on another
#: micro-unit.
large_wagers = st.floats(1e7, 1e9)


def cases_for(weights, fundings=(0, 50, 1_000, 100_000), balances=(10**11, 1_000, 5),
              wagers=wagers):
    """An engine, a pool priced at ``weights`` and funded with one of
    ``fundings``, a bettor holding one of ``balances``, the moves before, and
    the buys to compare, each on an outcome of the market."""
    return st.tuples(
        st.sampled_from(sorted(ENGINE_CLASSES)),
        st.just(weights),
        st.sampled_from(fundings),
        st.sampled_from(balances),
        st.lists(st.tuples(st.sampled_from(("buy", "add", "remove")), st.integers(1, 6),
                           st.integers(1, 10**6).map(lambda cents: cents / 100)),
                 max_size=8),
        st.lists(st.tuples(st.integers(1, len(weights)), wagers), min_size=1, max_size=6),
    )


weights = st.lists(st.integers(1, 20), min_size=2, max_size=6)
cases = weights.flatmap(cases_for)
large_cases = weights.flatmap(lambda w: cases_for(w, (10**9,), (10**11,), large_wagers))

#: Cases whose UAMM legs take each branch of ``swap_out``, a buy that drains
#: its pool, one the bettor cannot cover, and zero and negative wagers;
#: :func:`test_examples_reach_every_branch` checks what they reach.
EXAMPLES = {
    # a fresh pool sits at its target: the first leg straddles it
    "straddle": ("uamm", [1, 1], 1_000, 10**11, [], [(1, 10.0)]),
    # a buy on 2 adds outcome-1 tokens above the target, and takes outcome 2
    # below it
    "surplus": ("uamm", [1, 1], 1_000, 10**11, [("buy", 2, 300.0)], [(1, 10.0)]),
    "deficit": ("uamm", [1, 1], 1_000, 10**11, [("buy", 2, 300.0)], [(2, 10.0)]),
    # an unfunded pool is empty: every leg pays nothing
    "zero": ("uamm", [1, 3, 6], 0, 10**11, [], [(2, 10.0)]),
    # above the target, a large wager's straddle leg pays more than the pool
    "unfillable": ("uamm", [1, 1], 1_000, 10**11, [("buy", 2, 300.0)], [(1, 10_000.0)]),
    "insufficient": ("cpmm", [1, 2, 3, 4], 1_000, 5, [], [(3, 10.0)]),
    "zero wager": ("cpmm", [2, 3, 5], 1_000, 10**11, [("buy", 1, 40.0)], [(3, 0.0)]),
    "negative wager": ("uamm", [1, 1, 1, 1, 1, 1], 50, 10**11, [], [(4, -1e-7)]),
    "cpmm wide": ("cpmm", [1, 2, 3, 4, 5, 6], 1_000, 10**11, [("buy", 6, 99.0)],
                  [(1, 25.0), (6, 1e7), (2, 0.37)]),
}


@settings(max_examples=300, deadline=None)
@given(case=cases)
@example(case=EXAMPLES["straddle"])
@example(case=EXAMPLES["surplus"])
@example(case=EXAMPLES["deficit"])
@example(case=EXAMPLES["zero"])
@example(case=EXAMPLES["unfillable"])
@example(case=EXAMPLES["insufficient"])
@example(case=EXAMPLES["zero wager"])
@example(case=EXAMPLES["negative wager"])
@example(case=EXAMPLES["cpmm wide"])
def test_buy_equals_reference_pipeline(case):
    run_both(case)


@settings(max_examples=100, deadline=None)
@given(case=large_cases)
# a fresh pool sits exactly at its target, where the straddle leg and the
# deficit formula agree in exact arithmetic but not in float: this one rounds
# to another micro-unit if the leg takes the deficit branch
@example(case=("uamm", [1, 1], 10**9, 10**11, [], [(1, 719791487.92)]))
def test_buy_equals_reference_pipeline_on_large_pools(case):
    run_both(case)


def test_examples_reach_every_branch():
    seen = {}
    for name, case in EXAMPLES.items():
        branches = []
        seen[name] = (branches, run_both(case, branches))
    for name in ("straddle", "surplus", "deficit", "zero"):
        assert seen[name][0][0] == name
    assert seen["zero"][0] == ["zero", "zero"]
    assert seen["unfillable"][0] == ["straddle"]
    assert seen["unfillable"][1][0][0] is UnfillableQuote
    assert seen["insufficient"][1][0][0] is InsufficientBalance
    assert ("wager_micro=0, fee_micro=0, odd_micro=0, s_lp_wad=None,"
            in seen["zero wager"][1][0][0])
    assert seen["negative wager"][1][0] == (ValueError, "wager must be non-negative")


@pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
@pytest.mark.parametrize("i,wager", [(0, 1.0), (5, 1.0), (1, -1e-300), (1, math.inf),
                                     (1, math.nan), (1, -0.0), (1, "12.5"),
                                     (1, Decimal("0.0000004")), (2, 7)])
def test_buy_edges_equal_reference(engine, i, wager):
    run_both((engine, [1, 2, 3, 4], 1_000, 10**11, [], [(i, wager)]))


@pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
def test_closed_market_raises_as_reference(engine):
    market = build(engine, [1, 1], 1_000, 10**11, [])
    twin = build(engine, [1, 1], 1_000, 10**11, [])
    market.close_betting()
    twin.close_betting()
    assert outcome_of(market.buy, "bettor", 1, 10.0) == \
        outcome_of(reference_buy, twin, "bettor", 1, 10.0)
