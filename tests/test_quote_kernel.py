"""Each engine's quote kernel equals the leg-by-leg reference pipeline.

:func:`uamm_lab.uamm.calc_odds` and :func:`uamm_lab.baseline.cpmm_odds`
write their engine's swap rule inline in the leg loop.
:func:`conftest.reference_quote` runs the same legs through the public swap
kernels, one call per leg.  For every pool a market can reach and every
wager, the two must return ``==``-equal quotes whose floats have equal
``float.hex`` (so ``-0.0`` and ``0.0`` differ), or raise the same exception
type.
"""

from decimal import Decimal

import pytest
from conftest import reference_quote
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm_lab.baseline import CpmmMarket, cpmm_odds
from uamm_lab.ledger import MarketSpec
from uamm_lab.market import Reserves
from uamm_lab.uamm import FairPriceVector, PoolState, UammMarket, UnfillableQuote, calc_odds

ENGINES = {"uamm": UammMarket, "cpmm": CpmmMarket}

#: Zero, a micro-unit, the overround probe's 1e-4 and a wager beyond any pool.
SPECIAL_WAGERS = (0.0, 1e-6, 1e-4, 1e20)


def build(engine, weights, funding, moves):
    """A market of ``engine`` priced at ``weights`` normalized, funded with
    ``funding`` (none at 0), then moved by ``moves``: ``("buy", outcome,
    wager)``, ``("add", _, amount)`` or, on the UAMM, ``("remove", n, _)``,
    which burns ``n / 5`` of the LP's shares.  A move the market refuses (an
    unfillable buy, a removal of nothing) is skipped."""
    total = sum(weights)
    k = len(weights)
    market = ENGINES[engine](MarketSpec("kq", k, Decimal("0.025")),
                             [w / total for w in weights])
    market.deposit("lp", 10**9)
    market.deposit("bettor", 10**9)
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
        except (UnfillableQuote, ValueError):
            pass
    return market


def outcome_of(quote, *args):
    """The quote and the hex of its floats, or the type of what it raised."""
    try:
        q = quote(*args)
    except (ValueError, UnfillableQuote) as exc:
        return type(exc)
    return q, tuple(float.hex(x) for x in (q.odd, q.implied_price, q.slippage))


def both(market, i, wager, branches=None):
    """(the market's own quote, the reference's) of ``wager`` on ``i``."""
    kernel = outcome_of(market.quote, i, wager)
    reference = outcome_of(
        reference_quote, market.pool, market.fair, i, wager,
        float(market.spec.fee_rate), market.engine, branches,
    )
    return kernel, reference


wagers = st.one_of(
    st.sampled_from(SPECIAL_WAGERS),
    st.integers(1, 10**8).map(lambda cents: cents / 100),
    st.floats(1e-9, 1e7, allow_nan=False, allow_infinity=False),
)
cases = st.tuples(
    st.sampled_from(sorted(ENGINES)),
    st.lists(st.integers(1, 20), min_size=2, max_size=5),
    st.sampled_from((0, 50, 1_000, 100_000)),
    st.lists(st.tuples(st.sampled_from(("buy", "add", "remove")), st.integers(1, 5),
                       st.integers(1, 10**6).map(lambda cents: cents / 100)),
             max_size=8),
    st.integers(1, 5),
    wagers,
)

#: Cases whose UAMM legs take each branch of ``swap_out``, a wager that
#: drains its pool, a zero wager and a CPMM wager far beyond its pool;
#: :func:`test_examples_reach_every_branch` checks what they reach.
EXAMPLES = {
    # a fresh pool sits at its target: the first leg straddles it
    "straddle": ("uamm", [1, 1], 1_000, [], 1, 10.0),
    # a buy on 2 adds outcome-1 tokens above the target, and takes outcome 2
    # below it
    "surplus": ("uamm", [1, 1], 1_000, [("buy", 2, 300.0)], 1, 10.0),
    "deficit": ("uamm", [1, 1], 1_000, [("buy", 2, 300.0)], 2, 10.0),
    # an unfunded pool is empty: every leg pays nothing
    "zero": ("uamm", [1, 3, 6], 0, [], 2, 10.0),
    # a wager beyond 2**53 times the pool: the straddle output rounds above
    # the pool
    "unfillable": ("uamm", [1, 1], 1_000, [], 1, 1e20),
    "zero wager": ("cpmm", [2, 3, 5], 1_000, [("buy", 1, 40.0)], 3, 0.0),
    "cpmm huge wager": ("cpmm", [1, 1, 1, 1, 1], 50, [("add", 1, 10.0)], 4, 1e20),
}


@settings(max_examples=300, deadline=None)
@given(case=cases)
@example(case=EXAMPLES["straddle"])
@example(case=EXAMPLES["surplus"])
@example(case=EXAMPLES["deficit"])
@example(case=EXAMPLES["zero"])
@example(case=EXAMPLES["unfillable"])
@example(case=EXAMPLES["zero wager"])
@example(case=EXAMPLES["cpmm huge wager"])
# removing all of an LP's shares after trades and a second add: with shares
# computed in the Decimal context, ``held * 5 / 5`` rounded above ``held``
@example(case=("uamm", [1, 1], 50, [("buy", 1, 0.01), ("buy", 1, 0.01), ("add", 1, 0.01),
                                    ("remove", 5, 0.01)], 1, 0.0))
def test_kernel_quote_equals_reference_pipeline(case):
    engine, weights, funding, moves, outcome, wager = case
    market = build(engine, weights, funding, moves)
    before = market.snapshot()
    kernel, reference = both(market, (outcome - 1) % len(weights) + 1, wager)
    assert kernel == reference
    assert market.snapshot() == before


def test_examples_reach_every_branch():
    seen = {}
    for name, (engine, weights, funding, moves, outcome, wager) in EXAMPLES.items():
        branches = []
        market = build(engine, weights, funding, moves)
        kernel, reference = both(market, outcome, wager, branches)
        assert kernel == reference, name
        seen[name] = (branches, kernel)
    for name in ("straddle", "surplus", "deficit", "zero"):
        assert seen[name][0][0] == name
    assert seen["zero"][0] == ["zero", "zero"]
    assert seen["unfillable"] == (["straddle"], UnfillableQuote)
    assert seen["zero wager"][1][0].odd == 0.0


@pytest.mark.parametrize("pool", [
    # no target balance: the straddle reads x as 0.0
    PoolState(r=[0, 100, 40, 7]),
    # an empty outcome pool below the target pays nothing
    PoolState(r=[0, 0, 300, 90], tb=Decimal(50)),
    # a 1e20 wager on outcome 1: a deficit leg empties the pool, the next
    # leg pays nothing
    PoolState(r=[25, 0, 300, 90], tb=Decimal(60)),
], ids=["no-target", "empty-below-target", "deficit-then-empty"])
@pytest.mark.parametrize("wager", SPECIAL_WAGERS + (0.37, 30.0, 2_500.0))
def test_kernel_equals_reference_on_bare_pools(pool, wager):
    fair = FairPriceVector((0.2, 0.3, 0.5))
    for i in (1, 2, 3):
        for kernel, engine in ((calc_odds, "uamm"), (cpmm_odds, "cpmm")):
            view = pool if engine == "uamm" else Reserves(r=pool.r)
            assert outcome_of(kernel, view, fair, i, wager, 0.025) == \
                outcome_of(reference_quote, view, fair, i, wager, 0.025, engine)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("i,wager", [(0, 1.0), (4, 1.0), (1, -1e-300), (1, float("inf")),
                                     (1, float("nan")), (1, -0.0)])
def test_kernel_edges_equal_reference(engine, i, wager):
    kernel, reference = both(build(engine, [1, 2, 3], 1_000, []), i, wager)
    assert kernel == reference
