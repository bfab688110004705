"""A property over the simulator's own loop: :func:`uamm_lab.sim.run_market`
handed arbitrary draws.

For both engines and K = 2-6, a funded market runs arbitrary
``(wager, side, threshold)`` draws: whole-cent wagers, wagers off the
micro-unit grid down to ones that round to zero or tie, wagers up to four
times the pool, thresholds from -1 to 1 and every side.  Some buys are made
unfillable at execution (the leg loop raises :class:`UnfillableQuote` after
the quote cleared, as the fixed-point legs can at the pool edge), so both of
the loop's unfillable paths run.  After each run:

* the market's books balance (``check_invariants``);
* accepted + rejected + unfillable == attempts;
* the volume and the fee are the exact sums over ``market.bets``; the
  volume reads to 6 places, and so does the fee unless it equals
  ``fee_rate * volume`` exactly, when it reads as that product;
* a draw-by-draw replay on a twin market through the public ``quote`` and an
  unfunded ``buy``, funded with a cost computed here in exact arithmetic,
  decides every draw alike, gives equal records and log rows, and leaves an
  equal snapshot;
* ``summarize([result])`` equals one :class:`~uamm_lab.metrics.MetricsFold`
  step.
"""

from decimal import Decimal
from fractions import Fraction
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uamm_lab import sim
from uamm_lab.fixedpoint import ZERO, add_exact, mul_exact, to_micro
from uamm_lab.metrics import MetricsFold, market_pnl, summarize
from uamm_lab.uamm import UnfillableQuote

FUNDINGS = (50.0, 1_000.0, 100_000.0)
FEE_RATES = (0.0, 0.025, 0.0305, 0.5)


def unfillable_at(legs, calls):
    """``legs`` (an engine's ``_legs``), raising :class:`UnfillableQuote` on
    the leg-loop calls numbered in ``calls`` (0-based)."""
    count = [0]

    def wrapped(pool, fair, i, n):
        count[0] += 1
        if count[0] - 1 in calls:
            raise UnfillableQuote
        return legs(pool, fair, i, n)

    return wrapped


@st.composite
def cases(draw):
    engine = draw(st.sampled_from(sim.ENGINES))
    k = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    funding = draw(st.sampled_from(FUNDINGS))
    wager = st.one_of(
        st.integers(1, 10**7).map(lambda cents: cents / 100),
        # about a micro-unit: below half of one rounds to zero, and odd
        # counts tie the fee at a 0.5 rate
        st.sampled_from((1e-7, 5e-7, 1e-6, 1.5e-6, 3e-6, 2.5e-6)),
        st.floats(1e-9, 1e-3),
        st.floats(0.0, 4.0).map(lambda x: x * funding),
    )
    draws = draw(st.lists(
        st.tuples(wager, st.integers(1, k), st.floats(-1.0, 1.0)), max_size=25))
    return (engine, weights, funding, draw(st.sampled_from(FEE_RATES)), draws,
            draw(st.integers(1, k)), draw(st.sets(st.integers(0, 24), max_size=3)))


def build(engine, weights, funding, fee_rate, fail):
    total = sum(weights)
    market = sim.build_market(engine, "m", len(weights), [w / total for w in weights],
                              funding, fee_rate)
    market._legs = unfillable_at(market._legs, fail)
    return market


def replay(market, draws, fee_rate):
    """Each draw through ``market.quote`` and an unfunded ``market.buy``,
    the bettor funded with the rounded wager plus its fee, rounded half-even
    from the exact product: the reason each draw was not accepted ("" when
    it was) and its quote (``None`` when the quote was unfillable)."""
    rate = Fraction(str(fee_rate))
    out = []
    for w, side, threshold in draws:
        try:
            quote = market.quote(side, w)
        except UnfillableQuote:
            out.append(("unfillable", None))
            continue
        if quote.slippage > threshold:
            out.append(("threshold", quote))
            continue
        n = to_micro(w)
        market.ledger.deposit_micro(sim.BETTOR, n + round(n * rate))
        try:
            market.buy(sim.BETTOR, side, w)
        except UnfillableQuote:
            out.append(("unfillable", quote))
        else:
            out.append(("", quote))
    return out


@settings(max_examples=200, deadline=None)
@given(case=cases())
# a tied fee at a 0.5 rate, a wager that rounds to zero, an off-grid wager,
# one that drains the pool at its quote (after a bet on the other side left
# outcome 1 above its target), a rejected one and one unfillable at its buy
@example(case=("uamm", [1, 1], 1_000.0, 0.5,
               [(3e-6, 1, 1.0), (1e-7, 2, 1.0), (12.3456789, 1, 1.0), (300.0, 2, 1.0),
                (10_000.0, 1, 1.0), (500.0, 2, -1.0), (10.0, 2, 1.0)], 1, {3}))
@example(case=("cpmm", [1, 2, 3, 4, 5, 6], 50.0, 0.025,
               [(199.99, 6, 1.0), (0.01, 1, 0.0), (2.5e-6, 3, 1.0)], 6, {0}))
# a wager far below the pools' rounding, whose product-rule legs round to a
# negative ulp and back, once summing to an odd of zero
@example(case=("cpmm", [3, 3, 5, 3, 5], 50.0, 0.0,
               [(0.01, 1, 1.0), (4.9788671278191235e-161, 2, 0.0)], 1, set()))
def test_run_market_against_a_public_replay(case):
    engine, weights, funding, fee_rate, draws, winner, fail = case
    market = build(engine, weights, funding, fee_rate, fail)
    twin = build(engine, weights, funding, fee_rate, fail)
    res = sim.run_market(market, draws, winner, keep_log=True)
    market.check_invariants()
    assert res.n_accepted + res.n_rejected + res.n_unfillable == res.n_attempts == len(draws)

    bets = market.bets
    assert len(bets) == res.n_accepted
    volume = reduce(add_exact, (r.wager for r in bets), ZERO)
    fee = reduce(add_exact, (r.fee for r in bets), ZERO)
    # the fee's text: the exact product when the sum equals it (as it does
    # whenever every fee was exact), else the sum's 6 places
    product = mul_exact(Decimal(str(fee_rate)), volume)
    text = str(product if volume and fee == product else fee)
    assert (str(res.volume), res.fee, str(res.fee)) == (str(volume), fee, text)
    assert res.r_end == (bets[-1].post_r if bets else res.r_start)

    decided = replay(twin, draws, fee_rate)
    twin.close_betting()
    twin.resolve(sim.ORACLE, winner)
    assert repr(twin.bets) == repr(bets) and twin.bets == bets
    assert twin.snapshot() == market.snapshot()
    reasons = [reason for reason, _ in decided]
    assert (res.n_rejected, res.n_unfillable) == (
        reasons.count("threshold"), reasons.count("unfillable"))
    for idx, (row, (w, side, _), (reason, quote)) in enumerate(
            zip(res.bet_log, draws, decided, strict=True)):
        cells = (None,) * 4 if quote is None else quote[2:]
        assert row == (engine, "m", idx, side, w, *cells, 0 if reason else 1, reason)

    fold = MetricsFold(engine)
    assert fold.add(res) == market_pnl(res)
    report = summarize([res], engine)
    assert report.csv_row() == fold.report().csv_row()
    assert (str(report.volume), str(report.fee_revenue)) == (str(volume), text)
