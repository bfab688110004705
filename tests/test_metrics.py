import math
from dataclasses import fields
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import recompute_from_records, run_seeded_markets
from uamm_lab import cli, metrics, sim
from uamm_lab.fixedpoint import PRECISION, UNIT
from uamm_lab.ledger import fee_rate_decimal
from uamm_lab.metrics import ev, summarize
from uamm_lab.sim import SimConfig


def result_stub(r_start, r_end, fair, winner):
    cfg = SimConfig(k=len(fair), probs=tuple(fair), n_bets=0, n_markets=1)
    res = sim.simulate_one(cfg, 0)
    res.r_start = tuple(r_start)
    res.r_end = tuple(r_end)
    res.fair = tuple(fair)
    res.winner = winner
    return res


# -- expected value ----------------------------------------------------------------


def test_ev_symmetric_pools_is_zero():
    assert ev((120.0, 120.0), (0.5, 0.5)) == 0.0


def test_ev_one_sided_pool_cancels_at_even_odds():
    assert ev((100.0, 0.0), (0.5, 0.5)) == 0.0


def test_ev_two_outcome_markets_always_net_to_zero():
    # the long legs and the short legs cancel exactly when K = 2
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = rng.uniform(0, 1e4, 2)
        p = float(rng.uniform(0.1, 0.9))
        assert abs(ev(tuple(r), (p, 1 - p))) < 1e-9


def test_ev_three_outcome_markets_equal_negative_total():
    # verbatim formula: sum f_k R_k - (1 - f_k)(Z - R_k) telescopes to (2-K) Z
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = rng.uniform(0, 1e4, 3)
        v = rng.uniform(0.1, 0.9, 3)
        f = tuple(v / v.sum())
        assert ev(tuple(r), f) == pytest.approx(-float(r.sum()), rel=1e-9)


# -- impermanent / permanent PnL ------------------------------------------------------


def test_eip_zero_without_trades():
    res = result_stub((10_000.0, 0.0, 0.0), (10_000.0, 0.0, 0.0), (0.5, 0.5), 1)
    assert metrics.market_pnl(res)[0] == 0.0


def test_eip_balanced_deltas_cancel():
    res = result_stub(
        (10_000.0, 0.0, 0.0), (10_000.0, 10.0, -10.0), (0.5, 0.5), 1
    )
    assert metrics.market_pnl(res)[0] == pytest.approx(0.0)


def test_epp_picks_the_winning_pool_delta():
    res = result_stub((10_000.0, 0.0, 0.0), (10_000.0, 5.0, -3.0), (0.5, 0.5), 1)
    assert metrics.market_pnl(res)[1] == pytest.approx(5.0)
    res.winner = 2
    assert metrics.market_pnl(res)[1] == pytest.approx(-3.0)


def test_epp_requires_winner():
    res = result_stub((10_000.0, 0.0, 0.0), (10_000.0, 5.0, 0.0), (0.5, 0.5), 1)
    res.winner = None
    with pytest.raises(ValueError):
        metrics.market_pnl(res)


def test_tp_is_market_count_times_epp():
    results, report = sim.run_multi_market(SimConfig(n_markets=7, n_bets=20))
    assert report.tp == report.n_markets * report.epp_mean


@pytest.mark.parametrize("name", ["rejection_rate", "tp", "epp_plus_fee"])
def test_derived_report_figures_are_not_settable(name):
    _, report = sim.run_multi_market(SimConfig(n_markets=2, n_bets=20))
    values = {f.name: getattr(report, f.name) for f in fields(report) if f.init}
    assert metrics.MetricsReport(**values) == report
    with pytest.raises(TypeError):
        metrics.MetricsReport(**values, **{name: 0.0})


def test_epp_plus_fee_identity():
    results, report = sim.run_multi_market(SimConfig(n_markets=5, n_bets=50))
    assert report.epp_plus_fee == report.epp_mean + float(report.fee_revenue)
    assert report.epp_plus_fee == report.epp_mean + sum(r.fee_micro for r in results) / UNIT
    assert report.fee_revenue == str(Decimal(report.volume) * Decimal("0.025"))


# -- the run's totals: int books, written by one formatter -------------------------
#
# The reference below is the rule the run layer followed when it carried the
# totals as Decimals: each market's volume and fee as exact 6-place Decimals,
# the fee replaced by the exact product ``fee_rate * volume`` when it equals
# it, the run's totals their exact sums from ``Decimal(0)``, each written by
# ``format(v, "f")``, and ``epp_plus_fee`` reading the fee total as a float.

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def decimal_totals(fee_rate: Decimal, books):
    """``(market texts, volume text, fee text, fee float)`` by the Decimal
    rule, for ``books``, one ``(volume, fee)`` pair of micro-units per
    market: a fee is written to the places of ``fee_rate * volume`` when it
    equals that product, and never to fewer than 6."""
    texts, volume_sum, fee_sum = [], Decimal(0), Decimal(0)
    for volume_micro, fee_micro in books:
        volume = _EXACT.multiply(PRECISION, volume_micro)
        fee = _EXACT.multiply(PRECISION, fee_micro)
        exact = _EXACT.multiply(fee_rate, volume)
        if volume and fee == exact and exact.as_tuple().exponent < -6:
            fee = exact
        texts.append((format(volume, "f"), format(fee, "f")))
        volume_sum = _EXACT.add(volume_sum, volume)
        fee_sum = _EXACT.add(fee_sum, fee)
    return texts, format(volume_sum, "f"), format(fee_sum, "f"), float(fee_sum)


def decimal_rates(exponent):
    """Fee rates in [0, 1) at ``exponent``: any coefficient below it, and
    only 0 at an exponent of 0 or more."""
    top = 10 ** -exponent - 1 if exponent < 0 else 0
    return st.integers(0, top).map(lambda c: Decimal(f"{c}E{exponent}"))


fee_rates = (st.floats(0.0, 1.0, exclude_max=True)
             | st.integers(-17, 3).flatmap(decimal_rates))


@st.composite
def fee_books(draw, num, den):
    """One market's ``(volume, fee)`` in micro-units: an exact fee,
    ``fee_rate * volume`` on a volume that makes it whole, or the fee rounded
    half-even to the grid, as a buy rounds it; a zero volume included."""
    if draw(st.booleans()):
        volume = draw(st.integers(0, 10 ** 6)) * (den // math.gcd(num, den))
        return volume, volume * num // den
    volume = draw(st.integers(0, 10 ** 15))
    return volume, round(Fraction(volume * num, den))


@st.composite
def fee_runs(draw):
    rate = draw(fee_rates)
    num, den = fee_rate_decimal(rate).as_integer_ratio()
    return rate, draw(st.lists(fee_books(num, den), min_size=1, max_size=5))


def run_books(rate, books):
    """One :func:`sim.run_market` result per ``(volume, fee)`` pair: a market
    at ``rate`` that takes one bet, whose buy is replaced by one that books
    that volume and fee."""
    results = []
    for i, (volume, fee) in enumerate(books):
        market = sim.build_market("uamm", f"m{i:05d}", 2, (0.5, 0.5), 1_000.0, rate)

        def buy(account, side, wager, fund, pool=market.pool, volume=volume, fee=fee):
            pool.fee_micro += fee
            return SimpleNamespace(wager_micro=volume)

        market.buy = buy
        results.append(sim.run_market(market, [(0.01, 1, 1.0)], 1))
    return results


@settings(max_examples=300, deadline=None)
@given(run=fee_runs())
@example(run=(0.0, [(12_340_000, 0), (0, 0)]))
@example(run=(0.02501, [(10_000_000, 250_100), (10_010_000, 250_350), (0, 0)]))
@example(run=(Decimal("0E+3"), [(5_000_000, 0), (0, 0)]))
@example(run=(Decimal("0E+3"), [(5_000_000, 0)]))
@example(run=(Decimal("0.02500000000000000"), [(1, 0), (40, 1)]))
def test_totals_are_written_as_the_decimal_rule_wrote_them(run):
    """``markets.csv``'s volume and fee, ``summary.csv``'s totals and
    ``epp_plus_fee`` read, from the int books, exactly as the Decimal rule
    read them."""
    rate, books = run
    texts, volume, fee, fee_float = decimal_totals(fee_rate_decimal(rate), books)
    results = run_books(rate, books)
    assert [(r.volume_micro, r.fee_micro) for r in results] == books
    assert [tuple(cli._market_text(r, ("0.0",) * 4).split(",")[9:11])
            for r in results] == texts
    report = summarize(results, "uamm")
    assert (report.volume, report.fee_revenue) == (volume, fee)
    assert report.csv_row()["fee_revenue"] == fee
    assert report.epp_plus_fee == report.epp_mean + fee_float


def test_eip_is_expected_epp_under_winner_resampling():
    results, report = sim.run_multi_market(SimConfig(n_markets=20, n_bets=100, seed=4))
    rng = np.random.default_rng(0)
    n_resamples = 10_000
    totals = np.zeros(n_resamples)
    for r in results:
        deltas = np.asarray(metrics.pool_deltas(r))
        winners = rng.choice(len(deltas), size=n_resamples, p=np.asarray(r.fair))
        totals += deltas[winners]
    resamples = totals / len(results)
    mean = float(np.mean(resamples))
    se = float(np.std(resamples)) / math.sqrt(n_resamples)
    assert abs(mean - report.eip_mean) < 3 * se + 1e-9


# -- cross-check oracle ----------------------------------------------------------------


def test_streaming_and_bruteforce_paths_agree():
    results, report, bets = run_seeded_markets(SimConfig(n_markets=10, n_bets=100, seed=8))
    raw = recompute_from_records(results, bets)
    for key, streamed in (
        ("eip_mean", report.eip_mean),
        ("epp_mean", report.epp_mean),
        ("ev_mean", report.ev_mean),
    ):
        err = abs(raw[key] - streamed) / max(1.0, abs(streamed))
        assert err < 1e-9


def test_summarize_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([], "uamm")
