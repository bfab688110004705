import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import recompute_from_records, run_seeded_markets
from uamm_lab import metrics, sim
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
    assert report.fee_revenue == report.volume * type(report.volume)("0.025")


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
