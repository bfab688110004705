"""Release acceptance suite.

Each test covers one numbered acceptance criterion, asserts it with a pinned
tolerance, and writes a single terminal-visible pass/fail line.  Statistical
criteria use fixed seeds; exact criteria use none.
"""

import math
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy.stats import spearmanr

from conftest import announce, recompute_from_records, run_seeded_markets
from uamm_lab import cli, sim
from uamm_lab.fixedpoint import ZERO, amount
from uamm_lab.ledger import InsufficientBalance, InvariantViolation, MarketSpec
from uamm_lab.probes import property_report
from uamm_lab.sim import SimConfig
from uamm_lab.uamm import (
    FairPriceVector,
    PoolState,
    UammMarket,
    UnfillableQuote,
    calc_odds,
    swap_out,
)


def test_criterion_01_conservation_fuzz():
    """10^5 random mixed ledger/pool operations keep holdings+pool == locked
    exactly (and collateral, checked by ``Market.check_invariants``), across
    2- and 3-outcome markets, in under 30 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    n_ops = 100_000
    ops_done = 0
    market = None
    while ops_done < n_ops:
        if market is None or ops_done % 400 == 0:
            k = int(rng.integers(2, 4))
            v = rng.uniform(0.15, 0.85, k)
            market = UammMarket(
                MarketSpec(market_id=f"f{ops_done}", k=k),
                FairPriceVector(tuple(v / v.sum())),
            )
            market.deposit("lp", amount(float(rng.uniform(2_000, 30_000))))
            market.add_liquidity("lp", market.ledger.balance("lp"))
            market.deposit("bettor", amount(1_000_000))
        op = rng.integers(0, 5)
        try:
            if op == 0:
                market.ledger.mint("bettor", amount(float(rng.uniform(0, 50))))
            elif op == 1:
                market.ledger.merge("bettor", amount(float(rng.uniform(0, 50))))
            elif op == 2:
                market.deposit("lp", amount(20))
                market.add_liquidity("lp", amount(float(rng.uniform(1, 20))))
            elif op == 3:
                share = market.lp_shares.get("lp", ZERO) * Decimal("0.05")
                if share > 0:
                    market.remove_liquidity("lp", share)
            else:
                market.buy(
                    "bettor",
                    int(rng.integers(1, market.spec.k + 1)),
                    amount(float(rng.uniform(0.01, 400))),
                )
        except (InsufficientBalance, UnfillableQuote):
            pass
        ops_done += 1
        try:
            market.check_invariants()
        except InvariantViolation as broken:
            announce(1, "conservation fuzz", False, f"{broken} after op {ops_done}")
    elapsed = time.monotonic() - start
    announce(1, "conservation fuzz", elapsed < 30.0,
             f"{n_ops} ops exact, {elapsed:.1f}s")


def test_criterion_02_liquidity_properties():
    """Additivity and reversibility of add/remove hold to 1e-9 relative over
    1000 randomized pool states, in under 5 seconds."""
    start = time.monotonic()
    report = property_report()
    elapsed = time.monotonic() - start
    ok = report.max_error < 1e-9 and elapsed < 5.0
    announce(2, "liquidity add/remove properties", ok,
             f"max rel err {report.max_error:.2e}, {elapsed:.1f}s")


def test_criterion_03_swap_regimes():
    """Surplus branch returns the fair amount bitwise; deficit branch matches
    exact rational arithmetic to 1e-12 of pool scale and is path independent
    to 1e-9."""
    rng = np.random.default_rng(33)
    ok = True
    detail = ""
    for _ in range(2_000):
        f_in = float(rng.uniform(0.1, 0.9))
        f_out = float(rng.uniform(0.1, 0.9))
        d_in = float(rng.uniform(0.01, 100.0))
        r_out = float(rng.uniform(1_000.0, 100_000.0))
        rho = f_in / f_out
        # surplus regime: tb safely below r_out - delta
        tb = (r_out - rho * d_in) * 0.5
        if tb > 0 and swap_out(d_in, f_in, f_out, r_out, tb) != rho * d_in:
            ok, detail = False, "surplus branch not exact"
            break
        # deficit regime vs exact rational arithmetic
        tb = r_out * float(rng.uniform(1.05, 5.0))
        out = swap_out(d_in, f_in, f_out, r_out, tb)
        fr_delta = Fraction(f_in) / Fraction(f_out) * Fraction(d_in)
        fr_x = Fraction(tb) ** 2 / Fraction(r_out)
        exact = Fraction(r_out) - Fraction(tb) ** 2 / (fr_x + fr_delta)
        if abs(out - float(exact)) / max(1.0, r_out) > 1e-12:
            ok, detail = False, "deficit branch drifts from closed form"
            break
        if not out < float(fr_delta):
            ok, detail = False, "deficit branch not below fair amount"
            break
        # path independence inside the deficit regime
        a = d_in * float(rng.uniform(0.2, 0.8))
        b = d_in - a
        first = swap_out(a, f_in, f_out, r_out, tb)
        second = swap_out(b, f_in, f_out, r_out - first, tb)
        if abs((first + second) - out) / max(1.0, abs(out)) > 1e-9:
            ok, detail = False, "deficit branch path dependent"
            break
    announce(3, "swap regime correctness", ok, detail or "2000 random states")


def test_criterion_04_fair_odds_limit():
    """A three-way market at (0.25, 0.5, 0.25) with deep surplus pools quotes
    decimal odds (4.0, 2.0, 4.0) within 1e-4."""
    pool = PoolState(r=[ZERO, amount(1e7), amount(1e7), amount(1e7)],
                     ts=amount(1_000), tb=amount(1_000))
    fair = FairPriceVector((0.25, 0.5, 0.25))
    odds = [calc_odds(pool, fair, i, 10.0).decimal_odds for i in (1, 2, 3)]
    expected = (4.0, 2.0, 4.0)
    errs = [abs(o - e) for o, e in zip(odds, expected)]
    ok = max(errs) < 1e-4
    announce(4, "fair-odds limit", ok,
             "odds " + ", ".join(f"{o:.6f}" for o in odds))


def test_criterion_05_single_market_reproduction():
    """20-seed single-market runs (uniform bet sides): 50/50 pools end within
    +-30% of funding, mean rejection rate in [8%, 25%], and 80/20 rejects more
    than 50/50 on at least 16 of 20 paired seeds.  Under 1 minute."""
    start = time.monotonic()
    rates, rates_skewed, balance_ratios = [], [], []
    higher = 0
    for seed in range(20):
        cfg = SimConfig(seed=seed, side_mode="uniform")
        r = sim.run_single_market(cfg)
        rates.append((r.n_rejected + r.n_unfillable) / r.n_attempts)
        final = r.trajectory[-1]["balances"]
        balance_ratios.extend(b / cfg.funding for b in final)
        r2 = sim.run_single_market(replace(cfg, probs=(0.8, 0.2)))
        rate2 = (r2.n_rejected + r2.n_unfillable) / r2.n_attempts
        rates_skewed.append(rate2)
        higher += rate2 > rates[-1]
    elapsed = time.monotonic() - start
    mean_rate = float(np.mean(rates))
    ok = (
        0.08 <= mean_rate <= 0.25
        and all(0.7 <= b <= 1.3 for b in balance_ratios)
        and higher >= 16
        and elapsed < 60.0
    )
    announce(5, "single-market reproduction", ok,
             f"rejection {mean_rate:.3f}, balances "
             f"[{min(balance_ratios):.2f}, {max(balance_ratios):.2f}]x, "
             f"skewed higher on {higher}/20, {elapsed:.1f}s")


def test_criterion_06_multi_market_reproduction():
    """100 markets x 100 bets at 50/50: |mean EV| below 0.1% of funding, and
    mean impermanent PnL positive and monotone in bet count across
    {10, 50, 100, 500} (Spearman rho > 0.9 over 10-seed means)."""
    cfg = SimConfig(n_markets=100, n_bets=100, seed=0)
    _, report = sim.run_multi_market(cfg)
    ev_ok = abs(report.ev_mean) < 0.001 * cfg.funding

    bet_counts = (10, 50, 100, 500)
    means = []
    for n in bet_counts:
        per_seed = []
        for seed in range(10):
            _, rep = sim.run_multi_market(replace(cfg, n_bets=n, seed=seed))
            per_seed.append(rep.eip_mean)
        means.append(float(np.mean(per_seed)))
    rho = float(spearmanr(bet_counts, means).statistic)
    ok = ev_ok and all(m > 0 for m in means) and rho > 0.9
    announce(6, "multi-market reproduction", ok,
             f"|EV| {abs(report.ev_mean):.2e}, EIP means "
             + ", ".join(f"{m:.0f}" for m in means) + f", spearman {rho:.2f}")


def test_criterion_07_probability_sweep():
    """Across true probabilities 0.2..0.8 and both bet-side modes the mean
    permanent PnL is non-negative at every grid point, and the true-prob curve
    is flat: its funding-normalized spread stays below half the spread band
    the sweep report declares."""
    cfg = SimConfig(n_markets=100, n_bets=100, seed=0)
    sweep = sim.run_prob_sweep(cfg)
    nonneg = all(row["epp_mean"] >= 0 for row in sweep.rows)
    band = sweep.bands["true-prob"]
    flat = band["epp_spread_observed"] < 0.5 * band["epp_spread_band"]
    announce(7, "probability sweep", nonneg and flat,
             f"min EPP {min(r['epp_mean'] for r in sweep.rows):.1f}, "
             f"spread {band['epp_spread_observed']:.4f} vs "
             f"band {band['epp_spread_band']:.4f}")


def test_criterion_08_full_simulation_summary():
    """100-trial uncontrolled run: permanent PnL positive, fee revenue exactly
    2.5% of volume, PnL-plus-fee between 0.05% and 0.5% of the funding at
    stake, and total bets within +-20% of 1203.  Under 2 minutes."""
    start = time.monotonic()
    cfg = sim.full_config(seed=0)
    _, report = sim.run_multi_market(cfg)
    elapsed = time.monotonic() - start
    fee_exact = report.fee_revenue == Decimal("0.025") * report.volume
    at_stake = report.n_markets * cfg.funding
    share = report.epp_plus_fee / at_stake
    bets_ok = abs(report.total_bets - 1203) <= 0.2 * 1203
    ok = (
        report.epp_mean > 0 and fee_exact and 0.0005 <= share <= 0.005
        and bets_ok and elapsed < 120.0
    )
    announce(8, "full simulation summary", ok,
             f"EPP {report.epp_mean:.1f}, fee exact {fee_exact}, "
             f"EPP+fee {100 * share:.3f}% of funding at stake, "
             f"{report.total_bets} bets, {elapsed:.1f}s")


def test_criterion_09_baseline_comparison():
    """Paired seeds with identical bettor streams: the fair-price engine beats
    the constant-product engine on mean permanent PnL over 100 markets in at
    least 8 of 10 seed batches."""
    wins = 0
    for seed in range(10):
        cfg = SimConfig(n_markets=100, n_bets=100, seed=seed)
        _, rep_u = sim.run_multi_market(cfg)
        _, rep_c = sim.run_multi_market(replace(cfg, engine="cpmm"))
        wins += rep_u.epp_mean > rep_c.epp_mean
    announce(9, "baseline comparison", wins >= 8, f"{wins}/10 seed batches")


def test_criterion_10_metrics_oracle_equivalence():
    """EV/EIP/EPP from the streaming implementation agree with a brute-force
    recomputation from raw bet records to 1e-9 relative on 100 trajectories."""
    cfg = sim.full_config(seed=5)
    results, report, bets = run_seeded_markets(cfg)
    assert report == sim.run_multi_market(cfg)[1]
    raw = recompute_from_records(results, bets)
    errs = {
        key: abs(raw[key] - got) / max(1.0, abs(got))
        for key, got in (
            ("eip_mean", report.eip_mean),
            ("epp_mean", report.epp_mean),
            ("ev_mean", report.ev_mean),
        )
    }
    ok = max(errs.values()) < 1e-9
    announce(10, "metrics oracle equivalence", ok,
             f"max rel err {max(errs.values()):.2e} over {len(results)} markets")


def test_criterion_11_determinism(tmp_path):
    """The same command with the same seed twice produces byte-identical
    output files."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\nprobs = 0.5,0.5\nn_bets = 100\nn_markets = 5\nseed = 3\n")
    ok = True
    detail = []
    for mode in ("single", "multi", "sweep"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}_{tag}"
            assert cli.main(["simulate", "--config", str(cfg), "--mode", mode,
                             "--out", str(out)]) == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        same = all(
            (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
            for n in files
        )
        ok = ok and same
        detail.append(f"{mode}:{len(files)} files")
    announce(11, "determinism", ok, ", ".join(detail) + " byte-identical")
