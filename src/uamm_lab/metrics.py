"""Liquidity-provider profit/loss metrics over simulated market trajectories.

All formulas run over the conditional pools only (k = 1..K); a supplementary
expected-value PnL that includes the collateral pool is reported alongside
for reconciliation, since stranded conditional balances and merged collateral
tell different stories about the same pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np


def ev(r_cond, fair) -> float:
    """Expected value of conditional pool balances under the fair prices.

    ``sum_k [ f_k * R_k - (1 - f_k) * (Z - R_k) ]`` with ``Z = sum_k R_k``:
    each pool's long leg priced at its probability minus the short side of
    the rest of the pool.
    """
    r = [float(x) for x in r_cond]
    f = list(fair)
    z = math.fsum(r)
    return math.fsum(
        fk * rk - (1.0 - fk) * (z - rk) for fk, rk in zip(f, r)
    )


def pool_deltas(result) -> list[float]:
    """Per-outcome pool balance change over a market's lifetime."""
    return [
        result.r_end[k] - result.r_start[k]
        for k in range(1, len(result.r_start))
    ]


def _eip(fair, deltas) -> float:
    return math.fsum(f * d for f, d in zip(fair, deltas))


def _epp(result, deltas) -> float:
    if result.winner is None:
        raise ValueError(f"market {result.market_id} has no sampled winner")
    return deltas[result.winner - 1]


def _tv_pnl(r) -> float:
    tv0 = r.r_start[0] + math.fsum(f * x for f, x in zip(r.fair, r.r_start[1:]))
    tv1 = r.r_end[0] + math.fsum(f * x for f, x in zip(r.fair, r.r_end[1:]))
    return tv1 - tv0


def market_pnl(result) -> tuple[float, float, float, float]:
    """``(eip, epp, tv_pnl, ev_final)`` of one market, its pool deltas taken
    once: each is the figure the matching ``*_values`` function (or
    :func:`ev` of the final conditional pools) gives for it."""
    deltas = pool_deltas(result)
    return (_eip(result.fair, deltas), _epp(result, deltas), _tv_pnl(result),
            ev(result.r_end[1:], result.fair))


def eip_values(results) -> list[float]:
    """Impermanent PnL per market: pool deltas valued at fair prices."""
    return [_eip(r.fair, pool_deltas(r)) for r in results]


def epp_values(results) -> list[float]:
    """Permanent PnL per market: the sampled winner's pool delta."""
    return [_epp(r, pool_deltas(r)) for r in results]


def eip(results) -> tuple[float, float]:
    vals = eip_values(results)
    return float(np.mean(vals)), float(np.std(vals))


def epp(results) -> tuple[float, float]:
    vals = epp_values(results)
    return float(np.mean(vals)), float(np.std(vals))


def tv_pnl_values(results) -> list[float]:
    """Expected-value PnL including the collateral pool: TV_end - TV_start."""
    return [_tv_pnl(r) for r in results]


@dataclass
class MetricsReport:
    """Aggregate result bundle for one experiment."""

    engine: str
    n_markets: int
    total_bets: int
    accepted: int
    rejected: int
    unfillable: int
    volume: Decimal
    fee_revenue: Decimal
    ev_mean: float
    eip_mean: float
    eip_std: float
    epp_mean: float
    epp_std: float
    tp: float
    tv_pnl_mean: float
    vigorish: float

    @property
    def rejection_rate(self) -> float:
        return (self.rejected + self.unfillable) / self.total_bets if self.total_bets else 0.0

    @property
    def epp_plus_fee(self) -> float:
        """Permanent PnL per market plus total fee revenue (fee on top)."""
        return self.epp_mean + float(self.fee_revenue)

    def csv_row(self) -> dict:
        return {
            "engine": self.engine,
            "n_markets": self.n_markets,
            "total_bets": self.total_bets,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "unfillable": self.unfillable,
            "rejection_rate": repr(self.rejection_rate),
            "volume": str(self.volume),
            "fee_revenue": str(self.fee_revenue),
            "ev_mean": repr(self.ev_mean),
            "eip_mean": repr(self.eip_mean),
            "eip_std": repr(self.eip_std),
            "epp_mean": repr(self.epp_mean),
            "epp_std": repr(self.epp_std),
            "tp": repr(self.tp),
            "tv_pnl_mean": repr(self.tv_pnl_mean),
            "epp_plus_fee": repr(self.epp_plus_fee),
            "vigorish": repr(self.vigorish),
        }


def summarize(results, engine: str) -> MetricsReport:
    """Fold per-market results into a :class:`MetricsReport`."""
    if not results:
        raise ValueError("no market results to summarize")
    eip_vals, epp_vals, tv_vals, ev_vals = zip(*map(market_pnl, results))
    eip_mean, eip_std = float(np.mean(eip_vals)), float(np.std(eip_vals))
    epp_mean, epp_std = float(np.mean(epp_vals)), float(np.std(epp_vals))
    volume = sum((r.volume for r in results), Decimal(0))
    fee = sum((r.fee for r in results), Decimal(0))
    return MetricsReport(
        engine=engine,
        n_markets=len(results),
        total_bets=sum(r.n_attempts for r in results),
        accepted=sum(r.n_accepted for r in results),
        rejected=sum(r.n_rejected for r in results),
        unfillable=sum(r.n_unfillable for r in results),
        volume=volume,
        fee_revenue=fee,
        ev_mean=float(np.mean(ev_vals)),
        eip_mean=eip_mean,
        eip_std=eip_std,
        epp_mean=epp_mean,
        epp_std=epp_std,
        tp=len(results) * epp_mean,
        tv_pnl_mean=float(np.mean(tv_vals)),
        vigorish=float(np.mean([r.overround_final for r in results])),
    )


def recompute_from_records(results) -> dict:
    """Independent brute-force recomputation of EV/EIP/EPP from raw bets.

    Re-derives each market's final pool state from its bet records (the last
    record's post-trade snapshot) instead of trusting the streaming pool
    state, and re-evaluates the formulas with plain Python loops.  Used as a
    cross-check oracle against :func:`summarize`.
    """
    eip_vals = []
    epp_vals = []
    ev_vals = []
    for r in results:
        r_end = r.records[-1].post_r if r.records else r.r_start
        k_count = len(r_end) - 1
        deltas = []
        for k in range(1, k_count + 1):
            deltas.append(r_end[k] - r.r_start[k])
        acc_eip = 0.0
        for f, d in zip(r.fair, deltas):
            acc_eip += f * d
        eip_vals.append(acc_eip)
        epp_vals.append(deltas[r.winner - 1])
        z = 0.0
        for k in range(1, k_count + 1):
            z += r_end[k]
        acc_ev = 0.0
        for f, rk in zip(r.fair, r_end[1:]):
            acc_ev += f * rk - (1.0 - f) * (z - rk)
        ev_vals.append(acc_ev)
    m = len(results)
    return {
        "eip_mean": sum(eip_vals) / m,
        "epp_mean": sum(epp_vals) / m,
        "ev_mean": sum(ev_vals) / m,
    }
