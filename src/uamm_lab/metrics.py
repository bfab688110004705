"""Liquidity-provider profit/loss metrics over simulated market trajectories.

All formulas run over the conditional pools only (k = 1..K); a supplementary
expected-value PnL that includes the collateral pool is reported alongside
for reconciliation, since stranded conditional balances and merged collateral
tell different stories about the same pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .fixedpoint import sum_exact


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
    once: EIP and EPP are the figures :func:`eip_values` and
    :func:`epp_values` give for it, ``tv_pnl`` is TV_end - TV_start (the
    collateral pool included) and ``ev_final`` is :func:`ev` of the final
    conditional pools."""
    deltas = pool_deltas(result)
    return (_eip(result.fair, deltas), _epp(result, deltas), _tv_pnl(result),
            ev(result.r_end[1:], result.fair))


def eip_values(results) -> list[float]:
    """Impermanent PnL per market: pool deltas valued at fair prices."""
    return [_eip(r.fair, pool_deltas(r)) for r in results]


def epp_values(results) -> list[float]:
    """Permanent PnL per market: the sampled winner's pool delta."""
    return [_epp(r, pool_deltas(r)) for r in results]


@dataclass
class MetricsReport:
    """Aggregate result bundle for one experiment.

    ``market_pnl`` keeps the :func:`market_pnl` tuple of every market, in
    result order, for per-market output; it is not part of :meth:`csv_row`
    and takes no part in comparisons.
    """

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
    market_pnl: tuple = field(default=(), compare=False, repr=False)

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
    pnl = tuple(map(market_pnl, results))
    eip_vals, epp_vals, tv_vals, ev_vals = zip(*pnl)
    eip_mean, eip_std = float(np.mean(eip_vals)), float(np.std(eip_vals))
    epp_mean, epp_std = float(np.mean(epp_vals)), float(np.std(epp_vals))
    volume = sum_exact((r.volume for r in results), Decimal(0))
    fee = sum_exact((r.fee for r in results), Decimal(0))
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
        market_pnl=pnl,
    )
