"""Liquidity-provider profit/loss metrics over simulated market trajectories.

All formulas run over the conditional pools only (k = 1..K); a supplementary
expected-value PnL that includes the collateral pool is reported alongside
for reconciliation, since stranded conditional balances and merged collateral
tell different stories about the same pool.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from decimal import Decimal

import numpy as np

from .fixedpoint import add_exact


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


def _tv_pnl(r) -> float:
    tv0 = r.r_start[0] + math.fsum(f * x for f, x in zip(r.fair, r.r_start[1:]))
    tv1 = r.r_end[0] + math.fsum(f * x for f, x in zip(r.fair, r.r_end[1:]))
    return tv1 - tv0


def market_pnl(result) -> tuple[float, float, float, float]:
    """``(eip, epp, tv_pnl, ev_final)`` of one market, its pool deltas taken
    once: EIP (impermanent PnL) is the pool deltas valued at the fair
    prices, EPP (permanent PnL) the sampled winner's pool delta, ``tv_pnl``
    TV_end - TV_start (the collateral pool included) and ``ev_final``
    :func:`ev` of the final conditional pools."""
    if result.winner is None:
        raise ValueError(f"market {result.market_id} has no sampled winner")
    deltas = pool_deltas(result)
    return (math.fsum(f * d for f, d in zip(result.fair, deltas)),
            deltas[result.winner - 1], _tv_pnl(result),
            ev(result.r_end[1:], result.fair))


@dataclass
class MetricsReport:
    """Aggregate result bundle for one experiment.

    Its fields are the columns of ``summary.csv``, in order (see
    :meth:`csv_row`); ``rejection_rate``, ``tp`` (total permanent PnL) and
    ``epp_plus_fee`` (permanent PnL per market plus total fee revenue) are
    derived from the others.
    """

    engine: str
    n_markets: int
    total_bets: int
    accepted: int
    rejected: int
    unfillable: int
    rejection_rate: float = field(init=False)
    volume: Decimal
    fee_revenue: Decimal
    ev_mean: float
    eip_mean: float
    eip_std: float
    epp_mean: float
    epp_std: float
    tp: float = field(init=False)
    tv_pnl_mean: float
    epp_plus_fee: float = field(init=False)
    vigorish: float

    def __post_init__(self):
        self.rejection_rate = ((self.rejected + self.unfillable) / self.total_bets
                               if self.total_bets else 0.0)
        self.tp = self.n_markets * self.epp_mean
        self.epp_plus_fee = self.epp_mean + float(self.fee_revenue)

    def csv_row(self) -> dict:
        """The ``summary.csv`` columns: floats as their ``repr``, Decimals in
        fixed-point notation (``format(v, "f")``, which reads as ``str`` for
        every non-zero total, and a zero total at a fee rate of ``0.0`` as
        ``0.0000000``, not ``0E-7``), the engine and the counts as they
        are."""
        return {f.name: repr(v) if isinstance(v, float) else
                format(v, "f") if isinstance(v, Decimal) else v
                for f in fields(self) for v in [getattr(self, f.name)]}


class MetricsFold:
    """A running :func:`summarize`, fed one market at a time.

    :meth:`add` folds in a market and returns its :func:`market_pnl`
    tuple; :meth:`report` gives the :class:`MetricsReport` of the markets
    added so far.  The fold keeps the counts and exact sums, plus the five
    floats per market whose ``np.mean`` / ``np.std`` the report takes, so a
    run need not keep its market results.
    """

    def __init__(self, engine: str):
        self.engine = engine
        # bets attempted, accepted, rejected and unfillable, in report order
        self.bets = [0, 0, 0, 0]
        self.volume = self.fee = Decimal(0)
        # eip, epp, tv_pnl, ev_final and overround_final, in market order
        self.floats = tuple(array("d") for _ in range(5))

    def add(self, r) -> tuple[float, float, float, float]:
        pnl = market_pnl(r)
        for values, x in zip(self.floats, (*pnl, r.overround_final)):
            values.append(x)
        for i, n in enumerate((r.n_attempts, r.n_accepted, r.n_rejected, r.n_unfillable)):
            self.bets[i] += n
        self.volume = add_exact(self.volume, r.volume)
        self.fee = add_exact(self.fee, r.fee)
        return pnl

    def report(self) -> MetricsReport:
        eip, epp, tv_pnl, ev_final, overround = self.floats
        if not eip:
            raise ValueError("no market results to summarize")
        return MetricsReport(
            self.engine, len(eip), *self.bets, self.volume, self.fee,
            ev_mean=float(np.mean(ev_final)),
            eip_mean=float(np.mean(eip)), eip_std=float(np.std(eip)),
            epp_mean=float(np.mean(epp)), epp_std=float(np.std(epp)),
            tv_pnl_mean=float(np.mean(tv_pnl)), vigorish=float(np.mean(overround)),
        )


def summarize(results, engine: str) -> MetricsReport:
    """Fold per-market results into a :class:`MetricsReport` in one pass.

    ``results`` may be any iterable, a generator such as
    :func:`uamm_lab.sim.iter_markets` included: each result is folded in
    (see :class:`MetricsFold`) and can be dropped before the next arrives,
    so memory does not hold the run's results.  The report equals the one
    a list of the same results gives, bit for bit.
    """
    fold = MetricsFold(engine)
    for r in results:
        fold.add(r)
    return fold.report()
