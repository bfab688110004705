"""Constant-product comparison engine.

Prices come purely from pool reserves (the classic ``x * y = k`` rule), with
no fair-price reference -- exactly the behaviour the fair-price engine is
meant to improve on.  :class:`CpmmMarket` is an engine subclass of
:class:`~uamm_lab.uamm.Market`: it shares the fair-price engine's ledger, bet
pipeline (mint, combine, swap each non-chosen leg, merge) and lifecycle, and
supplies only its pool type, the product rule as its swap leg, and its
genesis, so the conservation invariants are identical.

Initial reserves are seeded proportional to ``1 / f_k`` so that the implied
prices at launch equal the true outcome probabilities; after that the pool
is on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .fixedpoint import PRECISION, ZERO, to_micro
from .uamm import FloatView, Market


def cpmm_swap(d_in: float, r_in: float, r_out: float) -> float:
    """Output amount under the product rule: r_out - r_in*r_out/(r_in + d_in)."""
    if d_in < 0:
        raise ValueError("swap input must be non-negative")
    if d_in == 0.0 or r_out <= 0.0:
        return 0.0
    return r_out - (r_in * r_out) / (r_in + d_in)


@dataclass(init=False)
class CpmmPool(FloatView):
    """Reserve balances in micro-units; ``r_micro[0]`` holds merged
    collateral between bets.

    Quoting reads the reserves through :meth:`float_view`, which stays valid
    while ``r_micro`` compares equal to the copy taken with it (see
    :class:`~uamm_lab.uamm.FloatView`).  A product-rule pool has no target
    balance; its view reports 0.0.
    """

    r_micro: list
    fee_accrued: Decimal

    def __init__(self, r, fee_accrued=ZERO):
        self.r = r
        self.fee_accrued = fee_accrued


class CpmmMarket(Market):
    """Constant-product betting market over the conditional-token ledger."""

    engine = "cpmm"
    pool_type = CpmmPool
    # own attributes, so restoring a traced method by setattr changes nothing
    quote = Market.quote
    buy = Market.buy

    @staticmethod
    def _leg(d: float, f_in: float, f_out: float, r_in: float, r_out: float,
             tb: float) -> float:
        # the product rule reads r_in before the bettor's d is added
        return cpmm_swap(d, r_in, r_out)

    def _fund(self, account: str, funding: Decimal) -> Decimal:
        """Seed reserves from ``funding`` collateral at true-probability prices.

        The LP mints a full set and hands the pool ``funding * f_min / f_k``
        of each token; the excess tokens of likelier outcomes stay with the
        LP (they cannot be merged without the scarcer legs).
        """
        f = self.fair.probs
        fmin = min(f)
        self.ledger.mint(account, funding)
        for k in self.spec.outcomes:
            reserve = to_micro(float(funding) * fmin / f[k - 1])
            self.ledger.debit(account, k, PRECISION * reserve)
            self.pool.r_micro[k] += reserve
        return funding
