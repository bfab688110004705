"""Constant-product comparison engine.

Prices come purely from pool reserves (the classic ``x * y = k`` rule), with
no fair-price reference -- exactly the behaviour the fair-price engine is
meant to improve on.  :class:`CpmmMarket` is an engine subclass of
:class:`~uamm_lab.uamm.Market`: it shares the fair-price engine's ledger, bet
pipeline (mint, combine, swap each non-chosen leg, merge) and lifecycle, and
supplies only its pool type, its quote kernel (:func:`cpmm_odds`, the
product rule written inline in the leg loop), the product rule as its buys'
swap leg (:func:`cpmm_swap`), and its genesis, so the conservation
invariants are identical.

Initial reserves are seeded proportional to ``1 / f_k`` so that the implied
prices at launch equal the true outcome probabilities; after that the pool
is on its own.
"""

from __future__ import annotations

from decimal import Decimal

from .fixedpoint import UNIT, to_micro, to_wad
from .uamm import _INF, Market, Quote, Reserves, _quote_edge, _record


def cpmm_swap(d_in: float, r_in: float, r_out: float) -> float:
    """Output amount under the product rule: r_out - r_in*r_out/(r_in + d_in)."""
    if d_in < 0:
        raise ValueError("swap input must be non-negative")
    if d_in == 0.0 or r_out <= 0.0:
        return 0.0
    return r_out - (r_in * r_out) / (r_in + d_in)


def cpmm_odds(pool, fair, i: int, wager, fee_rate=0) -> Quote:
    """The constant-product engine's quote kernel: :func:`~uamm_lab.uamm.calc_odds`
    with :func:`cpmm_swap`'s product rule written inline as each leg, the
    same float operations in the same order, and the same signature and
    record (which carries no engine name or market id).  Each pool is read
    from the int reserves with the collateral liquidity combined into it,
    as ``r[j] / UNIT + r[0] / UNIT`` (the collateral's float taken once),
    and each input pool before the bettor's ``d`` is added to it.  The legs
    are the vector's leg plan, ``fair.others[i]``.

    The rule's zero branch needs no test here: every reserve is ``>= 0``, and
    the formula gives 0.0 for an empty output pool, as the branch does.  Nor
    can a leg drain its pool: it pays ``r_out`` less a non-negative amount.
    """
    r = pool.r_micro
    d = float(wager)
    if not (0 < i < len(r) and 0.0 < d < _INF):
        return _quote_edge(r, fair, i, d)
    c = r[0] / UNIT
    ri = r[i] / UNIT + c
    odd = d
    for j in fair.others[i]:
        rj = r[j] / UNIT + c
        s = ri - rj * ri / (rj + d)
        ri -= s
        odd += s
    implied = d / odd
    return _record(Quote, (
        i, d, odd, implied, implied - fair.probs[i - 1], float(fee_rate) * d,
    ))


class CpmmPool(Reserves):
    """Reserve balances in micro-units; ``r_micro[0]`` holds merged
    collateral between bets.

    Quoting reads the int reserves directly (see
    :class:`~uamm_lab.uamm.Reserves`).  A product-rule pool has no target
    balance; its ``tb_float`` reads 0.0.
    """


class CpmmMarket(Market):
    """Constant-product betting market over the conditional-token ledger."""

    engine = "cpmm"
    pool_type = CpmmPool
    # own attributes, so restoring a traced method by setattr changes nothing
    quote = Market.quote
    buy = Market.buy
    _odds = staticmethod(cpmm_odds)

    @staticmethod
    def _leg(d: float, f_in: float, f_out: float, r_in: float, r_out: float,
             tb: float) -> float:
        """:meth:`~uamm_lab.uamm.Market.buy`'s one swap leg under the product
        rule, in the shape ``buy`` calls every engine's leg; a quote runs the
        rule inline in :func:`cpmm_odds`.  The rule reads ``r_in`` before the
        bettor's ``d`` is added."""
        return cpmm_swap(d, r_in, r_out)

    def _fund(self, account: str, funding: Decimal) -> int:
        """Seed reserves from ``funding`` collateral at true-probability
        prices, and return the LP shares, one per unit of funding, in wads.

        The LP mints a full set and hands the pool ``funding * f_min / f_k``
        of each token; the excess tokens of likelier outcomes stay with the
        LP (they cannot be merged without the scarcer legs).
        """
        f = self.fair.probs
        fmin = min(f)
        ledger, r = self.ledger, self.pool.r_micro
        ledger.mint(account, funding)
        x = float(funding)
        for k in self.spec.outcomes:
            reserve = to_micro(x * fmin / f[k - 1])
            ledger.debit_micro(account, k, reserve)
            r[k] += reserve
        return to_wad(funding)
