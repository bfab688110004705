"""Constant-product comparison engine.

Prices come purely from pool reserves (the classic ``x * y = k`` rule), with
no fair-price reference -- exactly the behaviour the fair-price engine is
meant to improve on.  This module holds only that rule, on the market every
engine shares (:mod:`uamm_lab.market`): :class:`CpmmMarket` is a
:class:`~uamm_lab.market.Market` subclass with the shared ledger, bet
pipeline (mint, combine, swap each non-chosen leg, merge) and lifecycle, so
the conservation invariants are identical.  It supplies only its bound quote
kernel (:func:`bind_cpmm_odds`, whose one-wager case is the shared
:meth:`~uamm_lab.market.Market.quote`), which runs the float product rule of
the reference kernel :func:`cpmm_swap` inline, its buys' leg loop
(:meth:`CpmmMarket._legs`), which computes each leg as the exact product
rule in ints, rounded half-even to micro-units once, and its genesis.  Its
pool is a bare :class:`~uamm_lab.market.Reserves`: a product-rule pool keeps
no LP share or target-balance books.

Initial reserves are seeded proportional to ``1 / f_k`` so that the implied
prices at launch equal the true outcome probabilities; after that the pool
is on its own.
"""

from __future__ import annotations

from .fixedpoint import MAX_AMOUNT, UNIT, WADS_PER_MICRO, to_micro
from .market import Market, Reserves


def cpmm_swap(d_in: float, r_in: float, r_out: float) -> float:
    """Output amount under the product rule: r_out - r_in*r_out/(r_in + d_in).

    The reference kernel of the float rule: :func:`bind_cpmm_odds` runs it
    inline, and the tests hold the kernel to it bit for bit.  A buy's legs
    (:meth:`CpmmMarket._legs`) are the exact rule instead, in ints.  An
    input below the rounding of ``r_in`` leaves ``r_in + d_in == r_in``, and
    the formula then gives ``r_out`` less its own rounding, which can be a
    negative ulp; the output is held at 0.0 there, as the exact rule's
    output is never negative."""
    if d_in < 0:
        raise ValueError("swap input must be non-negative")
    if d_in == 0.0 or r_out <= 0.0:
        return 0.0
    out = r_out - (r_in * r_out) / (r_in + d_in)
    return out if out > 0.0 else 0.0


def bind_cpmm_odds(pool, fair, fee_rate=0):
    """The constant-product engine's quote kernel, bound as
    :func:`~uamm_lab.uamm.bind_odds` binds the fair-price one, with the same
    ``price(i, d)`` contract: it returns the ``(odd, implied_price,
    slippage, fee)`` floats of a quote, or ``None`` for a non-float ``d``,
    an unknown outcome or a ``d`` not in (0,
    :data:`~uamm_lab.fixedpoint.MAX_AMOUNT`).  Its one-wager case is
    ``quote_one(bind_cpmm_odds(pool, fair, fee_rate), fair, i, wager)``
    (:func:`~uamm_lab.market.quote_one`), as
    :meth:`~uamm_lab.market.Market.quote` calls it on a market's pool.

    Each leg is :func:`cpmm_swap`'s product rule written inline, the same
    float operations in the same order.  Each call reads ``pool.r_micro``
    afresh, each pool with the collateral liquidity combined into it, as
    ``r[j] / UNIT + r[0] / UNIT`` (the collateral's float taken once), and
    each input pool before the bettor's ``d`` is added to it.  The legs are
    the vector's leg plan, ``fair.others[i]``.

    The rule's zero branch needs no test here: every reserve is ``>= 0``,
    and the formula gives 0.0 for an empty output pool, as the branch does.
    Nor can a leg drain its pool: it pays ``r_out`` less a non-negative
    amount, so the kernel prices every float wager in its domain on a known
    outcome.  A leg whose formula rounds to zero or below (a wager below the
    rounding of the pools) pays nothing, as :func:`cpmm_swap` holds it at
    0.0, so the odd is never less than ``d`` and the implied price never
    divides by zero.
    """
    others, probs = fair.others, fair.probs
    n = len(others)

    def price(i, d):
        if type(d) is not float or not (0 < i < n and 0.0 < d < MAX_AMOUNT):
            return None
        r = pool.r_micro
        c = r[0] / UNIT
        ri = r[i] / UNIT + c
        odd = d
        for j in others[i]:
            rj = r[j] / UNIT + c
            s = ri - rj * ri / (rj + d)
            if s > 0.0:
                ri -= s
                odd += s
        implied = d / odd
        return odd, implied, implied - probs[i - 1], fee_rate * d

    return price


class CpmmMarket(Market):
    """Constant-product betting market over the conditional-token ledger:
    the product rule as float bound quote kernel (:func:`bind_cpmm_odds`)
    and as exact int buy leg loop (:meth:`_legs`), over a bare
    :class:`~uamm_lab.market.Reserves`."""

    engine = "cpmm"
    pool_type = Reserves
    # own attributes, so restoring a traced method by setattr changes nothing
    quote = Market.quote
    buy = Market.buy
    _bind = staticmethod(bind_cpmm_odds)

    @staticmethod
    def _legs(pool, fair, i: int, n: int) -> int:
        """:meth:`~uamm_lab.market.Market.buy`'s swap legs under the product
        rule, as :meth:`~uamm_lab.uamm.UammMarket._legs` runs the fair-price
        rule: the odd, in micro-units, that a wager of ``n`` micro-units on
        ``i`` pays.

        Each leg is the exact product rule in ints, rounded half-even to
        micro-units once, with one ``divmod`` as a buy's fee is rounded:
        ``ri * n / (r[j] + r[0] + n)`` for the output pool ``ri`` (first
        ``r[i] + r[0]``, then less each leg paid) and the input pool
        ``r[j] + r[0]`` read before the bettor's ``n`` is added to it.  No
        leg can drain its pool, so the loop raises nothing: ``n`` is at most
        the denominator, so the exact leg is at most ``ri``, and all of it
        only from an empty input pool, with no remainder to round up."""
        r = pool.r_micro
        c = r[0]
        ri = r[i] + c
        odd = n
        for j in fair.others[i]:
            den = r[j] + c + n
            q, rest = divmod(ri * n, den)
            if 2 * rest > den or (2 * rest == den and q & 1):
                q += 1
            ri -= q
            odd += q
        return odd

    def _fund(self, account: str, n: int) -> int:
        """Seed reserves from ``n`` micro-units of collateral at
        true-probability prices, and return the LP shares, one per unit of
        funding, in wads.

        The LP mints a full set and hands the pool ``funding * f_min / f_k``
        of each token; the excess tokens of likelier outcomes stay with the
        LP (they cannot be merged without the scarcer legs).  ``funding`` is
        the float ``n / UNIT``, correctly rounded, as the float of the
        funding's 6-place Decimal is.
        """
        f = self.fair.probs
        fmin = min(f)
        ledger, r = self.ledger, self.pool.r_micro
        ledger.mint_micro(account, n)
        x = n / UNIT
        for k in self.spec.outcomes:
            reserve = to_micro(x * fmin / f[k - 1])
            ledger.debit_micro(account, k, reserve)
            r[k] += reserve
        return n * WADS_PER_MICRO
