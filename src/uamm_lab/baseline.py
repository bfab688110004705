"""Constant-product comparison engine.

Prices come purely from pool reserves (the classic ``x * y = k`` rule), with
no fair-price reference -- exactly the behaviour the fair-price engine is
meant to improve on.  This module holds only that rule, on the market every
engine shares (:mod:`uamm_lab.market`): :class:`CpmmMarket` is a
:class:`~uamm_lab.market.Market` subclass with the shared ledger, bet
pipeline (mint, combine, swap each non-chosen leg, merge) and lifecycle, so
the conservation invariants are identical.  It supplies only its bound quote
kernel (:func:`bind_cpmm_odds`, whose one-wager case is :func:`cpmm_odds`)
and its buys' leg loop (:meth:`CpmmMarket._legs`), both with the product
rule of the reference kernel :func:`cpmm_swap` written inline, and its
genesis.  Its pool is a bare
:class:`~uamm_lab.market.Reserves`: a product-rule pool keeps no LP share
or target-balance books.

Initial reserves are seeded proportional to ``1 / f_k`` so that the implied
prices at launch equal the true outcome probabilities; after that the pool
is on its own.
"""

from __future__ import annotations

from math import inf

from .fixedpoint import FAST_LIMIT, PRODUCT_ERROR, UNIT, WADS_PER_MICRO, to_micro
from .market import Market, Quote, Reserves, UnfillableQuote, quote_one


def cpmm_swap(d_in: float, r_in: float, r_out: float) -> float:
    """Output amount under the product rule: r_out - r_in*r_out/(r_in + d_in).

    The reference kernel of the rule: :func:`bind_cpmm_odds` and
    :meth:`CpmmMarket._legs` run it inline, and the tests hold them to it bit
    for bit.  An input below the rounding of ``r_in`` leaves ``r_in + d_in
    == r_in``, and the formula then gives ``r_out`` less its own rounding,
    which can be a negative ulp; the output is held at 0.0 there, as the
    exact rule's output is never negative."""
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
    an unknown outcome or a ``d`` not in (0, inf).  :func:`cpmm_odds` is its
    one-wager case.

    Each leg is :func:`cpmm_swap`'s product rule written inline, the same
    float operations in the same order.  Each call reads ``pool.r_micro``
    afresh, each pool with the collateral liquidity combined into it, as
    ``r[j] / UNIT + r[0] / UNIT`` (the collateral's float taken once), and
    each input pool before the bettor's ``d`` is added to it.  The legs are
    the vector's leg plan, ``fair.others[i]``.

    The rule's zero branch needs no test here: every reserve is ``>= 0``,
    and the formula gives 0.0 for an empty output pool, as the branch does.
    Nor can a leg drain its pool: it pays ``r_out`` less a non-negative
    amount, so the kernel prices every float wager in (0, inf) on a known
    outcome.  A leg whose formula rounds to zero or below (a wager below the
    rounding of the pools) pays nothing, as :func:`cpmm_swap` holds it at
    0.0, so the odd is never less than ``d`` and the implied price never
    divides by zero.
    """
    others, probs = fair.others, fair.probs
    n = len(others)

    def price(i, d):
        if type(d) is not float or not (0 < i < n and 0.0 < d < inf):
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


def cpmm_odds(pool, fair, i: int, wager, fee_rate=0) -> Quote:
    """The constant-product engine's one-wager quote: the bound kernel
    :func:`bind_cpmm_odds` called once through
    :func:`~uamm_lab.market.quote_one`, with :func:`~uamm_lab.uamm.calc_odds`'s
    signature, record (which carries no engine name or market id) and
    errors.  No wager raises :class:`~uamm_lab.market.UnfillableQuote`
    here."""
    return quote_one(bind_cpmm_odds, pool, fair, i, wager, fee_rate)


class CpmmMarket(Market):
    """Constant-product betting market over the conditional-token ledger:
    the product rule as bound quote kernel (:func:`bind_cpmm_odds`) and as
    buy leg loop (:meth:`_legs`), over a bare :class:`~uamm_lab.market.Reserves`."""

    engine = "cpmm"
    pool_type = Reserves
    # own attributes, so restoring a traced method by setattr changes nothing
    quote = Market.quote
    buy = Market.buy
    _bind = staticmethod(bind_cpmm_odds)
    _odds = staticmethod(cpmm_odds)

    @staticmethod
    def _legs(pool, fair, i: int, n: int) -> int:
        """:meth:`~uamm_lab.market.Market.buy`'s swap legs under the product
        rule, as :meth:`~uamm_lab.uamm.UammMarket._legs` runs the fair-price
        rule: :func:`cpmm_swap`'s formula inline on the int pools ``r[j] +
        r[0]`` and ``r[i] + r[0]`` (each input pool read before the bettor's
        ``n`` is added to it), every output rounded half-even to micro-units
        by ``to_micro``'s float fast path, inline."""
        r = pool.r_micro
        c = r[0]
        ri = r[i] + c
        d = n / UNIT
        odd = n
        for j in fair.others[i]:
            ro = ri / UNIT
            rj = (r[j] + c) / UNIT
            s = ro - (rj * ro) / (rj + d)
            # to_micro(s), its float fast path inline
            y = s * 1e6
            if 0.0 < y < FAST_LIMIT:
                m = round(y)
                if 0.5 - abs(y - m) <= y * PRODUCT_ERROR:
                    m = to_micro(s)
            else:
                m = to_micro(s)
            if not 0 <= m <= ri:
                raise UnfillableQuote
            ri -= m
            odd += m
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
