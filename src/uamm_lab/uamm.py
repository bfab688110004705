"""Fair-price AMM engine for conditional-token betting markets.

Pricing references an externally supplied probability vector (the fair
prices) instead of pool reserves alone.  A bet of ``d`` collateral on
outcome ``i`` mints a uniform token set, keeps the ``i`` leg, and swaps every
other leg for more ``i`` tokens; the sum is the payout ("odd").  The swap
rate is fair (``rho = f_in / f_out``) while the output pool sits above the
LP target balance TB, and charges constant-product-style slippage once the
pool dips below TB.

This module holds only that rule; the market, its ledger and its records
are shared by every engine (:mod:`uamm_lab.market`).  The rule is written
once as the reference kernel :func:`swap_out`, and inline in the engine's
quote kernel (:func:`calc_odds`, in float) and in its buys' leg loop
(:meth:`UammMarket._legs`, each leg rounded to int micro-units), which the
tests hold to it bit for bit.

:class:`PoolState` is the engine's pool: the reserves of
:class:`~uamm_lab.market.Reserves` plus LP share and target-balance books,
ints of wads (10**-18 units, see :mod:`uamm_lab.fixedpoint`).
:class:`UammMarket` is the engine: it also removes liquidity and mints
treasury LP shares on every bet.
"""

from __future__ import annotations

import copy
from decimal import Decimal
from fractions import Fraction
from math import inf
from operator import mul

from .fixedpoint import (FAST_LIMIT, PRODUCT_ERROR, UNIT, WAD, exact_micro, from_micro,
                         from_wad, to_micro, to_wad)
from .ledger import COLLATERAL, InsufficientBalance
from .market import (FairPriceVector, Market, Quote, Reserves, UnfillableQuote, new_record,
                     quote_edge)

#: Wads per micro-unit of collateral.
_WADS_PER_MICRO = WAD // UNIT


def swap_out(d_in: float, f_in: float, f_out: float, r_out: float, tb: float) -> float:
    """Output-token amount received for ``d_in`` input tokens.

    Piecewise in the output pool balance ``r_out`` relative to the target
    balance ``tb`` (branches evaluated strictly in this order):

    1. straddling the target: partial slippage,
    2. pool above target: the fair amount ``rho * d_in`` exactly,
    3. pool below target: constant-product slippage with invariant
       ``x * r_out = tb**2``.

    The reference kernel of the rule: :func:`calc_odds` and
    :meth:`UammMarket._legs` run it inline, and the tests hold them to it
    bit for bit.
    """
    if d_in < 0:
        raise ValueError("swap input must be non-negative")
    if d_in == 0.0 or r_out <= 0.0:
        return 0.0
    rho = f_in / f_out
    delta = rho * d_in
    x = 0.0 if tb <= 0.0 else tb * tb / r_out
    if r_out - delta <= tb <= r_out:
        alpha = r_out / (x + delta)
        return alpha * delta + (rho - alpha) * (r_out - tb)
    if tb <= r_out:
        return delta
    return r_out - tb * tb / (x + delta)


class PoolState(Reserves):
    """Mutable AMM pool: collateral + K conditional balances, LP bookkeeping.

    ``r_micro[0]`` is the collateral pool, ``r_micro[k]`` the pool of outcome
    token ``k``, both in micro-units (see
    :class:`~uamm_lab.market.Reserves`).  ``ts`` is the total LP-share
    supply, ``treasury_shares`` the part of it that bets minted (none at
    construction, and read only), and ``tb`` the net LP investment valued at
    fair prices (the target balance).

    Shares and TB are ints of wads (10**-18 units, see
    :mod:`uamm_lab.fixedpoint`), stored as ``ts_wad``, ``treasury_wad`` and
    ``tb_wad`` and read as exact 18-place Decimals.  Shares are minted with
    floor division, as Uniswap v2 mints LP tokens, so no share arithmetic
    depends on a Decimal context.  ``tb_float``, the float of ``tb`` that a
    quote reads, is written with ``tb_wad`` by every write of the target
    balance (assigning ``tb``, :meth:`add` and :meth:`remove`); never assign
    ``tb_wad`` alone.
    """

    books = ("fee_accrued", "tb", "treasury_shares", "ts")
    #: The share supply; assigning it writes ``ts_wad`` (an amount off the
    #: wad grid is floored).
    ts = property(lambda self: from_wad(self.ts_wad),
                  lambda self, value: setattr(self, "ts_wad", to_wad(value)))
    #: The shares bets minted, read only: only :meth:`UammMarket._mint_treasury`
    #: writes ``treasury_wad``.
    treasury_shares = property(lambda self: from_wad(self.treasury_wad))
    #: The target balance; assigning it writes ``tb_wad`` and ``tb_float``.
    tb = property(lambda self: from_wad(self.tb_wad),
                  lambda self, value: self._set_tb(to_wad(value)))

    def __init__(self, r, ts=0, tb=0):
        super().__init__(r)
        self.ts = ts
        self.tb = tb
        self.treasury_wad = 0

    def _set_tb(self, n: int) -> None:
        self.tb_wad = n
        self.tb_float = n / WAD

    def copy(self) -> "PoolState":
        pool = copy.copy(self)
        pool.r_micro = list(self.r_micro)
        return pool

    def value(self, fair: FairPriceVector):
        """The pool's value ``r0 + sum f_k * r_k`` in micro-units, times the
        power of two ``fair.weights[0]``: an exact int (a Fraction for
        off-grid collateral)."""
        return sum(map(mul, fair.weights, self.r_micro))

    def shares_for(self, n, fair: FairPriceVector) -> int:
        """The LP shares ``n`` micro-units of collateral are worth at the
        pool's share price, floored to the wad: ``n * ts / value``, exact in
        ints, with the value's power-of-two scale (see :meth:`value`)
        multiplied back in.  The one share rule of a deposit (:meth:`add`)
        and of a bet's treasury mint (:meth:`UammMarket._mint_treasury`)."""
        return n * self.ts_wad * fair.weights[0] // self.value(fair)

    def add(self, d, fair: FairPriceVector) -> Decimal:
        """Deposit ``d`` collateral; mint shares at the pre-add share price,
        floored to the wad, and return them.

        At genesis (ts == 0) shares bootstrap 1:1 with the deposit.
        """
        if d <= 0:
            raise ValueError("liquidity deposit must be positive")
        n = exact_micro(d)
        # the deposit in wads: exact on the grid, floored off it
        return from_wad(self.add_micro(n, n * _WADS_PER_MICRO if type(n) is int else to_wad(d),
                                       fair))

    def add_micro(self, n, w: int, fair: FairPriceVector) -> int:
        """:meth:`add` of ``n`` micro-units, ``w`` wads, returning the shares
        minted in int wads."""
        ts = self.ts_wad
        s = w if ts == 0 else self.shares_for(n, fair)
        self.r_micro[0] += n
        self._set_tb(self.tb_wad + w)
        self.ts_wad = ts + s
        return s

    def remove(self, s_lp, quantize=False):
        """Burn ``s_lp`` shares (floored to the wad) for a pro-rata slice of
        the *collateral* pool.

        Conditional-token balances are locked until resolution, so only
        ``r0 * s_lp / ts`` pays out.  TB scales down by the same share
        fraction, floored to the wad.  ``quantize`` rounds the payout
        half-even to the micro-unit when it is leaving toward a real
        account; without it the payout is exact (a Fraction off the grid,
        see :attr:`r`), and so is the collateral left in the pool.
        """
        s = to_wad(s_lp)
        ts = self.ts_wad
        if s <= 0:
            raise ValueError("share amount must be positive")
        if s > ts:
            raise InsufficientBalance(f"pool supply {self.ts} < {from_wad(s)}")
        paid = Fraction(self.r_micro[0] * s, ts)
        if quantize:
            paid = round(paid)  # half-even
        elif paid.denominator == 1:
            paid = paid.numerator
        self._set_tb(self.tb_wad * (ts - s) // ts)
        self.r_micro[0] -= paid
        self.ts_wad = ts - s
        return from_micro(paid)


def calc_odds(pool, fair: FairPriceVector, i: int, wager, fee_rate=0) -> Quote:
    """Quote the payout for betting ``wager`` collateral on outcome ``i``:
    the fair-price engine's quote kernel.  Every engine's kernel takes
    ``(pool, fair, i, wager, fee_rate=0)``; the quote it returns carries no
    market identity, which :meth:`~uamm_lab.market.Market.quote`'s caller
    reads from the market.

    Runs the swap legs of the buy pipeline in float on the pool's combined
    reserves and returns only what a bettor reads: the odd, the implied
    price, the slippage and the fee.  The live pool is never mutated, and no
    post-trade pool is built: the fair rule never reads an input pool, so
    only the output pool ``ri`` is read, as ``r[i] / UNIT + r[0] / UNIT``
    from the int reserves (the float of each, correctly rounded, then their
    sum), and only it moves.  An unknown outcome or a negative, infinite or
    NaN wager raises ``ValueError``; a zero wager quotes zero.

    Each leg is :func:`swap_out`'s piecewise rule written inline, with the
    same float operations in the same order, so a quote equals the one that
    calls ``swap_out`` leg by leg, bit for bit.  The legs and their rates
    ``rho = f_j / f_i`` come from the vector's leg plan
    (:attr:`FairPriceVector.rates`), divided once per market, the same
    division ``swap_out`` makes on every call.  Only the order of the
    branch tests differs, to cost the surplus and deficit legs least: for
    the non-negative reserves and target balance every pool holds, each leg
    takes the branch ``swap_out`` would.  Only a straddling leg can drain
    its pool: a surplus leg pays less than the pool holds above the target,
    and a deficit leg pays the pool less a positive amount.

    A wager beyond about 2**53 times the pool raises
    :class:`UnfillableQuote` through float rounding alone: ``x + delta``
    rounds to ``delta``, and the straddle output ``alpha * delta`` rounds
    above the pool, although the exact leg leaves ``tb**2 / (tb + delta)``
    behind.  A wager of 1e20 on a fresh pool of 1,000 is such a case
    (``uamm-lab quote`` exits 3 for it); wagers up to 1e7 on fresh pools of
    that size never raise.  It is the float quote's behaviour, kept as the
    quote's contract until the quote becomes the int execution plan.
    """
    r = pool.r_micro
    d = float(wager)
    if not (0 < i < len(r) and 0.0 < d < inf):
        return quote_edge(r, fair, i, d)
    # the output pool with the collateral liquidity combined into it
    ri = r[i] / UNIT + r[0] / UNIT
    tb = pool.tb_float
    tt = tb * tb
    odd = d
    for rho in fair.rates[i]:
        delta = rho * d
        if tb <= ri:
            if ri - delta > tb:
                # above the target: the fair amount
                s = delta
            else:
                # straddling the target: partial slippage (an empty pool
                # with no target pays 0.0 here, as swap_out's zero branch)
                alpha = ri / ((0.0 if tb <= 0.0 else tt / ri) + delta)
                s = alpha * delta + (rho - alpha) * (ri - tb)
                if s > ri:
                    raise UnfillableQuote(
                        f"wager {d} on outcome {i} would drain the pool"
                    )
        elif ri > 0.0:
            # below the target: constant-product slippage around tb**2
            s = ri - tt / (tt / ri + delta)
        else:
            # an empty pool pays nothing (swap_out's zero branch)
            s = 0.0
        ri -= s
        odd += s
    implied = d / odd
    return new_record(Quote, (
        i, d, odd, implied, implied - fair.probs[i - 1], float(fee_rate) * d,
    ))


class UammMarket(Market):
    """Fair-price betting market: the UAMM swap rule over a :class:`PoolState`."""

    engine = "uamm"
    pool_type = PoolState
    # own attributes, so restoring a traced method by setattr changes nothing
    quote = Market.quote
    buy = Market.buy
    _odds = staticmethod(calc_odds)

    @staticmethod
    def _legs(pool, fair: FairPriceVector, i: int, n: int) -> int:
        """:meth:`~uamm_lab.market.Market.buy`'s swap legs under the
        fair-price rule: the odd, in micro-units, that a wager of ``n``
        micro-units on ``i`` pays, or :class:`UnfillableQuote` if a leg would
        drain the pool.

        The output pool is the int ``r[i] + r[0]``, the collateral combined
        into it, read as a float on every leg.  Each leg is :func:`swap_out`'s
        rule written inline, as in :func:`calc_odds` (same float operations,
        same order, same branch), and its output is rounded half-even to
        micro-units by :func:`~uamm_lab.fixedpoint.to_micro`'s float fast
        path, inline, falling back to ``to_micro`` itself near a tie and
        outside the fast path's range."""
        r = pool.r_micro
        ri = r[i] + r[0]
        d = n / UNIT
        tb = pool.tb_float
        tt = tb * tb
        odd = n
        for rho in fair.rates[i]:
            ro = ri / UNIT
            delta = rho * d
            if tb <= ro:
                if ro - delta > tb:
                    # above the target: the fair amount
                    s = delta
                else:
                    # straddling the target (an empty pool with no target
                    # pays 0.0 here)
                    alpha = ro / ((0.0 if tb <= 0.0 else tt / ro) + delta)
                    s = alpha * delta + (rho - alpha) * (ro - tb)
            elif ro > 0.0:
                # below the target: constant-product slippage around tb**2
                s = ro - tt / (tt / ro + delta)
            else:
                s = 0.0
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
        self.ledger.debit_micro(account, COLLATERAL, n)
        return self.pool.add_micro(n, n * _WADS_PER_MICRO, self.fair)

    def _mint_treasury(self, n: int) -> int:
        """A bet mints LP shares worth its ``n`` micro-units at the
        post-trade share price (:meth:`PoolState.shares_for`), and returns
        them in wads; they accrue to the pool's treasury tally, not to the
        bettor.  A pool with no shares mints none."""
        pool = self.pool
        s = pool.shares_for(n, self.fair) if pool.ts_wad > 0 else 0
        pool.ts_wad += s
        pool.treasury_wad += s
        return s

    def remove_liquidity(self, account: str, s_lp) -> Decimal:
        """Burn ``s_lp`` of ``account``'s shares, floored to the wad, and
        credit it the collateral they pay out (see :meth:`PoolState.remove`)."""
        s = to_wad(s_lp)
        held = self.lp_wad.get(account, 0)
        if s > held:
            raise InsufficientBalance(
                f"{account} holds {from_wad(held)} shares, needs {from_wad(s)}")
        payout = self.pool.remove(s_lp, quantize=True)
        self.lp_wad[account] = held - s
        self.ledger.credit(account, COLLATERAL, payout)
        return payout
