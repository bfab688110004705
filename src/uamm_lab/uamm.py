"""Fair-price AMM engine for conditional-token betting markets.

Pricing references an externally supplied probability vector (the fair
prices) instead of pool reserves alone.  A bet of ``d`` collateral on
outcome ``i`` mints a uniform token set, keeps the ``i`` leg, and swaps every
other leg for more ``i`` tokens; the sum is the payout ("odd").  The swap
rate is fair (``rho = f_in / f_out``) while the output pool sits above the
LP target balance TB, and charges constant-product-style slippage once the
pool dips below TB.

:class:`Market` owns what every engine shares: the conditional-token
ledger, the market lifecycle (deposit, close, resolve, redeem, settle the
pool, snapshot) and the bet pipeline, which has two faces:

* pure quoting (:func:`calc_odds`) in float arithmetic, never touching
  live state: a quote moves only its output pool, on a scalar, and returns
  the figures a bettor reads (no post-trade pool).  Each engine has one
  quote kernel with its swap rule written inline in the leg loop, so a
  quote costs its arithmetic and one call, not a call per leg;
* execution (:meth:`Market.buy`) in int micro-unit arithmetic against the
  ledger, so conservation stays exact.  Each engine's execution leg loop
  (``_legs``) runs its swap rule inline too, with the float operations of
  the public swap kernel (:func:`swap_out` here), and rounds each leg to
  micro-units; the merge is int algebra on the reserves, and the bet's
  record and the pool's fee book hold ints, read as Decimals on demand.

Each face returns a record, a :class:`Quote` or a :class:`BetRecord`: named
tuples, built straight from the tuple of their field values.  Neither
carries the market's identity: the market owns it (``market.engine`` and
``market.spec.market_id``), and a caller that tags a row with it reads it
there, as the CLI's ``quote`` command and the bet log do.  A quote reads
the pool's int reserves (and the float of its target balance) directly, and
its legs and their fair rates from the leg plan the :class:`FairPriceVector`
builds once per market, so it derives no market constant again and keeps no
cache of pool state.

The pool's books are plain ints: reserves and fees in micro-units, LP
shares and the target balance in wads (10**-18 units, see
:mod:`uamm_lab.fixedpoint`), so no figure of a market depends on the
caller's Decimal context.

An engine is a subclass that supplies its pool type, its quote kernel, the
leg loop its buys run, and its genesis.  :class:`UammMarket` is the
fair-price engine (kernel :func:`calc_odds`, legs
:meth:`UammMarket._legs`); it also removes liquidity and mints treasury LP
shares on every bet.  The
constant-product engine is :class:`uamm_lab.baseline.CpmmMarket`.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .fixedpoint import (_FAST_LIMIT, _PRODUCT_ERROR, PRECISION, UNIT, WAD, ZERO, amount,
                         format_micro, from_wad, micro_at, mul_exact, to_micro, to_wad)
from .ledger import (
    COLLATERAL,
    ConditionalLedger,
    InsufficientBalance,
    MarketSpec,
    Phase,
    PhaseError,
)


class UnfillableQuote(Exception):
    """The requested wager would drain the output pool below zero."""


#: Builds a record from the tuple of its field values, as a NamedTuple
#: class's own ``__new__`` does, without binding them as arguments first.
_record = tuple.__new__
#: ``Phase.OPEN``, read once: an enum member lookup costs several attribute
#: loads, and every quote and buy checks it.
_OPEN = Phase.OPEN
#: ``math.inf`` as a module global, which the quote kernels' finiteness test
#: reads faster than the attribute.
_INF = math.inf
#: Wads per micro-unit of collateral.
_WADS_PER_MICRO = WAD // UNIT


@functools.cache
def _leg_order(k: int) -> tuple[tuple[int, ...], ...]:
    """For each outcome ``i`` of ``k`` (1-based; index 0 empty), the other
    outcomes in ascending order: the legs a bet on ``i`` swaps."""
    return ((), *[tuple([j for j in range(1, k + 1) if j != i])
                  for i in range(1, k + 1)])


class FairPriceVector:
    """Outcome probabilities used as the engine's pricing reference.

    Probabilities must each lie in (0, 1) and sum to 1 within 1e-9; the
    vector is renormalized so the stored floats sum to exactly 1.0.

    The vector also holds each outcome's leg plan, a market constant: the
    legs a bet swaps (:attr:`others`) and the fair rate of each
    (:attr:`rates`), so a quote neither finds its legs nor divides per leg.
    """

    def __init__(self, probs):
        p = [float(x) for x in probs]
        if len(p) < 2:
            raise ValueError("need at least two outcome probabilities")
        if any(not (0.0 < x < 1.0) for x in p):
            raise ValueError(f"probabilities must lie in (0, 1): {p}")
        s = math.fsum(p)
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s!r}, not 1")
        p = [x / s for x in p]
        p[-1] = 1.0 - math.fsum(p[:-1])
        #: The probabilities, a tuple of floats.
        self.probs = tuple(p)
        ratios = [x.as_integer_ratio() for x in p]
        den = max(d for _, d in ratios)
        #: The weights of the exact pool value: ``weights[0]`` is a power of
        #: two ``D`` and ``weights[k] / D`` is ``probs[k - 1]`` exactly, so
        #: that ``sum(w * r for w, r in zip(weights, reserves))`` is ``D``
        #: times ``r0 + sum f_k * r_k``, an exact int.
        self.weights = (den, *[a * den // d for a, d in ratios])
        acc = list(accumulate(p))
        total = acc[-1]
        #: The cumulative distribution a seeded draw inverts, a tuple of
        #: floats, bit for bit as ``Generator.choice(..., p=probs)`` computes
        #: it: numpy's ``cumsum`` is this running sum in index order, and
        #: ``cdf /= cdf[-1]`` this division.  Outcome ``k`` is drawn for a
        #: uniform ``u`` when ``k - 1`` entries are ``<= u``.
        self.cdf = tuple([c / total for c in acc])
        #: ``others[i]``: the outcomes other than ``i`` (1-based), ascending,
        #: the order of a bet's swap legs; ``others[0]`` is empty.
        self.others = others = _leg_order(len(p))
        #: ``rates[i]``: each leg's fair rate ``probs[j - 1] / probs[i - 1]``
        #: for ``j`` in ``others[i]``, in that order; ``rates[0]`` is empty.
        self.rates = ((), *[tuple([p[j - 1] / fi for j in js])
                            for fi, js in zip(p, others[1:])])

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __repr__(self):
        return f"FairPriceVector({list(self.probs)})"


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


def _exact_micro(value):
    """The exact micro-unit count of a collateral amount (an int, float,
    Decimal or Fraction): an int on the 6-decimal grid, an exact Fraction
    off it."""
    if type(value) is int:
        return value * UNIT
    num, den = value.as_integer_ratio()  # in lowest terms
    if UNIT % den:
        return Fraction(num * UNIT, den)
    return num * (UNIT // den)


def _collateral(n):
    """``n`` micro-units as collateral: an exact 6-place Decimal for an int
    count, an exact Fraction for an off-grid one."""
    return mul_exact(PRECISION, n) if type(n) is int else n / UNIT


class Reserves:
    """Base of both pool types: reserves in micro-units.

    ``r_micro[k]`` holds reserve ``k`` (collateral first) as a count of
    micro-units: an int in every market, whose pools only ever move whole
    micro-units.  A bare pool keeps an exact Fraction count instead when it
    is handed off-grid collateral, so that the LP share algebra can be probed
    exactly (see :meth:`PoolState.remove`).  :attr:`r` reads and replaces the
    reserves as collateral amounts.

    The quote kernels read ``r_micro`` directly, as ``n / UNIT`` floats, and
    :meth:`Market.buy` reads :attr:`tb_float`, the float of the target
    balance: 0.0 for a pool without one.

    The fee book is an int too: ``fee_micro``, the fees :meth:`Market.buy`
    has charged, in micro-units, and ``fee_exp``, the exponent
    :attr:`fee_accrued` reads them at.
    """

    tb_float = 0.0
    #: The books a snapshot prints besides the reserves, by attribute name.
    books = ("fee_accrued",)

    def __init__(self, r):
        self.r = r
        self.fee_micro = 0
        self.fee_exp = -6

    @property
    def fee_accrued(self) -> Decimal:
        """The fees charged, as an exact Decimal: 6 places until a fee of
        exactly ``wager * fee_rate`` has been charged, then that fee's
        exponent (the fee rate's less 6), as the exact sum of the bet
        records' fees reads."""
        return micro_at(self.fee_micro, self.fee_exp)

    @classmethod
    def empty(cls, k: int):
        return cls(r=[0] * (k + 1))

    @property
    def r(self) -> list:
        """The reserves as collateral (a copy; assign ``r`` to replace
        them): 6-place Decimals, or exact Fractions off the grid."""
        return [_collateral(n) for n in self.r_micro]

    @r.setter
    def r(self, values) -> None:
        self.r_micro = [_exact_micro(v) for v in values]


def _wad_field(name: str) -> property:
    """A share book stored as the int wads of attribute ``name`` and read and
    written as an exact 18-place Decimal; a written amount off that grid is
    floored."""
    return property(lambda self: from_wad(getattr(self, name)),
                    lambda self, value: setattr(self, name, to_wad(value)))


class PoolState(Reserves):
    """Mutable AMM pool: collateral + K conditional balances, LP bookkeeping.

    ``r_micro[0]`` is the collateral pool, ``r_micro[k]`` the pool of outcome
    token ``k``, both in micro-units (see :class:`Reserves`).  ``ts`` is the
    total LP-share supply, ``treasury_shares`` the part of it that bets
    minted, and ``tb`` the net LP investment valued at fair prices (the
    target balance).

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
    ts = _wad_field("ts_wad")
    treasury_shares = _wad_field("treasury_wad")
    #: The target balance; assigning it writes ``tb_wad`` and ``tb_float``.
    tb = property(lambda self: from_wad(self.tb_wad),
                  lambda self, value: self._set_tb(to_wad(value)))

    def __init__(self, r, ts=0, tb=0, treasury_shares=0):
        super().__init__(r)
        self.ts = ts
        self.tb = tb
        self.treasury_shares = treasury_shares

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

    def add(self, d, fair: FairPriceVector) -> Decimal:
        """Deposit ``d`` collateral; mint shares at the pre-add share price,
        floored to the wad, and return them.

        At genesis (ts == 0) shares bootstrap 1:1 with the deposit.
        """
        if d <= 0:
            raise ValueError("liquidity deposit must be positive")
        n = _exact_micro(d)
        # the deposit in wads: exact on the grid, floored off it
        w = n * _WADS_PER_MICRO if type(n) is int else to_wad(d)
        ts = self.ts_wad
        s = w if ts == 0 else n * ts * fair.weights[0] // self.value(fair)
        self.r_micro[0] += n
        self._set_tb(self.tb_wad + w)
        self.ts_wad = ts + s
        return from_wad(s)

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
        return _collateral(paid)


class Quote(NamedTuple):
    """An indicative (non-mutating) odds quotation for one wager: what a
    bettor reads to accept or walk away, and nothing of the pool it would
    leave behind (an executed bet's :class:`BetRecord` carries that) or of
    the market that quoted it (the market owns its engine name and id).

    A named tuple: immutable, hashable, and equal to a plain tuple of the
    same values."""

    outcome: int
    wager: float
    odd: float
    implied_price: float
    slippage: float
    fee: float

    @property
    def decimal_odds(self) -> float:
        return self.odd / self.wager if self.wager else 0.0


def _quote_edge(r, fair: FairPriceVector, i: int, d: float) -> Quote:
    """What a quote kernel does with an input outside its hot test (a known
    outcome and a positive finite wager ``d``): raise ``ValueError`` for an
    unknown outcome or a negative, infinite or NaN wager, and otherwise (a
    zero wager, ``-0.0`` included) return the zero quote, which moves no
    pool and charges no fee.  ``r`` is the pool's ``r_micro``."""
    if not 0 < i < len(r):
        raise ValueError(f"unknown outcome {i} for a {len(r) - 1}-outcome market")
    if not 0.0 <= d < _INF:
        raise ValueError(f"wager must be finite and non-negative, got {d!r}")
    return _record(Quote, (i, 0.0, 0.0, fair.probs[i - 1], 0.0, 0.0))


def calc_odds(pool, fair: FairPriceVector, i: int, wager, fee_rate=0) -> Quote:
    """Quote the payout for betting ``wager`` collateral on outcome ``i``:
    the fair-price engine's quote kernel.  Every engine's kernel takes
    ``(pool, fair, i, wager, fee_rate=0)``; the quote it returns carries no
    market identity, which :meth:`Market.quote`'s caller reads from the
    market.

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
    if not (0 < i < len(r) and 0.0 < d < _INF):
        return _quote_edge(r, fair, i, d)
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
    return _record(Quote, (
        i, d, odd, implied, implied - fair.probs[i - 1], float(fee_rate) * d,
    ))


class BetRecord(NamedTuple):
    """An executed bet and the pool state it left behind (the market it ran
    on, as for a :class:`Quote`, is not a field).  A named tuple, like
    :class:`Quote`, whose amounts are ints named for their unit:

    * ``wager_micro``, ``fee_micro`` and ``odd_micro`` in micro-units, and
      ``fee_exp``, the exponent the fee reads at: the fee rate's less 6 when
      the fee is exactly ``wager * fee_rate``, else -6;
    * ``s_lp_wad``, the treasury LP shares the bet minted, in wads, or
      ``None`` for an engine that mints none (and for a zero bet);
    * ``post_micro``, every reserve after the bet (collateral first), in
      micro-units;

    and the implied price and slippage as floats.  The properties
    :attr:`wager`, :attr:`fee`, :attr:`odd`, :attr:`s_lp` and :attr:`post_r`
    read them as exact Decimals, whatever the caller's context (the shares
    18 places, or ``0.000000`` when none were minted; the fee at
    ``fee_exp``; the rest 6 places), and the reserves as floats."""

    index: int
    outcome: int
    wager_micro: int
    fee_micro: int
    fee_exp: int
    odd_micro: int
    s_lp_wad: int | None
    implied_price: float
    slippage: float
    post_micro: tuple[int, ...]

    wager = property(lambda self: mul_exact(PRECISION, self.wager_micro))
    fee = property(lambda self: micro_at(self.fee_micro, self.fee_exp))
    odd = property(lambda self: mul_exact(PRECISION, self.odd_micro))
    s_lp = property(lambda self: ZERO if self.s_lp_wad is None else from_wad(self.s_lp_wad))
    post_r = property(lambda self: tuple([x / UNIT for x in self.post_micro]))


@dataclass
class Market:
    """One betting market: ledger + AMM pool + bet pipeline, single writer.

    All mutations of a market are serialized through this object; distinct
    markets share no state and may run in parallel.  An engine subclass
    supplies ``engine`` (its name), ``pool_type``, ``_odds`` (its quote
    kernel, called as :func:`calc_odds` is), ``_legs`` (the leg loop
    :meth:`buy` runs: ``(pool, fair, i, n)`` to the odd in micro-units, see
    :meth:`UammMarket._legs`) and ``_fund`` (its genesis:
    what adding liquidity puts into the pool; it returns the LP shares
    minted, in int wads); everything else is shared.
    """

    spec: MarketSpec
    fair: FairPriceVector

    def __post_init__(self):
        if not isinstance(self.fair, FairPriceVector):
            self.fair = FairPriceVector(self.fair)
        if len(self.fair) != self.spec.k:
            raise ValueError("fair-price vector length must equal K")
        self._fee_float = float(self.spec.fee_rate)
        self._fee_ratio = self.spec.fee_rate.as_integer_ratio()
        #: The exponent of an exact fee, ``wager * fee_rate``.
        self._fee_exp = self.spec.fee_rate.as_tuple().exponent - 6
        self.ledger = ConditionalLedger(self.spec)
        self.pool = self.pool_type.empty(self.spec.k)
        #: Each LP's shares, in int wads.
        self.lp_wad: dict[str, int] = {}
        self.bets: list[BetRecord] = []

    @property
    def lp_shares(self) -> dict[str, Decimal]:
        """Each LP's shares as exact 18-place Decimals (a copy)."""
        return {a: from_wad(n) for a, n in self.lp_wad.items()}

    # -- convenience passthroughs -------------------------------------------

    def deposit(self, account: str, d) -> None:
        self.ledger.deposit(account, d)

    @property
    def phase(self) -> Phase:
        return self.ledger.phase

    # -- liquidity provision --------------------------------------------------

    def add_liquidity(self, account: str, d) -> Decimal:
        """Fund the pool with ``d`` of ``account``'s collateral; returns the
        LP shares credited to ``account``."""
        if self.ledger.phase is not Phase.OPEN:
            raise PhaseError("liquidity can only be added while betting is open")
        d = amount(d)
        if d <= 0:
            raise ValueError("liquidity deposit must be positive")
        s = self._fund(account, d)
        self.lp_wad[account] = self.lp_wad.get(account, 0) + s
        return from_wad(s)

    def _mint_treasury(self, n: int) -> int | None:
        """LP shares minted to the treasury by a committed bet of ``n``
        micro-units, in int wads; ``None`` for an engine with no treasury."""
        return None

    # -- betting ----------------------------------------------------------------

    def quote(self, i: int, wager) -> Quote:
        if self.ledger.phase is not _OPEN:
            raise PhaseError("market is not open for betting")
        return self._odds(self.pool, self.fair, i, wager, self._fee_float)

    def buy(self, account: str, i: int, wager, *, fund: bool = False) -> BetRecord:
        """Execute a bet: fee on top, mint, combine, swap legs, merge, pay out.

        Tokens move as int micro-units: the engine's ``_legs`` reads each
        combined reserve ``r[k] + r[0]`` as an ``n / UNIT`` float and rounds
        each leg's output half-even to micro-units before the next leg.  No
        scratch pool is built: once every leg is fillable, the merge is int
        algebra on the odd (in effect every conditional pool gains
        ``r[0] + n`` and pool ``i`` pays the odd; the uniform set all of them
        then hold returns to collateral), written to one new reserve list.
        The fee is ``wager * fee_rate`` exactly when that lies on the grid
        (any whole-cent wager at a 0.025 rate), and is otherwise rounded
        half-even to the grid, so that the ledger can hold what the bettor is
        charged.  It goes to the pool's int fee book, ``pool.fee_micro``;
        an exact fee lowers the book's exponent, ``pool.fee_exp``, to its
        own (see :attr:`Reserves.fee_accrued`).

        The wager is rounded half-even to micro-units first, once.  A
        negative wager raises ``ValueError``, as a quote does, even when it
        rounds to zero; a wager that rounds to zero moves nothing and is
        recorded as a zero bet, at its own index in :attr:`bets` like every
        other record.

        With ``fund=True`` the account is first credited, from outside the
        market (:meth:`~uamm_lab.ledger.ConditionalLedger.deposit_micro`),
        with exactly what the bet costs, the rounded wager plus its fee, so
        the balance check cannot fail; a bet that then proves unfillable
        leaves the account holding that deposit.  The returned
        :class:`BetRecord` holds int amounts (its ``wager_micro`` is the
        rounded wager) and reads them as Decimals through its properties.
        """
        ledger, pool = self.ledger, self.pool
        if ledger.phase is not _OPEN:
            raise PhaseError("market is not open for betting")
        K = self.spec.k
        if not 1 <= i <= K:
            raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
        n = to_micro(wager)
        if n <= 0:
            # the sign of a wager that rounds to zero, checked as quote does
            if n or float(wager) < 0:
                raise ValueError("wager must be non-negative")
            if fund:
                ledger.deposit_micro(account, 0)  # opens the account
            record = _record(BetRecord, (
                len(self.bets), i, 0, 0, -6, 0, None,
                self.fair.probs[i - 1], 0.0, tuple(pool.r_micro),
            ))
            self.bets.append(record)
            return record
        # the fee, n * fee_rate: exact at the fee rate's exponent less 6 when
        # it lies on the grid, else rounded half-even to the grid
        num, den = self._fee_ratio
        fee_n, rest = divmod(n * num, den)
        if rest:
            fee_exp = -6
            if 2 * rest > den or (2 * rest == den and fee_n & 1):
                fee_n += 1
        else:
            fee_exp = self._fee_exp
        cost = n + fee_n
        if fund:
            ledger.deposit_micro(account, cost)
        acct = ledger.bal_micro.get(account)
        if acct is None or acct[COLLATERAL] < cost:
            raise InsufficientBalance(f"{account} cannot cover wager "
                                      f"{mul_exact(PRECISION, n)} plus fee {micro_at(fee_n, fee_exp)}")
        fair = self.fair
        try:
            odd = self._legs(pool, fair, i, n)
        except UnfillableQuote:
            raise UnfillableQuote(f"wager {mul_exact(PRECISION, n)} on outcome {i} "
                                  "would drain the pool") from None
        # merge: in effect every conditional pool gains the combined r[0]
        # and the bettor's n, and pool i pays the odd, so all of them hold
        # r[0] + n + u in common, the uniform set that returns to collateral;
        # u is 0 (most buys) when another outcome's pool is empty and pool i
        # covers the odd, and then only r[0] and r[i] move
        r = pool.r_micro
        u = min(r[1:])
        if r[i] - odd < u:
            u = r[i] - odd
        rw = [x - u for x in r] if u else r.copy()
        rw[0] = r[0] + n + u
        rw[i] -= odd
        # commit
        acct[COLLATERAL] -= cost
        acct[i] += odd
        if not rest:
            ledger.fee_payers.add(account)
            if fee_exp < pool.fee_exp:
                pool.fee_exp = fee_exp
        ledger.locked_micro -= u
        pool.r_micro = rw
        pool.fee_micro += fee_n
        implied = n / UNIT / (odd / UNIT)
        record = _record(BetRecord, (
            len(self.bets), i, n, fee_n, fee_exp, odd, self._mint_treasury(n),
            implied, implied - fair.probs[i - 1], tuple(rw),
        ))
        self.bets.append(record)
        return record

    # -- resolution ---------------------------------------------------------------

    def close_betting(self) -> None:
        self.ledger.close_betting()

    def resolve(self, caller: str, winner: int) -> None:
        self.ledger.resolve(caller, winner)

    def redeem(self, account: str) -> Decimal:
        return self.ledger.redeem(account)

    def redeem_pool(self) -> Decimal:
        """Settle the pool's own conditional holdings after resolution."""
        if self.ledger.phase is not Phase.RESOLVED:
            raise PhaseError("market is not resolved")
        r = self.pool.r_micro
        w = r[self.ledger.winner]
        for k in self.spec.outcomes:
            r[k] = 0
        r[0] += w
        self.ledger.locked_micro -= w
        return mul_exact(PRECISION, w)

    def check_invariants(self) -> None:
        """Raise :class:`~uamm_lab.ledger.InvariantViolation` unless the
        market's books balance: outcome tokens and collateral are conserved
        across the accounts, the pool, ``locked`` and the fees, and every
        stored balance is an int >= 0 of micro-units (see
        :meth:`ConditionalLedger.check_invariants`)."""
        self.ledger.check_invariants(self.pool.r_micro, self.pool.fee_micro)

    # -- snapshot -------------------------------------------------------------------

    def snapshot(self) -> str:
        """Canonical key/value text of full market state, sorted by key."""
        items = dict(self.ledger.snapshot_items())
        items["engine"] = self.engine
        for k, n in enumerate(self.pool.r_micro):
            items[f"pool/r{k}"] = format_micro(n)
        for name in self.pool.books:
            items[f"pool/{name}"] = str(getattr(self.pool, name))
        for account, s in self.lp_shares.items():
            items[f"lp/{account}"] = str(s)
        return "\n".join(f"{k}={items[k]}" for k in sorted(items)) + "\n"


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
        """:meth:`Market.buy`'s swap legs under the fair-price rule: the odd,
        in micro-units, that a wager of ``n`` micro-units on ``i`` pays, or
        :class:`UnfillableQuote` if a leg would drain the pool.

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
            if 0.0 < y < _FAST_LIMIT:
                m = round(y)
                if 0.5 - abs(y - m) <= y * _PRODUCT_ERROR:
                    m = to_micro(s)
            else:
                m = to_micro(s)
            if not 0 <= m <= ri:
                raise UnfillableQuote
            ri -= m
            odd += m
        return odd

    def _fund(self, account: str, d: Decimal) -> int:
        self.ledger.debit(account, COLLATERAL, d)
        pool = self.pool
        ts = pool.ts_wad
        pool.add(d, self.fair)
        return pool.ts_wad - ts

    def _mint_treasury(self, n: int) -> int:
        """A bet mints LP shares worth its ``n`` micro-units at the
        post-trade share price, floored to the wad, and returns them in
        wads; they accrue to the pool's treasury tally, not to the bettor.
        The value and the share count are exact ints: ``n * ts / value``
        with the value's power-of-two scale (see :meth:`PoolState.value`)
        multiplied back in."""
        pool, fair = self.pool, self.fair
        tv = pool.value(fair)
        s = n * pool.ts_wad * fair.weights[0] // tv if pool.ts_wad > 0 and tv > 0 else 0
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
