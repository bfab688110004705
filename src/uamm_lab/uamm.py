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

* pure quoting (:func:`calc_odds`, :func:`spot_price`) in float arithmetic,
  never touching live state: a quote moves only its output pool, on a
  scalar, and returns the figures a bettor reads (no post-trade pool);
* execution (:meth:`Market.buy`) in int micro-unit arithmetic against the
  ledger, so conservation stays exact.

An engine is a subclass that supplies its pool type, its one-leg swap rule
and its genesis.  :class:`UammMarket` is the fair-price engine; it also
removes liquidity and mints treasury LP shares on every bet.  The
constant-product engine is :class:`uamm_lab.baseline.CpmmMarket`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import cached_property

import numpy as np

from .fixedpoint import PRECISION, UNIT, ZERO, amount, format_micro, to_micro
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


def frozen_record(cls):
    """``@dataclass(frozen=True, slots=True)`` with a cheaper constructor.

    A frozen dataclass's own ``__init__`` looks up and calls
    ``object.__setattr__`` once per field; this one calls each field's slot
    setter, bound once here.  Assignment still raises
    ``FrozenInstanceError``, and ``repr``, equality, hashing, ``fields`` and
    ``replace`` are the dataclass's own.  Fields may not have defaults.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    source = f"def __init__(self, {', '.join(names)}):\n" + "".join(
        f"    _set_{n}(self, {n})\n" for n in names
    )
    exec(compile(source, f"<frozen_record {cls.__name__}>", "exec"), setters)
    init = setters["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class FairPriceVector:
    """Outcome probabilities used as the engine's pricing reference.

    Probabilities must each lie in (0, 1) and sum to 1 within 1e-9; the
    vector is renormalized so the stored floats sum to exactly 1.0.
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
        self._p = tuple(p)
        self._d = tuple(map(Decimal, p))

    @property
    def probs(self) -> tuple[float, ...]:
        return self._p

    @property
    def decimals(self) -> tuple[Decimal, ...]:
        """The probabilities as exact Decimals (``Decimal(float)``)."""
        return self._d

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative distribution a seeded draw inverts, computed once
        and bit for bit as ``Generator.choice(..., p=probs)`` computes it:
        outcome ``k`` is drawn for a uniform ``u`` when ``k - 1`` entries
        are ``<= u``."""
        cdf = np.array(self._p).cumsum()
        cdf /= cdf[-1]
        return cdf

    def of(self, k: int) -> float:
        """Probability of outcome ``k`` (1-based)."""
        return self._p[k - 1]

    def __len__(self):
        return len(self._p)

    def __iter__(self):
        return iter(self._p)

    def __repr__(self):
        return f"FairPriceVector({list(self._p)})"


def swap_out(d_in: float, f_in: float, f_out: float, r_out: float, tb: float) -> float:
    """Output-token amount received for ``d_in`` input tokens.

    Piecewise in the output pool balance ``r_out`` relative to the target
    balance ``tb`` (branches evaluated strictly in this order):

    1. straddling the target: partial slippage,
    2. pool above target: the fair amount ``rho * d_in`` exactly,
    3. pool below target: constant-product slippage with invariant
       ``x * r_out = tb**2``.
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
    """The exact micro-unit count of a collateral amount: an int on the
    6-decimal grid, an exact Decimal off it."""
    n = to_micro(value)
    return n if PRECISION * n == value else Decimal(value).scaleb(6)


class FloatView:
    """Base of both pool types: reserves in micro-units, and their floats.

    ``r_micro[k]`` holds reserve ``k`` (collateral first) as a count of
    micro-units: an int in every market, whose pools only ever move whole
    micro-units.  A bare pool keeps an exact Decimal count instead when it is
    handed off-grid collateral, so that the LP share algebra can be probed
    exactly (see :meth:`PoolState.remove`).  :attr:`r` reads and replaces the
    reserves as collateral Decimals.

    :meth:`float_view` returns ``(tbf, comb)``: the float target balance
    (0.0 for a pool without one) and the combined reserves
    ``(0.0, rf[1] + rf[0], ...)`` that the bet pipeline starts from, where
    ``rf`` is the float of every reserve.  It is converted once and reused
    by every quote while a list copy of ``r_micro`` taken with it still
    equals ``r_micro`` and the pool's target balance is the same object, so
    any in-place edit or rebinding of the reserves or ``tb`` rebuilds the
    view on the next call.
    """

    _view_r = None
    _view_tb = None
    _view = None

    @classmethod
    def empty(cls, k: int):
        return cls(r=[0] * (k + 1))

    @property
    def k(self) -> int:
        return len(self.r_micro) - 1

    @property
    def r(self) -> list[Decimal]:
        """The reserves as collateral Decimals (a copy; assign ``r`` to
        replace them)."""
        return [PRECISION * n for n in self.r_micro]

    @r.setter
    def r(self, values) -> None:
        self.r_micro = [_exact_micro(v) for v in values]

    def _target_balance(self) -> Decimal | None:
        """The target balance the view depends on; ``None`` if the pool has none."""
        return None

    def float_view(self) -> tuple[float, tuple[float, ...]]:
        tb = self._target_balance()
        if self._view_r == self.r_micro and self._view_tb is tb:
            return self._view
        self._view_tb = tb
        tbf = 0.0 if tb is None else float(tb)
        return self.seed_float_view(tuple(float(n / UNIT) for n in self.r_micro), tbf)

    def seed_float_view(self, rf: tuple[float, ...], tbf: float):
        """Install the view of ``rf``, the float of every current reserve
        (``buy`` has them at hand as its record's ``post_r``), and ``tbf``,
        the float target balance of the last :meth:`float_view` call (the
        target balance must not have changed since)."""
        c = rf[0]
        comb = [x + c for x in rf]
        comb[0] = 0.0
        self._view_r = list(self.r_micro)
        self._view = view = (tbf, tuple(comb))
        return view


@dataclass(init=False)
class PoolState(FloatView):
    """Mutable AMM pool: collateral + K conditional balances, LP bookkeeping.

    ``r_micro[0]`` is the collateral pool, ``r_micro[k]`` the pool of outcome
    token ``k``, both in micro-units (see :class:`FloatView`).  ``ts`` is the
    total LP-share supply, ``tb`` the net LP investment valued at fair prices
    (the target balance).  Shares and TB are bookkeeping quantities and stay
    at full Decimal precision; only token movements are quantized, and only
    at the ledger boundary.
    """

    r_micro: list
    ts: Decimal
    tb: Decimal
    fee_accrued: Decimal
    treasury_shares: Decimal

    def __init__(self, r, ts=ZERO, tb=ZERO, fee_accrued=ZERO, treasury_shares=ZERO):
        self.r = r
        self.ts = ts
        self.tb = tb
        self.fee_accrued = fee_accrued
        self.treasury_shares = treasury_shares

    def _target_balance(self) -> Decimal:
        return self.tb

    def copy(self) -> "PoolState":
        pool = PoolState([], self.ts, self.tb, self.fee_accrued, self.treasury_shares)
        pool.r_micro = list(self.r_micro)
        return pool

    def value_micro(self, fair: FairPriceVector) -> Decimal:
        """:meth:`total_value` in micro-units: r0 + sum f_k * r_k.

        Decimal rounding commutes with scaling by a power of ten, so this is
        ``total_value`` with its exponent raised by six, digit for digit."""
        r = self.r_micro
        tv = r[0]
        for k, f in enumerate(fair.decimals, 1):
            tv += f * r[k]
        return tv

    def total_value(self, fair: FairPriceVector) -> Decimal:
        """Expected collateral value of pool holdings: r0 + sum f_k * r_k."""
        return Decimal(self.value_micro(fair)).scaleb(-6)

    def add(self, d: Decimal, fair: FairPriceVector) -> Decimal:
        """Deposit ``d`` collateral; mint shares at the pre-add share price.

        At genesis (ts == 0) shares bootstrap 1:1 with the deposit.
        """
        if d <= 0:
            raise ValueError("liquidity deposit must be positive")
        n = _exact_micro(d)
        if self.ts == 0:
            s_lp = d
        else:
            s_lp = n * self.ts / self.value_micro(fair)
        self.r_micro[0] += n
        self.tb += d
        self.ts += s_lp
        return s_lp

    def remove(self, s_lp: Decimal, quantize=None) -> Decimal:
        """Burn shares for a pro-rata slice of the *collateral* pool.

        Conditional-token balances are locked until resolution, so only
        ``r0 * s_lp / ts`` pays out.  TB scales down by the same share
        fraction.  ``quantize`` (e.g. :func:`uamm_lab.fixedpoint.amount`)
        rounds the payout when it is leaving toward a real account; without
        it the payout is exact, and so is the collateral left in the pool.
        """
        if s_lp <= 0:
            raise ValueError("share amount must be positive")
        if s_lp > self.ts:
            raise InsufficientBalance(f"pool supply {self.ts} < {s_lp}")
        paid = self.r_micro[0] * s_lp / self.ts
        payout = PRECISION * paid
        if quantize is not None:
            payout = quantize(payout)
            paid = to_micro(payout)
        self.tb -= self.tb * s_lp / self.ts
        self.r_micro[0] -= paid
        self.ts -= s_lp
        return payout


@frozen_record
class Quote:
    """An indicative (non-mutating) odds quotation for one wager: what a
    bettor reads to accept or walk away, and nothing of the pool it would
    leave behind (an executed bet's :class:`BetRecord` carries that)."""

    engine: str
    market_id: str
    outcome: int
    wager: float
    odd: float
    implied_price: float
    slippage: float
    fee: float

    @property
    def decimal_odds(self) -> float:
        return self.odd / self.wager if self.wager else 0.0

    def csv_row(self) -> dict:
        return {
            "engine": self.engine,
            "market_id": self.market_id,
            "outcome": self.outcome,
            "wager": repr(self.wager),
            "odd": repr(self.odd),
            "implied_price": repr(self.implied_price),
            "slippage": repr(self.slippage),
            "fee": repr(self.fee),
        }


def fair_leg(d: float, f_in: float, f_out: float, r_in: float, r_out: float,
             tb: float) -> float:
    """One swap leg under the fair-price rule; the input pool ``r_in`` plays
    no part in it."""
    return swap_out(d, f_in, f_out, r_out, tb)


def calc_odds(
    pool,
    fair: FairPriceVector,
    i: int,
    wager,
    fee_rate=0,
    market_id: str = "",
    engine: str = "uamm",
    leg=fair_leg,
) -> Quote:
    """Quote the payout for betting ``wager`` collateral on outcome ``i``.

    Runs the swap legs of the buy pipeline in float on the pool's combined
    reserves (either engine's) and returns only what a bettor reads: the
    odd, the implied price, the slippage and the fee.  The live pool is
    never mutated, and no post-trade pool is built: each input pool is read
    once, so only the output pool ``ri`` moves.  ``leg`` is the engine's
    one-leg swap rule, called as ``leg(d, f_in, f_out, r_in, r_out, tb)``
    with ``r_in`` read before the bettor's ``d`` is added.
    """
    K = pool.k
    if not 1 <= i <= K:
        raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
    d = float(wager)
    if d < 0:
        raise ValueError("wager must be non-negative")
    f = fair.probs
    fi = f[i - 1]
    if d == 0.0:
        return Quote(engine, market_id, i, 0.0, 0.0, fi, 0.0, 0.0)
    # collateral liquidity combined into every conditional pool; each input
    # pool comb[j] is read once, before the bettor's d would be added to it
    tb, comb = pool.float_view()
    ri = comb[i]
    odd = d
    for j in range(1, K + 1):
        if j == i:
            continue
        s = leg(d, f[j - 1], fi, comb[j], ri, tb)
        if s > ri:
            raise UnfillableQuote(
                f"wager {d} on outcome {i} would drain the pool"
            )
        ri -= s
        odd += s
    implied = d / odd
    return Quote(
        engine, market_id, i, d, odd, implied, implied - fi, float(fee_rate) * d,
    )


def spot_price(pool: PoolState, fair: FairPriceVector, i: int, eps: float = 1e-4) -> float:
    """Marginal implied probability for outcome ``i`` (price of an
    infinitesimal wager, probed numerically at ``eps`` collateral)."""
    return calc_odds(pool, fair, i, eps).implied_price


@frozen_record
class BetRecord:
    """An executed bet and the pool state it left behind."""

    index: int
    market_id: str
    outcome: int
    wager: Decimal
    fee: Decimal
    odd: Decimal
    s_lp: Decimal
    implied_price: float
    slippage: float
    post_r: tuple[float, ...]


@dataclass
class Market:
    """One betting market: ledger + AMM pool + bet pipeline, single writer.

    All mutations of a market are serialized through this object; distinct
    markets share no state and may run in parallel.  An engine subclass
    supplies ``engine`` (its name), ``pool_type``, ``_leg`` (its one-leg swap
    rule, see :func:`calc_odds`) and ``_fund`` (its genesis: what adding
    liquidity puts into the pool); everything else is shared.
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
        self.ledger = ConditionalLedger(self.spec)
        self.pool = self.pool_type.empty(self.spec.k)
        self.lp_shares: dict[str, Decimal] = {}
        self.bets: list[BetRecord] = []

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
        s_lp = self._fund(account, d)
        self.lp_shares[account] = self.lp_shares.get(account, ZERO) + s_lp
        return s_lp

    def _mint_treasury(self, n: int) -> Decimal:
        """LP shares minted to the treasury by a committed bet of ``n``
        micro-units."""
        return ZERO

    # -- betting ----------------------------------------------------------------

    def quote(self, i: int, wager) -> Quote:
        if self.ledger.phase is not Phase.OPEN:
            raise PhaseError("market is not open for betting")
        return calc_odds(
            self.pool, self.fair, i, wager, self._fee_float,
            self.spec.market_id, self.engine, self._leg,
        )

    def buy(self, account: str, i: int, wager) -> BetRecord:
        """Execute a bet: fee on top, mint, combine, swap legs, merge, pay out.

        Tokens move as int micro-units: each leg reads its reserves as
        ``n / UNIT`` floats, exactly the floats a quote reads, and its output
        is rounded half-even to micro-units before the next leg.  The fee is
        ``wager * fee_rate`` exactly when that lies on the grid (any
        whole-cent wager at a 0.025 rate), and is otherwise rounded half-even
        to the grid, so that the ledger can hold what the bettor is charged.
        """
        ledger, pool, spec = self.ledger, self.pool, self.spec
        if ledger.phase is not Phase.OPEN:
            raise PhaseError("market is not open for betting")
        K = spec.k
        if not 1 <= i <= K:
            raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
        n = to_micro(wager)
        if n < 0:
            raise ValueError("wager must be non-negative")
        if n == 0:
            return BetRecord(
                len(self.bets), spec.market_id, i, ZERO, ZERO, ZERO, ZERO,
                self.fair.of(i), 0.0, tuple([x / UNIT for x in pool.r_micro]),
            )
        d = PRECISION * n
        num, den = self._fee_ratio
        fee_n, rest = divmod(n * num, den)
        if rest:  # off the grid: round half-even
            if 2 * rest > den or (2 * rest == den and fee_n & 1):
                fee_n += 1
            fee = PRECISION * fee_n
        else:
            fee = d * spec.fee_rate
        cost = n + fee_n
        acct = ledger.bal_micro.get(account)
        if acct is None or acct[COLLATERAL] < cost:
            raise InsufficientBalance(
                f"{account} cannot cover wager {d} plus fee {fee}"
            )
        f = self.fair.probs
        fi = f[i - 1]
        leg = self._leg
        # Work on a scratch copy; commit only if every leg is fillable.
        # combine: the collateral pool is minted into K uniform sets
        c = pool.r_micro[0]
        rw = [x + c for x in pool.r_micro]
        rw[0] = 0
        df = n / UNIT
        tbf = pool.float_view()[0]
        odd = n
        for j in range(1, K + 1):
            if j == i:
                continue
            s = to_micro(leg(df, f[j - 1], fi, rw[j] / UNIT, rw[i] / UNIT, tbf))
            rw[j] += n
            if s < 0 or s > rw[i]:
                raise UnfillableQuote(
                    f"wager {d} on outcome {i} would drain the pool"
                )
            rw[i] -= s
            odd += s
        # merge the uniform set every conditional pool holds back into collateral
        m = min(rw[1:])
        rw = [x - m for x in rw]
        rw[0] = m
        # commit; the bettor's working set n plus the combined c, less the merge
        acct[COLLATERAL] -= cost
        acct[i] += odd
        if not rest:
            ledger.fee_payers.add(account)
        ledger.locked_micro += n + c - m
        pool.r_micro = rw
        pool.fee_accrued += fee
        s_lp = self._mint_treasury(n)
        post = tuple([x / UNIT for x in rw])
        pool.seed_float_view(post, tbf)
        implied = df / (odd / UNIT)
        record = BetRecord(
            len(self.bets), spec.market_id, i, d, fee, PRECISION * odd, s_lp,
            implied, implied - fi, post,
        )
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
        return PRECISION * w

    def check_invariants(self) -> None:
        """Raise :class:`~uamm_lab.ledger.InvariantViolation` unless the
        market's books balance: outcome tokens and collateral are conserved
        across the accounts, the pool, ``locked`` and the fees, and every
        stored balance is an int >= 0 of micro-units (see
        :meth:`ConditionalLedger.check_invariants`)."""
        self.ledger.check_invariants(self.pool.r_micro, self.pool.fee_accrued)

    # -- snapshot -------------------------------------------------------------------

    def snapshot(self) -> str:
        """Canonical key/value text of full market state, sorted by key."""
        items = dict(self.ledger.snapshot_items())
        items["engine"] = self.engine
        for field in fields(self.pool):
            value = getattr(self.pool, field.name)
            if field.name == "r_micro":
                for k, n in enumerate(value):
                    items[f"pool/r{k}"] = format_micro(n)
            else:
                items[f"pool/{field.name}"] = str(value)
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
    _leg = staticmethod(fair_leg)

    def _fund(self, account: str, d: Decimal) -> Decimal:
        self.ledger.debit(account, COLLATERAL, d)
        return self.pool.add(d, self.fair)

    def _mint_treasury(self, n: int) -> Decimal:
        """A bet mints LP shares worth its ``n`` micro-units at the
        post-trade share price; they accrue to the pool's treasury tally, not
        to the bettor.  Both value and wager are in micro-units, so the share
        count is the one a collateral-unit division gives, digit for digit."""
        pool = self.pool
        tv = pool.value_micro(self.fair)
        s_lp = n * pool.ts / tv if pool.ts > 0 and tv > 0 else ZERO
        pool.ts += s_lp
        pool.treasury_shares += s_lp
        return s_lp

    def remove_liquidity(self, account: str, s_lp: Decimal) -> Decimal:
        held = self.lp_shares.get(account, ZERO)
        if s_lp > held:
            raise InsufficientBalance(f"{account} holds {held} shares, needs {s_lp}")
        payout = self.pool.remove(s_lp, quantize=amount)
        self.lp_shares[account] = held - s_lp
        self.ledger.credit(account, COLLATERAL, payout)
        return payout
