"""What every engine shares: the market, its pool's reserves and its records.

The lab runs each AMM on one betting framework: market creation, the
conditional-token ledger and the collateral liquidity pool.  An AMM only
prices the odds.  This module holds the framework side, and each engine
module (:mod:`uamm_lab.uamm`, :mod:`uamm_lab.baseline`) holds only its rule.

:class:`Market` owns the conditional-token ledger, the market lifecycle
(deposit, close, resolve, redeem, settle the pool, snapshot) and the bet
pipeline, which has two faces:

* pure quoting in float arithmetic, never touching live state: a quote
  moves only its output pool, on a scalar, and returns the figures a bettor
  reads (no post-trade pool).  Each engine has one bound quote kernel, bound
  to a pool, its :class:`FairPriceVector` and a float fee rate, with its swap
  rule written inline in the one float leg loop, so a quote costs its
  arithmetic and one call, not a call per leg.  :meth:`Market.bind_quote`
  binds it for a run of quotes (the simulator binds it once per market run
  and prices every bettor draw through it), and :meth:`Market.quote` is its
  one-wager case (:func:`quote_one`): it reads the wager by
  :meth:`Market.buy`'s rules and prices it into a :class:`Quote`;
* execution (:meth:`Market.buy`) in int micro-unit arithmetic against the
  ledger, so conservation stays exact.  Each engine's execution leg loop
  (``_legs``) runs its swap rule inline too, and each leg is a whole number
  of micro-units: the fair-price loop runs the float operations of its
  public swap kernel and rounds each leg half-even, and the product-rule
  loop computes each leg as its exact rule in ints, rounded half-even once.
  The merge is int algebra on the reserves, and the bet's record and the
  pool's fee book hold ints, read as Decimals on demand.

Each face's public method returns a record, a :class:`Quote` or a
:class:`BetRecord`: named tuples, built straight from the tuple of their
field values (:data:`new_record`).  Neither carries the market's identity:
the market owns it (``market.engine`` and ``market.spec.market_id``), and a
caller that tags a row with it reads it there, as the CLI's ``quote``
command and the bet log do.  The bound kernel builds no record: it returns
a quote's last four fields, a plain tuple.  It reads the pool's int
reserves (and the float of its target balance) afresh on every call, and
its legs and their fair rates from the leg plan the
:class:`FairPriceVector` builds once per market, so it derives no market
constant again and keeps no cache of pool state.  It prices only a float
wager in (0, :data:`~uamm_lab.fixedpoint.MAX_AMOUNT`) on a known outcome
whose legs all fill, and returns ``None`` for any other draw, so a quote, a
buy and the simulator share one wager domain: :func:`quote_one` refuses
such an input with a buy's ``ValueError``, quotes a zero wager zero, or
raises :class:`UnfillableQuote`.

The books are plain ints: the pool's reserves and fees in micro-units (see
:class:`Reserves`) and each LP's shares in wads (10**-18 units, see
:mod:`uamm_lab.fixedpoint`), so no figure of a market depends on the
caller's Decimal context.

An engine is a subclass of :class:`Market` that supplies its pool type, its
bound quote kernel, the leg loop its buys run, and its genesis:
:class:`uamm_lab.uamm.UammMarket` (the fair-price engine) and
:class:`uamm_lab.baseline.CpmmMarket` (the constant-product baseline).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate
from typing import NamedTuple

from .fixedpoint import (FAST_LIMIT, MAX_AMOUNT, PRODUCT_ERROR, PRECISION, UNIT, ZERO,
                         exact_micro, format_micro, from_micro, from_wad, mul_exact,
                         to_micro)
from .ledger import (COLLATERAL, ConditionalLedger, InsufficientBalance, MarketSpec, Phase,
                     non_negative_micro)


class UnfillableQuote(Exception):
    """The requested wager would drain the output pool below zero."""


#: Builds a record from the tuple of its field values, as a NamedTuple
#: class's own ``__new__`` does, without binding them as arguments first.
new_record = tuple.__new__
#: The largest float below :data:`~uamm_lab.fixedpoint.MAX_AMOUNT`, the
#: largest wager a quote kernel prices.
_TOP_WAGER = math.nextafter(MAX_AMOUNT, 0.0)
#: ``Phase.OPEN``, read once: an enum member lookup costs several attribute
#: loads, and every buy checks it.
_OPEN = Phase.OPEN


@functools.cache
def _leg_order(k: int) -> tuple[tuple[int, ...], ...]:
    """For each outcome ``i`` of ``k`` (1-based; index 0 empty), the other
    outcomes in ascending order: the legs a bet on ``i`` swaps."""
    return ((), *[tuple([j for j in range(1, k + 1) if j != i])
                  for i in range(1, k + 1)])


class FairPriceVector:
    """Outcome probabilities used as the engine's pricing reference.

    Probabilities must each lie in (0, 1) and sum to 1 within 1e-9; the
    vector is renormalized so the stored floats sum to exactly 1.0.  These
    checks refuse a vector of fewer than two probabilities too: ``()`` sums
    to 0, and a single probability is not in (0, 1) or renormalizes to 1.0.  A
    vector whose stored floats are not all in (0, 1) (``(1 - 2**-53,
    5e-324)`` stores 0.0), or whose largest over smallest overflows to inf,
    so that a fair rate would (``(1e-310, 0.5, 0.5)``), raises
    ``ValueError``.

    The vector also holds each outcome's leg plan, a market constant: the
    legs a bet swaps (:attr:`others`) and the fair rate of each
    (:attr:`rates`), so a quote neither finds its legs nor divides per leg.
    """

    def __init__(self, probs):
        p = [float(x) for x in probs]
        if any(not (0.0 < x < 1.0) for x in p):
            raise ValueError(f"probabilities must lie in (0, 1): {p}")
        s = math.fsum(p)
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s!r}, not 1")
        p = [x / s for x in p]
        p[-1] = 1.0 - math.fsum(p[:-1])
        if any(not (0.0 < x < 1.0) for x in p) or math.isinf(max(p) / min(p)):
            raise ValueError(f"renormalized probabilities {p} need (0, 1) and a finite max/min")
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


class Reserves:
    """A pool's reserves in micro-units, and its fee book; the base of every
    engine's pool type, and itself the pool of an engine with no target
    balance (the constant-product baseline).

    ``r_micro[k]`` holds reserve ``k`` (collateral first) as a count of
    micro-units: an int in every market, whose pools only ever move whole
    micro-units.  A bare pool keeps an exact Fraction count instead when it
    is handed off-grid collateral, so that the LP share algebra can be probed
    exactly (see :meth:`uamm_lab.uamm.PoolState.remove`).  :attr:`r` reads
    and replaces the reserves as collateral amounts.

    The quote kernels and buy leg loops read ``r_micro`` directly: the
    kernels and the fair-price leg loop as ``n / UNIT`` floats, the
    product-rule leg loop as the ints themselves.  The fair-price engine's
    read :attr:`tb_float` too, the float of the target balance: 0.0 for a
    pool without one.

    The fee book is an int too: ``fee_micro``, the fees :meth:`Market.buy`
    has charged, in micro-units, read by :attr:`fee_accrued`.
    """

    tb_float = 0.0
    #: The books a snapshot prints besides the reserves, by attribute name.
    books = ("fee_accrued",)

    def __init__(self, r):
        self.r = r
        self.fee_micro = 0

    @property
    def fee_accrued(self) -> Decimal:
        """The fees charged, as an exact 6-place Decimal."""
        return mul_exact(PRECISION, self.fee_micro)

    @classmethod
    def empty(cls, k: int):
        return cls(r=[0] * (k + 1))

    @property
    def r(self) -> list:
        """The reserves as collateral (a copy; assign ``r`` to replace
        them): 6-place Decimals, or exact Fractions off the grid."""
        return [from_micro(n) for n in self.r_micro]

    @r.setter
    def r(self, values) -> None:
        self.r_micro = [exact_micro(v) for v in values]


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


def quote_one(price, fair: FairPriceVector, i: int, wager) -> Quote:
    """The quote of one ``wager`` on outcome ``i``: the one-wager case of an
    engine's bound quote kernel ``price`` (see :meth:`Market.bind_quote`),
    under :meth:`Market.buy`'s input rules.  Every public quote
    (:meth:`Market.quote`, :func:`uamm_lab.uamm.calc_odds`) is this call.

    An unknown outcome raises ``ValueError`` with ``buy``'s message, and the
    wager is read by ``buy``'s reader and sign rule
    (:func:`~uamm_lab.ledger.non_negative_micro`), so a wager a buy refuses
    raises the same ``ValueError`` here: a negative one, NaN, an infinity,
    one of :data:`~uamm_lab.fixedpoint.MAX_AMOUNT` or more, or one that is
    no number (a bool, ``None``, a ``Fraction``, a non-numeric string).  A
    zero wager, ``-0.0`` included, quotes zero: it moves no pool and
    charges no fee.  Any other wager is priced as ``float(wager)``,
    unrounded (the off-grid wager rule of :meth:`Market.buy`), and one the
    kernel declines (a leg that would drain its pool) raises
    :class:`UnfillableQuote`.

    The wager's domain is decided once, on the micro-units the reader
    returns, so a quote prices every wager a buy executes.  A wager below
    :data:`~uamm_lab.fixedpoint.MAX_AMOUNT` whose float rounds up to it (a
    ``Decimal("9999999999999999999999.5")``) is priced as the largest float
    below it, the kernel's own bound."""
    if not 1 <= i <= len(fair):
        raise ValueError(f"unknown outcome {i} for a {len(fair)}-outcome market")
    non_negative_micro(wager, "wager")
    d = float(wager)
    if d >= MAX_AMOUNT:
        d = _TOP_WAGER
    if not d:
        return new_record(Quote, (i, 0.0, 0.0, fair.probs[i - 1], 0.0, 0.0))
    figures = price(i, d)
    if figures is None:
        raise UnfillableQuote(f"wager {d} on outcome {i} would drain the pool")
    return new_record(Quote, (i, d, *figures))


class BetRecord(NamedTuple):
    """An executed bet and the pool state it left behind (the market it ran
    on, as for a :class:`Quote`, is not a field).  A named tuple, like
    :class:`Quote`, whose amounts are ints named for their unit:

    * ``wager_micro``, ``fee_micro`` and ``odd_micro`` in micro-units;
    * ``s_lp_wad``, the treasury LP shares the bet minted, in wads, or
      ``None`` for an engine that mints none (and for a zero bet);
    * ``post_micro``, every reserve after the bet (collateral first), in
      micro-units;

    and the implied price and slippage as floats.  The properties
    :attr:`wager`, :attr:`fee`, :attr:`odd`, :attr:`s_lp` and :attr:`post_r`
    read them as exact Decimals, whatever the caller's context (the shares
    18 places, or ``0.000000`` when none were minted; the rest 6 places),
    and the reserves as floats."""

    index: int
    outcome: int
    wager_micro: int
    fee_micro: int
    odd_micro: int
    s_lp_wad: int | None
    implied_price: float
    slippage: float
    post_micro: tuple[int, ...]

    wager = property(lambda self: mul_exact(PRECISION, self.wager_micro))
    fee = property(lambda self: mul_exact(PRECISION, self.fee_micro))
    odd = property(lambda self: mul_exact(PRECISION, self.odd_micro))
    s_lp = property(lambda self: ZERO if self.s_lp_wad is None else from_wad(self.s_lp_wad))
    post_r = property(lambda self: tuple([x / UNIT for x in self.post_micro]))


@dataclass
class Market:
    """One betting market: ledger + AMM pool + bet pipeline, single writer.

    All mutations of a market are serialized through this object; distinct
    markets share no state and may run in parallel.  An engine subclass
    supplies ``engine`` (its name), ``pool_type``, ``_bind`` (its bound
    quote kernel's binder, called as ``(pool, fair, fee_rate)`` and
    returning ``price(i, d)``, see :func:`uamm_lab.uamm.bind_odds`; its
    only quote hook, which :meth:`bind_quote` and :meth:`quote` call),
    ``_legs`` (the leg loop :meth:`buy` runs: ``(pool, fair, i, n)`` to the
    odd in micro-units, see :meth:`uamm_lab.uamm.UammMarket._legs`) and
    ``_fund`` (its genesis: what adding ``n`` micro-units of liquidity, an
    int, puts into the pool; it returns the LP shares minted, in int wads);
    everything else is shared.
    """

    spec: MarketSpec
    fair: FairPriceVector

    def __post_init__(self):
        # the count first: a long probability list is refused before its
        # quadratic leg plan is built
        if len(self.fair) != self.spec.k:
            raise ValueError(f"{len(self.fair)} fair prices for a {self.spec.k}-outcome market")
        if not isinstance(self.fair, FairPriceVector):
            self.fair = FairPriceVector(self.fair)
        self._fee_float = float(self.spec.fee_rate)
        self._fee_ratio = self.spec.fee_rate.as_integer_ratio()
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
        """Fund the pool with ``d`` of ``account``'s collateral, rounded
        half-even to the grid; returns the LP shares credited to
        ``account``."""
        return from_wad(self.add_liquidity_micro(account, to_micro(d)))

    def add_liquidity_micro(self, account: str, n: int) -> int:
        """:meth:`add_liquidity` of ``n`` micro-units, an int; returns the
        shares in int wads."""
        self.ledger.require_open()
        if n <= 0:
            raise ValueError("liquidity deposit must be positive")
        s = self._fund(account, n)
        self.lp_wad[account] = self.lp_wad.get(account, 0) + s
        return s

    def _mint_treasury(self, n: int) -> int | None:
        """LP shares minted to the treasury by a committed bet of ``n``
        micro-units, in int wads; ``None`` for an engine with no treasury."""
        return None

    # -- betting ----------------------------------------------------------------

    def quote(self, i: int, wager) -> Quote:
        """The indicative quote of ``wager`` on outcome ``i``, which moves
        nothing: :meth:`bind_quote`'s kernel called once through
        :func:`quote_one`.  The market must be open.  A quote takes the
        wagers a buy takes and refuses the others with the ``ValueError`` a
        buy raises; it prices a wager as given, unrounded, by the off-grid
        wager rule that :meth:`buy` states, and raises
        :class:`UnfillableQuote` for one that would drain the pool."""
        return quote_one(self.bind_quote(), self.fair, i, wager)

    def bind_quote(self):
        """The engine's quote kernel bound to this market's pool, fair
        prices and float fee rate: ``price(i, d)``, which returns
        :meth:`quote`'s ``odd``, ``implied_price``, ``slippage`` and ``fee``
        for a float wager ``d`` as a plain tuple, bit for bit, or ``None``
        for a draw it does not price (a non-float wager, an unknown outcome,
        a wager not in (0, :data:`~uamm_lab.fixedpoint.MAX_AMOUNT`), a leg
        that would drain its pool), which :meth:`quote` then decides.

        The market must be open, and the kernel checks no phase itself: bind
        it for one run of quotes, as :func:`uamm_lab.sim.run_market` does,
        and keep it no longer.  It holds the pool object bound here (a pool
        assigned to :attr:`pool` later is not seen) but reads its reserves
        afresh on every call."""
        self.ledger.require_open()
        return self._bind(self.pool, self.fair, self._fee_float)

    def buy(self, account: str, i: int, wager, *, fund: bool = False) -> BetRecord:
        """Execute a bet: fee on top, mint, combine, swap legs, merge, pay out.

        Tokens move as int micro-units: the engine's ``_legs`` pays each leg
        from the combined reserves ``r[k] + r[0]`` as a whole number of
        micro-units, rounded half-even before the next leg (the fair-price
        rule in float on ``n / UNIT`` reads, the product rule exactly in
        ints), and raises :class:`UnfillableQuote` for a leg that would
        drain its pool, which only a fair-price leg can.  No scratch pool is
        built: once every leg is fillable, the merge is int algebra on the
        odd (in effect every conditional pool gains ``r[0] + n`` and pool
        ``i`` pays the odd; the uniform set all of them then hold returns to
        collateral), written to one new reserve list.
        The fee is ``wager * fee_rate`` exactly when that lies on the grid
        (any whole-cent wager at a 0.025 rate), and is otherwise rounded
        half-even to the grid, so that the ledger can hold what the bettor is
        charged.  It goes to the pool's int fee book, ``pool.fee_micro``,
        and like every amount it reads to 6 places (see
        :attr:`Reserves.fee_accrued`).

        The off-grid wager rule, stated here once: ``buy`` rounds the wager
        half-even to micro-units first, once, and executes and records the
        rounded wager, while :meth:`quote` prices a wager as given, unrounded.
        So an off-grid wager is quoted as given and executed rounded, and a
        wager on the grid is quoted at exactly what it executes.  A wager
        :func:`~uamm_lab.fixedpoint.to_micro` cannot read raises its
        ``ValueError``.  A negative wager raises ``ValueError``, as a quote
        does, even when it rounds to zero; a wager that rounds to zero moves
        nothing and is recorded as a zero bet, at its own index in
        :attr:`bets` like every other record.

        With ``fund=True`` the account is first credited, from outside the
        market, with exactly what the bet costs, the rounded wager plus its
        fee, so there is no balance to check; a bet that then proves
        unfillable leaves the account holding that deposit.  The credit is
        :meth:`~uamm_lab.ledger.ConditionalLedger.deposit_micro` written
        inline: it opens the account if need be and moves its collateral
        and the ledger's ``deposited_micro`` by the cost, as that method
        does.  A float wager is rounded by :func:`~uamm_lab.fixedpoint.to_micro`'s
        float fast path, inline, as the fair-price ``_legs`` rounds each
        leg, and by ``to_micro`` itself near a tie, outside the fast path's
        range and for any other type.  The returned :class:`BetRecord` holds int
        amounts (its ``wager_micro`` is the rounded wager) and reads them as
        Decimals through its properties.
        """
        ledger, pool = self.ledger, self.pool
        if ledger.phase is not _OPEN:
            ledger.require_open()
        K = self.spec.k
        if not 1 <= i <= K:
            raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
        # to_micro(wager), its float fast path inline
        y = wager * 1e6 if type(wager) is float else 0.0
        if not (0.0 < y < FAST_LIMIT and 0.5 - abs(y - (n := round(y))) > y * PRODUCT_ERROR):
            n = to_micro(wager)
        if n <= 0:
            non_negative_micro(wager, "wager")  # a negative wager raises
            if fund:
                ledger.deposit_micro(account, 0)  # opens the account
            record = new_record(BetRecord, (
                len(self.bets), i, 0, 0, 0, None,
                self.fair.probs[i - 1], 0.0, tuple(pool.r_micro),
            ))
            self.bets.append(record)
            return record
        # the fee, n * fee_rate, rounded half-even to the grid
        num, den = self._fee_ratio
        fee_n, rest = divmod(n * num, den)
        if 2 * rest > den or (2 * rest == den and fee_n & 1):
            fee_n += 1
        cost = n + fee_n
        acct = ledger.bal_micro.get(account)
        if fund:
            # ledger.deposit_micro(account, cost), inline
            if acct is None:
                acct = ledger.bal_micro[account] = [0] * (K + 1)
            acct[COLLATERAL] += cost
            ledger.deposited_micro += cost
        elif acct is None or acct[COLLATERAL] < cost:
            raise InsufficientBalance(f"{account} cannot cover wager "
                                      f"{mul_exact(PRECISION, n)} plus fee {mul_exact(PRECISION, fee_n)}")
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
        ledger.locked_micro -= u
        pool.r_micro = rw
        pool.fee_micro += fee_n
        implied = n / UNIT / (odd / UNIT)
        record = new_record(BetRecord, (
            len(self.bets), i, n, fee_n, odd, self._mint_treasury(n),
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
        """Settle the pool's own conditional holdings after resolution: its
        reserves settle in place by the ledger's one rule
        (:meth:`ConditionalLedger.settle`), as an account's balances do."""
        return self.ledger.settle(self.pool.r_micro)

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
