"""Collateral-backed conditional-token ledger.

A market over K outcomes issues one conditional token per outcome.  Locking
``d`` collateral mints ``d`` of *every* outcome token (a uniform set), and
merging a uniform set releases the collateral again.  Because sets are always
minted and merged uniformly, the ledger maintains, for every outcome ``k``::

    sum of all holdings of token k  ==  locked collateral L

at every step.  After the oracle resolves the market, winning tokens redeem
1:1 for collateral and losing tokens are burned: :meth:`ConditionalLedger.settle`
is that rule, for an account's balances and for a pool's reserves alike.
A market's fee rate is checked in one place too, :func:`fee_rate_decimal`,
and its outcome count in one, :func:`check_outcome_count`.

Balances and ``locked`` are stored as int micro-units (see
:mod:`uamm_lab.fixedpoint`) and read back as 6-place Decimals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from numbers import Integral

from .fixedpoint import PRECISION, ZERO, format_micro, mul_exact, to_micro

#: Token id of the base (collateral) currency.  Outcome tokens use 1..K.
COLLATERAL = 0
#: The account that may resolve a market.
ORACLE = "oracle"


def non_negative_micro(d, what: str) -> int:
    """``to_micro(d)``, raising ``ValueError`` for a negative ``d``, even one
    that rounds to zero micro-units: the one sign rule, which the ledger's
    amounts and a :meth:`uamm_lab.market.Market.buy` wager that rounds to
    zero both follow."""
    n = to_micro(d)
    if n <= 0 and (n or float(d) < 0):
        raise ValueError(f"{what} must be non-negative")
    return n


class LedgerError(Exception):
    """Base class for rejected ledger operations."""


class InsufficientBalance(LedgerError):
    pass


class PhaseError(LedgerError):
    pass


class OracleError(LedgerError):
    pass


class InvariantViolation(Exception):
    """The books do not balance: a token or collateral went missing."""


class Phase(Enum):
    OPEN = "open"
    CLOSED = "closed"
    RESOLVED = "resolved"


def fee_rate_decimal(fee) -> Decimal:
    """``fee`` as a market's Decimal fee rate: a Decimal as it is, anything
    else through its ``str``, so a float reads as its shortest repr (0.025
    as ``Decimal("0.025")``).  Raises ``ValueError`` unless the rate is in
    [0, 1); -0.0 is refused too, since its fees would read as negative
    zeros.  :class:`MarketSpec` and :class:`uamm_lab.sim.SimConfig` both
    check a rate here."""
    if type(fee) is not Decimal:
        fee = Decimal(str(fee))
    if not (fee.is_finite() and 0 <= fee < 1) or fee.is_signed():
        raise ValueError("fee_rate must be in [0, 1)")
    return fee


#: The largest outcome count a market may have: its leg plan holds
#: K * (K - 1) entries, so its set-up grows as K squared.
MAX_OUTCOMES = 256


def check_outcome_count(k) -> None:
    """Raise ``ValueError`` unless ``k`` is an outcome count: an integer (a
    numpy integer too, a bool not) in [2, :data:`MAX_OUTCOMES`].  The one
    shape rule, which every :class:`MarketSpec` and each ``k`` choice of a
    :class:`uamm_lab.sim.SimConfig` follow."""
    # a plain int skips the abstract-base-class test, several times slower
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, Integral)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 2 <= k <= MAX_OUTCOMES:
        raise ValueError(f"k must be an outcome count in [2, {MAX_OUTCOMES}], got {k!r}")


@dataclass(frozen=True)
class MarketSpec:
    """Static description of a betting market."""

    market_id: str
    k: int
    fee_rate: Decimal = Decimal("0.025")

    def __post_init__(self):
        check_outcome_count(self.k)
        object.__setattr__(self, "fee_rate", fee_rate_decimal(self.fee_rate))

    @property
    def outcomes(self) -> range:
        return range(1, self.k + 1)


@dataclass
class ConditionalLedger:
    """Per-account token balances plus the market lifecycle state.

    ``bal_micro[account][token]``, ``locked_micro`` and ``deposited_micro``
    (collateral credited from outside by :meth:`deposit`) are int
    micro-units; :meth:`balance` and :attr:`locked` read them as exact
    6-place Decimals, a fee payer's collateral included.
    """

    spec: MarketSpec
    phase: Phase = field(default=Phase.OPEN, init=False)
    winner: int | None = field(default=None, init=False)
    locked_micro: int = field(default=0, init=False)
    deposited_micro: int = field(default=0, init=False)
    bal_micro: dict[str, list[int]] = field(default_factory=dict, init=False)

    # -- balance plumbing ---------------------------------------------------

    def _account(self, account: str) -> list[int]:
        acct = self.bal_micro.get(account)
        if acct is None:
            acct = self.bal_micro[account] = [0] * (self.spec.k + 1)
        return acct

    def _read(self, account: str, token: int) -> Decimal:
        """The balance as an exact 6-place Decimal, whatever the caller's
        context."""
        return mul_exact(PRECISION, self.bal_micro[account][token])

    def balance(self, account: str, token: int = COLLATERAL) -> Decimal:
        if account not in self.bal_micro or not 0 <= token <= self.spec.k:
            return ZERO
        return self._read(account, token)

    def accounts(self):
        return self.bal_micro.keys()

    @property
    def locked(self) -> Decimal:
        """Collateral locked behind outcome-token sets."""
        return mul_exact(PRECISION, self.locked_micro)

    @locked.setter
    def locked(self, value) -> None:
        self.locked_micro = to_micro(value)

    def credit(self, account: str, token: int, d) -> None:
        n = non_negative_micro(d, "credit")
        self._account(account)[token] += n

    def debit(self, account: str, token: int, d) -> None:
        self.debit_micro(account, token, non_negative_micro(d, "debit"))

    def debit_micro(self, account: str, token: int, n: int) -> None:
        """:meth:`debit` of ``n`` micro-units, an int."""
        if n < 0:
            raise ValueError("debit must be non-negative")
        acct = self._account(account)
        if acct[token] < n:
            raise InsufficientBalance(
                f"{account} holds {self._read(account, token)} of token {token}, "
                f"needs {mul_exact(PRECISION, n)}"
            )
        acct[token] -= n

    def deposit(self, account: str, d) -> None:
        """Credit external collateral to an account (off-market funding),
        rounded half-even to the grid."""
        self.deposit_micro(account, non_negative_micro(d, "deposit"))

    def deposit_micro(self, account: str, n: int) -> None:
        """:meth:`deposit` of ``n`` micro-units, an int."""
        if n < 0:
            raise ValueError("deposit must be non-negative")
        self._account(account)[COLLATERAL] += n
        self.deposited_micro += n

    # -- lifecycle ----------------------------------------------------------

    def require_open(self):
        """Raise :class:`PhaseError` unless betting is open: the one
        open-phase rule, which the market's quotes, buys and liquidity
        follow too."""
        if self.phase is not Phase.OPEN:
            raise PhaseError(f"market is {self.phase.value}, not open")

    def _require_resolved(self):
        if self.phase is not Phase.RESOLVED:
            raise PhaseError("market is not resolved")

    def close_betting(self) -> None:
        self.require_open()
        self.phase = Phase.CLOSED

    def resolve(self, caller: str, winner: int) -> None:
        if caller != ORACLE:
            raise OracleError(f"{caller!r} is not the market oracle")
        if self.phase is Phase.RESOLVED:
            raise PhaseError("market already resolved")
        if self.phase is Phase.OPEN:
            raise PhaseError("betting period still open")
        if winner not in self.spec.outcomes:
            raise ValueError(f"unknown outcome {winner}")
        self.phase = Phase.RESOLVED
        self.winner = winner

    # -- token operations ---------------------------------------------------

    def mint(self, account: str, d) -> None:
        """Lock ``d`` collateral, credit ``d`` of every outcome token."""
        self.mint_micro(account, non_negative_micro(d, "mint amount"))

    def mint_micro(self, account: str, n: int) -> None:
        """:meth:`mint` of ``n`` micro-units, an int >= 0."""
        self.require_open()
        if n == 0:
            return
        self.debit_micro(account, COLLATERAL, n)
        acct = self.bal_micro[account]
        for k in self.spec.outcomes:
            acct[k] += n
        self.locked_micro += n

    def merge(self, account: str, d) -> None:
        """Burn a uniform set of ``d`` of each outcome token for collateral."""
        n = non_negative_micro(d, "merge amount")
        if n == 0:
            return
        acct = self._account(account)
        for k in self.spec.outcomes:
            if acct[k] < n:
                raise InsufficientBalance(
                    f"{account} holds {self._read(account, k)} of token {k}, "
                    f"needs {mul_exact(PRECISION, n)}"
                )
        for k in self.spec.outcomes:
            acct[k] -= n
        acct[COLLATERAL] += n
        self.locked_micro -= n

    def redeem(self, account: str) -> Decimal:
        """Convert ``account``'s winning tokens 1:1 to collateral and burn its
        losing tokens (:meth:`settle`).  It checks the phase before it opens an
        account, so a refused redeem opens none."""
        self._require_resolved()
        return self.settle(self._account(account))

    def settle(self, holdings: list[int]) -> Decimal:
        """Settle a holdings list (int micro-units, collateral first) in
        place after resolution: its winning tokens become collateral, its
        losing tokens are zeroed, and the winning tokens' collateral leaves
        ``locked``.  Returns the collateral paid out.  An account's balances
        (:meth:`redeem`) and a pool's reserves
        (:meth:`uamm_lab.market.Market.redeem_pool`) settle here."""
        self._require_resolved()
        w = holdings[self.winner]
        for k in self.spec.outcomes:
            holdings[k] = 0
        holdings[COLLATERAL] += w
        self.locked_micro -= w
        return mul_exact(PRECISION, w)

    # -- checks ---------------------------------------------------------------

    def check_invariants(self, reserves=None, fees: int = 0) -> None:
        """Raise :class:`InvariantViolation` naming every book that does not
        balance.

        ``reserves`` are a pool's micro-unit reserves (collateral first) and
        ``fees`` the collateral it has charged as fees, in micro-units; by
        default there is no pool.  The checks:

        * every stored balance, reserve, ``locked`` and the fees is an int
          >= 0;
        * outcome-token conservation: holdings + pool == locked, for every
          outcome before resolution and for the winner after it (redeeming
          burns the losing tokens);
        * collateral conservation: deposits == account collateral + pool
          collateral + locked + fees.
        """
        reserves = [0] * (self.spec.k + 1) if reserves is None else reserves
        problems = []
        stored = [("locked", self.locked_micro), ("fees", fees)]
        stored += [(f"pool r{k}", n) for k, n in enumerate(reserves)]
        stored += [(f"balance {a}/{t}", n) for a, acct in self.bal_micro.items()
                   for t, n in enumerate(acct)]
        for name, n in stored:
            if type(n) is not int or n < 0:
                problems.append(f"{name} is {n!r}, not an int >= 0 of micro-units")
        backed = self.spec.outcomes if self.winner is None else (self.winner,)
        for k in backed:
            held = sum(acct[k] for acct in self.bal_micro.values()) + reserves[k]
            if held != self.locked_micro:
                problems.append(
                    f"outcome {k}: holdings + pool = {held} micro-units, "
                    f"locked = {self.locked_micro}"
                )
        collateral = (sum(acct[COLLATERAL] for acct in self.bal_micro.values())
                      + reserves[COLLATERAL] + self.locked_micro + fees)
        if collateral != self.deposited_micro:
            problems.append(
                f"collateral: accounts + pool + locked + fees = {collateral} "
                f"micro-units, deposited = {self.deposited_micro}"
            )
        if problems:
            raise InvariantViolation(
                f"market {self.spec.market_id}: " + "; ".join(problems))

    # -- snapshotting ---------------------------------------------------------

    def snapshot_items(self) -> list[tuple[str, str]]:
        items = [
            ("market", self.spec.market_id),
            ("phase", self.phase.value),
            ("winner", "-" if self.winner is None else str(self.winner)),
            ("locked", format_micro(self.locked_micro)),
        ]
        for account, acct in self.bal_micro.items():
            for token, n in enumerate(acct):
                name = "collateral" if token == COLLATERAL else f"outcome{token}"
                items.append((f"balance/{account}/{name}", format_micro(n)))
        return items
