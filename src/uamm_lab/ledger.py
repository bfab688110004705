"""Collateral-backed conditional-token ledger.

A market over K outcomes issues one conditional token per outcome.  Locking
``d`` collateral mints ``d`` of *every* outcome token (a uniform set), and
merging a uniform set releases the collateral again.  Because sets are always
minted and merged uniformly, the ledger maintains, for every outcome ``k``::

    sum of all holdings of token k  ==  locked collateral L

at every step.  After the oracle resolves the market, winning tokens redeem
1:1 for collateral and losing tokens are burned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .fixedpoint import ZERO, amount

#: Token id of the base (collateral) currency.  Outcome tokens use 1..K.
COLLATERAL = 0


class LedgerError(Exception):
    """Base class for rejected ledger operations."""


class InsufficientBalance(LedgerError):
    pass


class PhaseError(LedgerError):
    pass


class OracleError(LedgerError):
    pass


class Phase(Enum):
    OPEN = "open"
    CLOSED = "closed"
    RESOLVED = "resolved"


@dataclass(frozen=True)
class MarketSpec:
    """Static description of a betting market."""

    market_id: str
    k: int
    fee_rate: Decimal = Decimal("0.025")
    oracle_id: str = "oracle"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("a market needs at least two outcomes")
        fee = Decimal(str(self.fee_rate))
        if not (fee.is_finite() and 0 <= fee < 1):
            raise ValueError("fee_rate must be in [0, 1)")
        object.__setattr__(self, "fee_rate", fee)

    @property
    def outcomes(self) -> range:
        return range(1, self.k + 1)


@dataclass
class ConditionalLedger:
    """Per-account token balances plus the market lifecycle state."""

    spec: MarketSpec
    phase: Phase = Phase.OPEN
    winner: int | None = None
    locked: Decimal = ZERO
    _bal: dict[str, dict[int, Decimal]] = field(default_factory=dict)

    # -- balance plumbing ---------------------------------------------------

    def _account(self, account: str) -> dict[int, Decimal]:
        acct = self._bal.get(account)
        if acct is None:
            acct = {t: ZERO for t in range(self.spec.k + 1)}
            self._bal[account] = acct
        return acct

    def balance(self, account: str, token: int = COLLATERAL) -> Decimal:
        return self._bal.get(account, {}).get(token, ZERO)

    def accounts(self):
        return self._bal.keys()

    def credit(self, account: str, token: int, d: Decimal) -> None:
        self._account(account)[token] += d

    def debit(self, account: str, token: int, d: Decimal) -> None:
        acct = self._account(account)
        if acct[token] < d:
            raise InsufficientBalance(
                f"{account} holds {acct[token]} of token {token}, needs {d}"
            )
        acct[token] -= d

    def deposit(self, account: str, d) -> None:
        """Credit external collateral to an account (off-market funding)."""
        d = amount(d)
        if d < 0:
            raise ValueError("deposit must be non-negative")
        self.credit(account, COLLATERAL, d)

    # -- lifecycle ----------------------------------------------------------

    def _require_open(self):
        if self.phase is not Phase.OPEN:
            raise PhaseError(f"market is {self.phase.value}, not open")

    def close_betting(self) -> None:
        self._require_open()
        self.phase = Phase.CLOSED

    def resolve(self, caller: str, winner: int) -> None:
        if caller != self.spec.oracle_id:
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
        self._require_open()
        d = amount(d)
        if d < 0:
            raise ValueError("mint amount must be non-negative")
        if d == 0:
            return
        self.debit(account, COLLATERAL, d)
        acct = self._account(account)
        for k in self.spec.outcomes:
            acct[k] += d
        self.locked += d

    def merge(self, account: str, d) -> None:
        """Burn a uniform set of ``d`` of each outcome token for collateral."""
        d = amount(d)
        if d < 0:
            raise ValueError("merge amount must be non-negative")
        if d == 0:
            return
        acct = self._account(account)
        for k in self.spec.outcomes:
            if acct[k] < d:
                raise InsufficientBalance(
                    f"{account} holds {acct[k]} of token {k}, needs {d}"
                )
        for k in self.spec.outcomes:
            acct[k] -= d
        acct[COLLATERAL] += d
        self.locked -= d

    def redeem(self, account: str) -> Decimal:
        """Convert winning tokens 1:1 to collateral; burn losing tokens."""
        if self.phase is not Phase.RESOLVED:
            raise PhaseError("market is not resolved")
        acct = self._account(account)
        w = acct[self.winner]
        for k in self.spec.outcomes:
            acct[k] = ZERO
        acct[COLLATERAL] += w
        self.locked -= w
        return w

    # -- snapshotting ---------------------------------------------------------

    def snapshot_items(self) -> list[tuple[str, str]]:
        items = [
            ("market", self.spec.market_id),
            ("phase", self.phase.value),
            ("winner", "-" if self.winner is None else str(self.winner)),
            ("locked", str(self.locked)),
        ]
        for account in self._bal:
            for token, v in self._bal[account].items():
                name = "collateral" if token == COLLATERAL else f"outcome{token}"
                items.append((f"balance/{account}/{name}", str(v)))
        return items
