"""Constant-product comparison engine.

Prices come purely from pool reserves (the classic ``x * y = k`` rule), with
no fair-price reference -- exactly the behaviour the fair-price engine is
meant to improve on.  The bet pipeline mirrors the main engine (mint,
combine, swap each non-chosen leg, merge) with the product rule substituted
for the swap step, and runs over the same conditional-token ledger so the
conservation invariants are identical.

Initial reserves are seeded proportional to ``1 / f_k`` so that the implied
prices at launch equal the true outcome probabilities; after that the pool
is on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .fixedpoint import ZERO, amount
from .ledger import (
    COLLATERAL,
    ConditionalLedger,
    InsufficientBalance,
    MarketSpec,
    Phase,
    PhaseError,
)
from .uamm import BetRecord, FairPriceVector, FloatView, Quote, UnfillableQuote


def cpmm_swap(d_in: float, r_in: float, r_out: float) -> float:
    """Output amount under the product rule: r_out - r_in*r_out/(r_in + d_in)."""
    if d_in < 0:
        raise ValueError("swap input must be non-negative")
    if d_in == 0.0 or r_out <= 0.0:
        return 0.0
    return r_out - (r_in * r_out) / (r_in + d_in)


@dataclass
class CpmmPool(FloatView):
    """Reserve balances; r[0] holds merged collateral between bets.

    Quoting reads the reserves through :meth:`float_view`, which stays valid
    while ``r`` compares equal to the copy taken with it (see
    :class:`~uamm_lab.uamm.FloatView`).  A product-rule pool has no target
    balance; its view and its quotes report 0.0.
    """

    r: list[Decimal]
    fee_accrued: Decimal = ZERO

    @classmethod
    def empty(cls, k: int) -> "CpmmPool":
        return cls(r=[ZERO] * (k + 1))

    @property
    def k(self) -> int:
        return len(self.r) - 1


@dataclass
class CpmmMarket:
    """Constant-product betting market over the conditional-token ledger."""

    spec: MarketSpec
    fair: FairPriceVector
    engine = "cpmm"

    def __post_init__(self):
        if not isinstance(self.fair, FairPriceVector):
            self.fair = FairPriceVector(self.fair)
        if len(self.fair) != self.spec.k:
            raise ValueError("fair-price vector length must equal K")
        self._fee_float = float(self.spec.fee_rate)
        self.ledger = ConditionalLedger(self.spec)
        self.pool = CpmmPool.empty(self.spec.k)
        self.lp_shares: dict[str, Decimal] = {}
        self.bets: list[BetRecord] = []

    def deposit(self, account: str, d) -> None:
        self.ledger.deposit(account, d)

    @property
    def phase(self) -> Phase:
        return self.ledger.phase

    def add_liquidity(self, account: str, funding) -> Decimal:
        """Seed reserves from ``funding`` collateral at true-probability prices.

        The LP mints a full set and hands the pool ``funding * f_min / f_k``
        of each token; the excess tokens of likelier outcomes stay with the
        LP (they cannot be merged without the scarcer legs).
        """
        if self.ledger.phase is not Phase.OPEN:
            raise PhaseError("liquidity can only be added while betting is open")
        funding = amount(funding)
        if funding <= 0:
            raise ValueError("funding must be positive")
        f = self.fair.probs
        fmin = min(f)
        self.ledger.mint(account, funding)
        for k in self.spec.outcomes:
            reserve = amount(float(funding) * fmin / f[k - 1])
            self.ledger.debit(account, k, reserve)
            self.pool.r[k] += reserve
        self.lp_shares[account] = self.lp_shares.get(account, ZERO) + funding
        return funding

    def quote(self, i: int, wager) -> Quote:
        if self.ledger.phase is not Phase.OPEN:
            raise PhaseError("market is not open for betting")
        spec, pool = self.spec, self.pool
        K = spec.k
        if not 1 <= i <= K:
            raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
        d = float(wager)
        if d < 0:
            raise ValueError("wager must be non-negative")
        f = self.fair.probs
        rf, tb, comb = pool.float_view()
        if d == 0.0:
            return Quote(
                self.engine, spec.market_id, i, 0.0, 0.0, f[i - 1], 0.0,
                0.0, rf, tb, f,
            )
        r = list(comb)
        odd = d
        for j in range(1, K + 1):
            if j == i:
                continue
            s = cpmm_swap(d, r[j], r[i])
            r[j] += d
            if s > r[i]:
                raise UnfillableQuote(
                    f"wager {d} on outcome {i} would drain the pool"
                )
            r[i] -= s
            odd += s
        m = min(r[1:])
        implied = d / odd
        return Quote(
            self.engine, spec.market_id, i, d, odd, implied,
            implied - f[i - 1], self._fee_float * d,
            (m, *[x - m for x in r[1:]]), tb, f,
        )

    def buy(self, account: str, i: int, wager) -> BetRecord:
        ledger, pool, spec = self.ledger, self.pool, self.spec
        if ledger.phase is not Phase.OPEN:
            raise PhaseError("market is not open for betting")
        K = spec.k
        if not 1 <= i <= K:
            raise ValueError(f"unknown outcome {i} for a {K}-outcome market")
        d = amount(wager)
        if d < 0:
            raise ValueError("wager must be non-negative")
        if d == 0:
            return BetRecord(
                len(self.bets), spec.market_id, i, ZERO, ZERO, ZERO, ZERO,
                self.fair.of(i), 0.0, tuple(map(float, pool.r)),
            )
        fee = d * spec.fee_rate
        cost = d + fee
        if ledger.balance(account) < cost:
            raise InsufficientBalance(
                f"{account} cannot cover wager {d} plus fee {fee}"
            )
        fi = self.fair.of(i)
        c = pool.r[0]
        rw = [ZERO] + [x + c for x in pool.r[1:]]
        df = float(d)
        odd = d
        for j in range(1, K + 1):
            if j == i:
                continue
            # the product rule reads r_in before the bettor's d is added
            s = amount(cpmm_swap(df, float(rw[j]), float(rw[i])))
            rw[j] += d
            if s < 0 or s > rw[i]:
                raise UnfillableQuote(
                    f"wager {d} on outcome {i} would drain the pool"
                )
            rw[i] -= s
            odd += s
        m = min(rw[1:])
        rw = [m] + [x - m for x in rw[1:]]
        ledger.debit(account, COLLATERAL, cost)
        ledger.credit(account, i, odd)
        ledger.locked += d + c - m
        pool.r = rw
        pool.fee_accrued += fee
        post = tuple(map(float, rw))
        pool.seed_float_view(post, 0.0)
        implied = df / float(odd)
        record = BetRecord(
            len(self.bets), spec.market_id, i, d, fee, odd, ZERO,
            implied, implied - fi, post,
        )
        self.bets.append(record)
        return record

    def close_betting(self) -> None:
        self.ledger.close_betting()

    def resolve(self, caller: str, winner: int) -> None:
        self.ledger.resolve(caller, winner)

    def redeem(self, account: str) -> Decimal:
        return self.ledger.redeem(account)

    def redeem_pool(self) -> Decimal:
        if self.ledger.phase is not Phase.RESOLVED:
            raise PhaseError("market is not resolved")
        w = self.pool.r[self.ledger.winner]
        for k in self.spec.outcomes:
            self.pool.r[k] = ZERO
        self.pool.r[0] += w
        self.ledger.locked -= w
        return w

    def snapshot(self) -> str:
        items = dict(self.ledger.snapshot_items())
        items["engine"] = self.engine
        for k, v in enumerate(self.pool.r):
            items[f"pool/r{k}"] = str(v)
        items["pool/fee_accrued"] = str(self.pool.fee_accrued)
        for account, s in self.lp_shares.items():
            items[f"lp/{account}"] = str(s)
        return "\n".join(f"{k}={items[k]}" for k in sorted(items)) + "\n"
