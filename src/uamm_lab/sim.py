"""Seeded Monte-Carlo betting simulator.

Bettors arrive one at a time with a log-normal wager, pick a side (either
proportional to the true outcome probabilities or uniformly), get a quote,
and walk away if the quoted slippage exceeds a personal threshold drawn from
a normal distribution.  Markets are independent: market ``m`` of a run uses
the RNG substream ``default_rng([seed, m])``, so runs are reproducible
bet-for-bet and markets can be simulated in any order or in parallel.

Bettor draws never depend on the engine, so a fair-price run and a
constant-product run with the same config and seed consume identical wager /
side / threshold streams (paired comparison).

With ``keep_log=True`` a market keeps its bet log: one ``bets.csv`` row per
bet, a tuple in :data:`BETS_FIELDS` order (engine and market id included,
floats raw) that ``csv.writer`` writes as it is.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from decimal import Decimal

import numpy as np

from .baseline import CpmmMarket
from .fixedpoint import PRECISION, UNIT, ZERO, amount, to_micro
from .ledger import MarketSpec
from .metrics import MetricsReport, summarize
from .uamm import BetRecord, FairPriceVector, UammMarket, UnfillableQuote

LP = "lp"
BETTOR = "bettor"
ORACLE = "oracle"

#: Bet counts sampled from a log-normal are clamped to this range.
BET_COUNT_CLAMP = (1, 40)

CONFIG_KEYS = (
    "k", "funding", "probs", "n_bets", "n_markets", "wager_mu", "wager_sigma",
    "side_mode", "rej_mean", "rej_std", "fee_rate", "seed", "engine",
)

#: The columns of ``bets.csv``, and the order of each ``MarketResult.bet_log``
#: row.
BETS_FIELDS = ("engine", "market_id", "bet_index", "outcome", "wager", "odd",
               "implied_price", "slippage", "fee", "accepted", "reject_reason")

SIDE_MODES = ("true-prob", "uniform")
ENGINES = ("uamm", "cpmm")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Experiment hyperparameters; the seed fully determines every draw.

    ``k``, ``probs`` and ``n_bets`` accept either a fixed value or a
    per-market sampling rule: ``k`` a tuple of choices, ``probs`` the tuple
    ``("uniform", lo, hi)``, ``n_bets`` the tuple ``("lognormal", mu, sigma)``
    (log-space parameters, clamped to 1..40 bets).
    """

    k: int | tuple = 2
    funding: float = 10_000.0
    probs: tuple = (0.5, 0.5)
    n_bets: int | tuple = 1000
    n_markets: int = 100
    wager_mu: float = 3.2
    wager_sigma: float = 1.2
    side_mode: str = "true-prob"
    rej_mean: float = 0.045
    rej_std: float = 0.05
    fee_rate: float = 0.025
    seed: int = 0
    engine: str = "uamm"

    def __post_init__(self):
        if self.side_mode not in SIDE_MODES:
            raise ConfigError(f"side_mode must be one of {SIDE_MODES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}")
        if self.n_markets < 1:
            raise ConfigError("n_markets must be >= 1")
        for key in ("funding", "wager_mu", "wager_sigma", "rej_mean", "rej_std"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if self.funding <= 0:
            raise ConfigError("funding must be positive")
        if isinstance(self.n_bets, int) and self.n_bets < 0:
            raise ConfigError("n_bets must be >= 0")
        if not 0 <= self.fee_rate < 1:
            raise ConfigError("fee_rate must be in [0, 1)")
        if isinstance(self.probs, tuple) and self.probs and self.probs[0] != "uniform":
            FairPriceVector(self.probs)  # validates


#: Uncontrolled full-market experiment defaults: outcome count, probabilities
#: and bet count are all sampled per market.
FULL_DEFAULTS = dict(
    k=(2, 3),
    probs=("uniform", 0.2, 0.8),
    n_bets=("lognormal", 2.0, 1.0),
    n_markets=100,
    funding=10_000.0,
)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "k":
        parts = [int(x) for x in raw.split(",") if x.strip()]
        return parts[0] if len(parts) == 1 else tuple(parts)
    if key == "probs":
        if raw.startswith("uniform:"):
            lo, hi = (float(x) for x in raw[len("uniform:"):].split(","))
            return ("uniform", lo, hi)
        return tuple(float(x) for x in raw.split(","))
    if key == "n_bets":
        if raw.startswith("lognormal:"):
            mu, sigma = (float(x) for x in raw[len("lognormal:"):].split(","))
            return ("lognormal", mu, sigma)
        return int(raw)
    if key in ("n_markets", "seed"):
        return int(raw)
    if key in ("funding", "wager_mu", "wager_sigma", "rej_mean", "rej_std", "fee_rate"):
        return float(raw)
    return raw  # side_mode, engine


def config_from_dict(d: dict) -> SimConfig:
    unknown = sorted(set(d) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return SimConfig(**d)


def load_config(path) -> SimConfig:
    """Read a flat ``key=value`` config file ('#' starts a comment)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    return config_from_dict(values)


# -- bettor behaviour ---------------------------------------------------------


def _draw_streams(rng, cfg: SimConfig, fair: FairPriceVector,
                  n: int) -> list[tuple[float, int, float]]:
    """``n`` bettors as ``(wager, side, threshold)`` tuples.

    A true-probability side inverts ``fair.cdf`` at one uniform per bettor:
    the stream and the values of ``rng.choice(range(1, k + 1), size=n,
    p=fair.probs)``, without re-validating and re-summing ``p`` per call.
    """
    wagers = np.exp(rng.normal(cfg.wager_mu, cfg.wager_sigma, n)) if cfg.wager_sigma > 0 \
        else np.full(n, math.exp(cfg.wager_mu))
    wagers = np.maximum(np.round(wagers, 2), 0.01)
    if cfg.side_mode == "uniform":
        sides = rng.integers(1, len(fair) + 1, n)
    else:
        sides = fair.cdf.searchsorted(rng.random(n), side="right") + 1
    thresholds = rng.normal(cfg.rej_mean, cfg.rej_std, n)
    return list(zip(wagers.tolist(), sides.tolist(), thresholds.tolist()))


def _draw_winner(rng, fair: FairPriceVector) -> int:
    """The outcome the oracle resolves to, drawn at the fair prices: the
    stream and the value of ``rng.choice(range(1, k + 1), p=fair.probs)``."""
    return bisect_right(fair.cdf, rng.random()) + 1


def _sample_market_params(rng, cfg: SimConfig):
    k = cfg.k
    if isinstance(k, tuple):
        # the stream and the value of rng.choice(k)
        k = int(k[rng.integers(0, len(k), dtype=np.int64)])
    probs = cfg.probs
    if isinstance(probs, tuple) and probs and probs[0] == "uniform":
        _, lo, hi = probs
        if k == 2:
            p = float(rng.uniform(lo, hi))
            probs = (p, 1.0 - p)
        else:
            v = rng.uniform(lo, hi, k)
            probs = tuple(float(x) for x in v / v.sum())
    n = cfg.n_bets
    if isinstance(n, tuple) and n and n[0] == "lognormal":
        _, mu, sigma = n
        n = int(round(math.exp(rng.normal(mu, sigma))))
        n = min(max(n, BET_COUNT_CLAMP[0]), BET_COUNT_CLAMP[1])
    return k, probs, n


# -- market execution ---------------------------------------------------------


@dataclass
class MarketResult:
    """Everything a finished market contributes to the metrics.

    ``bet_log`` (kept with ``keep_log=True``) holds one ``bets.csv`` row per
    bet, a tuple in :data:`BETS_FIELDS` order: the wager and the quote's
    odd, implied price, slippage and fee are raw floats (``csv`` writes a
    float as its ``repr``), and a bet unfillable at quote time has ``None``
    (an empty cell) for the four quote figures.
    """

    market_id: str
    engine: str
    k: int
    fair: tuple[float, ...]
    funding: float
    r_start: tuple[float, ...]
    r_end: tuple[float, ...]
    winner: int
    n_attempts: int
    n_accepted: int
    n_rejected: int
    n_unfillable: int
    volume: Decimal
    fee: Decimal
    overround_final: float
    records: list[BetRecord] = field(default_factory=list)
    bet_log: list[tuple] = field(default_factory=list)
    trajectory: list[dict] = field(default_factory=list)


def build_market(engine: str, market_id: str, k: int, probs, funding, fee_rate):
    spec = MarketSpec(
        market_id=market_id, k=k,
        fee_rate=Decimal(str(fee_rate)), oracle_id=ORACLE,
    )
    cls = UammMarket if engine == "uamm" else CpmmMarket
    # a FairPriceVector passes through as is: normalizing it again can move a
    # probability by one ulp away from the vector the bettors were drawn from
    market = cls(spec, probs)
    funding = amount(funding)
    market.deposit(LP, funding)
    market.add_liquidity(LP, funding)
    return market


def _overround(market) -> float:
    total = 0.0
    for i in market.spec.outcomes:
        try:
            total += market.quote(i, 1e-4).implied_price
        except UnfillableQuote:
            total += 1.0  # fully drained leg prices at the cap
    return total - 1.0


def run_market(
    market,
    draws: list[tuple[float, int, float]],
    winner: int,
    *,
    funding: float | None = None,
    keep_records: bool = True,
    keep_log: bool = False,
    trajectory: bool = False,
) -> MarketResult:
    """Stream ``(wager, side, threshold)`` draws through quote -> rejection
    -> buy and settle."""
    fair = market.fair.probs
    r_start = tuple([x / UNIT for x in market.pool.r_micro])
    volume = ZERO
    fee = ZERO
    accepted = rejected = unfillable = 0
    log: list[tuple] = []
    traj: list[dict] = []
    engine, market_id = market.engine, market.spec.market_id

    def log_row(idx, side, w, quote, accepted, reason):
        if quote is None:
            log.append((engine, market_id, idx, side, w, None, None, None, None,
                        accepted, reason))
        else:
            log.append((engine, market_id, idx, side, w, quote.odd,
                        quote.implied_price, quote.slippage, quote.fee,
                        accepted, reason))

    quote_bet, buy, deposit = market.quote, market.buy, market.ledger.deposit
    fee_rate = market.spec.fee_rate
    for idx, (w, side, threshold) in enumerate(draws):
        # the draw's one rounding to the grid; quote and buy take it as the
        # float n / UNIT, which rounds back to exactly n
        n = to_micro(w)
        wager = n / UNIT
        try:
            quote = quote_bet(side, wager)
        except UnfillableQuote:
            unfillable += 1
            if keep_log:
                log_row(idx, side, w, None, 0, "unfillable")
        else:
            if quote.slippage > threshold:
                rejected += 1
                if keep_log:
                    log_row(idx, side, w, quote, 0, "threshold")
            else:
                stake = PRECISION * n
                deposit(BETTOR, stake + stake * fee_rate)
                try:
                    record = buy(BETTOR, side, wager)
                except UnfillableQuote:
                    # fixed-point execution can hit the pool edge the float
                    # quote just cleared
                    unfillable += 1
                    if keep_log:
                        log_row(idx, side, w, quote, 0, "unfillable")
                else:
                    accepted += 1
                    volume += record.wager
                    fee += record.fee
                    if keep_log:
                        log_row(idx, side, w, quote, 1, "")
        if trajectory:
            r = [x / UNIT for x in market.pool.r_micro]
            traj.append({
                "step": idx,
                "balances": tuple(r[0] + r[k] for k in range(1, len(r))),
                "rejected_cum": rejected + unfillable,
                "eip": math.fsum(
                    f * (r[k + 1] - r_start[k + 1]) for k, f in enumerate(fair)
                ),
            })

    overround = _overround(market)
    r_end = tuple([x / UNIT for x in market.pool.r_micro])
    market.close_betting()
    market.resolve(ORACLE, winner)
    return MarketResult(
        market_id=market_id,
        engine=engine,
        k=market.spec.k,
        fair=fair,
        funding=float(sum(market.lp_shares.values())) if funding is None else funding,
        r_start=r_start,
        r_end=r_end,
        winner=winner,
        n_attempts=len(draws),
        n_accepted=accepted,
        n_rejected=rejected,
        n_unfillable=unfillable,
        volume=volume,
        fee=fee,
        overround_final=overround,
        records=list(market.bets) if keep_records else [],
        bet_log=log,
        trajectory=traj,
    )


def simulate_one(cfg: SimConfig, index: int, **run_opts) -> MarketResult:
    """Simulate market ``index`` of a run on its own RNG substream."""
    rng = np.random.default_rng([cfg.seed, index])
    k, probs, n = _sample_market_params(rng, cfg)
    fair = FairPriceVector(probs)
    draws = _draw_streams(rng, cfg, fair, n)
    winner = _draw_winner(rng, fair)
    market = build_market(
        cfg.engine, f"m{index:05d}", k, fair, cfg.funding, cfg.fee_rate,
    )
    return run_market(market, draws, winner, funding=cfg.funding, **run_opts)


def run_single_market(cfg: SimConfig, index: int = 0, **run_opts) -> MarketResult:
    """One market with its full per-step trajectory recorded."""
    run_opts.setdefault("trajectory", True)
    run_opts.setdefault("keep_log", True)
    return simulate_one(cfg, index, **run_opts)


def run_multi_market(cfg: SimConfig, **run_opts) -> tuple[list[MarketResult], MetricsReport]:
    """``n_markets`` independent markets, aggregated into a report."""
    results = [simulate_one(cfg, m, **run_opts) for m in range(cfg.n_markets)]
    return results, summarize(results, cfg.engine)


def full_config(**overrides) -> SimConfig:
    """Config for the uncontrolled experiment: outcome count, probabilities
    and bet count sampled per market unless explicitly overridden."""
    values = dict(FULL_DEFAULTS)
    values.update(overrides)
    return config_from_dict(values)


# -- sweep experiments ----------------------------------------------------------

PROB_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
REJECTION_GRID = (0.025, 0.035, 0.045, 0.065, 1.0)

#: Funding-normalized width of the flatness envelope a probability sweep
#: declares for its permanent-PnL curve, in units of the mean standard error
#: across the grid (a +-8 SE band).  The curve shows a mild smile (edge
#: probabilities profit slightly more because underdog bets move larger
#: token amounts), so the declared envelope is wider than pure sampling
#: noise; observed spreads run 3 to 6 SE at 100 markets per grid point.
EPP_BAND_SE_MULTIPLE = 16.0


@dataclass
class SweepReport:
    """Probability-sweep output: one row per (prob, side_mode) grid point,
    plus the flatness envelope each side mode declares for its curve."""

    rows: list[dict]
    bands: dict[str, dict]

    def rows_for(self, side_mode: str) -> list[dict]:
        return [r for r in self.rows if r["side_mode"] == side_mode]


def run_prob_sweep(
    cfg: SimConfig,
    probs_grid=PROB_GRID,
    side_modes=SIDE_MODES,
    **run_opts,
) -> SweepReport:
    """Multi-market runs across a grid of true first-outcome probabilities,
    for two-outcome markets, under both bet-side models."""
    rows = []
    bands = {}
    for mode in side_modes:
        for p in probs_grid:
            sub = replace(cfg, k=2, probs=(p, 1.0 - p), side_mode=mode)
            _, report = run_multi_market(sub, **run_opts)
            se = report.epp_std / math.sqrt(report.n_markets)
            rows.append({
                "prob": p,
                "side_mode": mode,
                "eip_mean": report.eip_mean,
                "epp_mean": report.epp_mean,
                "epp_std": report.epp_std,
                "epp_se": se,
                "ev_mean": report.ev_mean,
                "epp_norm": report.epp_mean / cfg.funding,
            })
        mode_rows = [r for r in rows if r["side_mode"] == mode]
        norms = [r["epp_norm"] for r in mode_rows]
        band = EPP_BAND_SE_MULTIPLE * (
            sum(r["epp_se"] for r in mode_rows) / len(mode_rows)
        ) / cfg.funding
        bands[mode] = {
            "epp_spread_band": band,
            "epp_spread_observed": max(norms) - min(norms),
        }
    return SweepReport(rows, bands)


def run_rejection_sweep(
    cfg: SimConfig,
    thresholds=REJECTION_GRID,
    **run_opts,
) -> list[dict]:
    """Multi-market runs with a fixed odds-rejection threshold per point."""
    rows = []
    for t in thresholds:
        sub = replace(cfg, rej_mean=t, rej_std=0.0)
        _, report = run_multi_market(sub, **run_opts)
        rows.append({
            "threshold": t,
            "acceptance_rate": 1.0 - report.rejection_rate,
            "eip_mean": report.eip_mean,
            "epp_mean": report.epp_mean,
            "volume": str(report.volume),
        })
    return rows
