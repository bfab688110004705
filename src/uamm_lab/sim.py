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

Wagers are drawn in whole cents, which lie on the ledger's micro-unit grid,
so a wager is quoted as drawn and crosses into int micro-units once, when
its bet executes (see :func:`run_market`).

With ``keep_log=True`` a market keeps its bet log: one ``bets.csv`` row per
bet, a tuple in :data:`BETS_FIELDS` order (engine and market id included,
floats raw) that ``csv.writer`` writes as it is, and the CLI writes as the
same text from a row template (:data:`uamm_lab.cli.BETS_ROW`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal

import numpy as np

from .baseline import CpmmMarket
# build_market rounds its funding as ``amount`` does, without calling it; the
# name stays here, where perfbench's tracer tests find it
from .fixedpoint import PRECISION, UNIT, amount, mul_exact, to_micro  # noqa: F401
from .ledger import ORACLE, MarketSpec, fee_rate_decimal
from .market import FairPriceVector, UnfillableQuote
from .metrics import MetricsReport, summarize
from .uamm import UammMarket

LP = "lp"
BETTOR = "bettor"

#: Bet counts sampled from a log-normal are clamped to this range.
BET_COUNT_CLAMP = (1, 40)
#: The largest outcome count a config may choose: a market's leg plan holds
#: K * (K - 1) entries, so its set-up grows as K squared.
MAX_OUTCOMES = 256
#: A log-space bet count above this rounds above the clamp's upper end.
_LOG_COUNT_CAP = math.log(BET_COUNT_CLAMP[1] + 1)

#: The columns of ``bets.csv``, and the order of each ``MarketResult.bet_log``
#: row.
BETS_FIELDS = ("engine", "market_id", "bet_index", "outcome", "wager", "odd",
               "implied_price", "slippage", "fee", "accepted", "reject_reason")

SIDE_MODES = ("true-prob", "uniform")
#: Each engine's market class, by the class's ``engine`` name.
ENGINE_CLASSES = {cls.engine: cls for cls in (UammMarket, CpmmMarket)}
ENGINES = tuple(ENGINE_CLASSES)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Experiment hyperparameters; the seed fully determines every draw.

    ``k``, ``probs`` and ``n_bets`` accept either a fixed value or a
    per-market sampling rule: ``k`` a tuple of choices, ``probs`` the tuple
    ``("uniform", lo, hi)``, ``n_bets`` the tuple ``("lognormal", mu, sigma)``
    (log-space parameters, clamped to 1..40 bets).  ``n_markets``, ``seed``,
    a fixed ``n_bets`` and each ``k`` choice are integers (numpy ints too, a
    bool not), each ``k`` choice lies in [2, :data:`MAX_OUTCOMES`], a fixed
    ``probs`` has one probability per outcome, and ``fee_rate`` is checked by
    :func:`uamm_lab.ledger.fee_rate_decimal`, the rule every market's spec
    applies.  Each refused value raises :class:`ConfigError`.
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
        n = self.n_bets
        lognormal = isinstance(n, tuple) and n[:1] == ("lognormal",)
        choices = self.k if isinstance(self.k, tuple) else (self.k,)
        counts = ["n_markets", "seed"] + ([] if lognormal else ["n_bets"])
        for key, v in [(key, getattr(self, key)) for key in counts] + [("k", k) for k in choices]:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {v!r}")
        if self.n_markets < 1:
            raise ConfigError("n_markets must be >= 1")
        for key in ("funding", "wager_mu", "wager_sigma", "rej_mean", "rej_std"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        # the funding the LP deposits, on the ledger's grid: checked here,
        # before the CLI makes its output directory or any market is built
        try:
            funded = to_micro(self.funding) > 0
        except ValueError as exc:
            raise ConfigError(f"funding: {exc}") from None
        if not funded:
            raise ConfigError(f"funding must be positive on the 6-decimal grid, "
                              f"got {self.funding!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        for key in ("wager_sigma", "rej_std"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        if not choices or not all(2 <= k <= MAX_OUTCOMES for k in choices):
            raise ConfigError(f"k must be an outcome count in [2, {MAX_OUTCOMES}], or a "
                              f"tuple of them, got {self.k!r}")
        if lognormal:
            if not (len(n) == 3 and math.isfinite(n[1]) and math.isfinite(n[2])
                    and n[2] >= 0):
                raise ConfigError("n_bets ('lognormal', mu, sigma) needs a finite "
                                  f"mu and a finite sigma >= 0, got {n!r}")
        elif n < 0:
            raise ConfigError("n_bets must be >= 0")
        try:
            # read as the float it is typed as (a bool reads as 1.0, refused)
            fee_rate_decimal(float(self.fee_rate))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        probs = self.probs
        if isinstance(probs, tuple) and probs and probs[0] == "uniform":
            if not (len(probs) == 3 and 0 < probs[1] <= probs[2] < 1):
                raise ConfigError("probs ('uniform', lo, hi) needs 0 < lo <= hi < 1, "
                                  f"got {probs!r}")
        elif isinstance(probs, tuple) and probs:
            # the count first: a long probs line is refused before its
            # quadratic leg plan is built
            if any(k != len(probs) for k in choices):
                raise ConfigError(f"k must equal the number of fixed probs "
                                  f"({len(probs)}), got {self.k!r}")
            FairPriceVector(probs)  # validates


#: The config keys, in :class:`SimConfig` field order, each with the type of
#: its default: the type a config file's scalar value is read as.
_KEY_TYPES = {f.name: type(f.default) for f in fields(SimConfig)}


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
    return _KEY_TYPES[key](raw)


def load_config(path) -> SimConfig:
    """Read a flat ``key=value`` config file ('#' starts a comment).  An
    unknown key, a bad value and a key given twice each raise
    :class:`ConfigError` naming the file and the line; this is the one place
    config keys are checked."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                value = _parse_value(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad {key} value {raw!r}: {exc}") from None
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return SimConfig(**values)


# -- bettor behaviour ---------------------------------------------------------


def _draw_streams(rng, cfg: SimConfig, fair: FairPriceVector,
                  n: int) -> list[tuple[float, int, float]]:
    """``n`` bettors as ``(wager, side, threshold)`` tuples.

    Wagers are whole cents, at least one, and lie on the micro-unit grid:
    every finite cent-rounded float below 1e22 has ``to_micro(w) / UNIT ==
    w`` (and ``to_micro(w) == 10_000 * cents`` below 2**33), so
    :func:`run_market` can quote them as they are.  A non-finite wager, or
    one of 1e22 or more, raises ``ValueError``.

    A true-probability side inverts ``fair.cdf`` at one uniform per bettor:
    the stream and the values of ``rng.choice(range(1, k + 1), size=n,
    p=fair.probs)``, without re-validating and re-summing ``p`` per call.
    Each stream is drawn as one array, rounded and shifted in place, and
    read back as a list once.
    """
    if cfg.wager_sigma > 0:
        wagers = rng.normal(cfg.wager_mu, cfg.wager_sigma, n)
        np.exp(wagers, out=wagers)
    else:
        try:
            wagers = np.full(n, math.exp(cfg.wager_mu))
        except OverflowError:  # inf, as np.exp gives it, and rejected below
            wagers = np.full(n, math.inf)
    wagers.round(2, out=wagers)
    np.maximum(wagers, 0.01, out=wagers)
    wagers = wagers.tolist()
    if not sum(wagers) < 2.0 ** 33:
        # Below 2**33 a cent-rounded float is within half an ulp (under half a
        # micro-unit) of its whole-cent value; from 2**33 up floats are spaced
        # more than a micro-unit apart.  Either way a finite draw below 1e22
        # lies on the grid already, so only inf and 1e22 or more are left for
        # to_micro to reject, before any bet is made.  Every wager is
        # positive, so the sum reaches 2**33 when any wager does, and is NaN
        # or inf when any wager is.
        for w in wagers:
            to_micro(w)
    if cfg.side_mode == "uniform":
        sides = rng.integers(1, len(fair) + 1, n)
    else:
        sides = np.array(fair.cdf).searchsorted(rng.random(n), side="right")
        sides += 1
    thresholds = rng.normal(cfg.rej_mean, cfg.rej_std, n)
    return list(zip(wagers, sides.tolist(), thresholds.tolist()))


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
            v /= v.sum()
            probs = tuple(v.tolist())
    n = cfg.n_bets
    if isinstance(n, tuple) and n and n[0] == "lognormal":
        _, mu, sigma = n
        # any draw above the cap's log clamps to the cap, so a large one is
        # capped before exp can overflow (the same count, for any draw)
        n = int(round(math.exp(min(rng.normal(mu, sigma), _LOG_COUNT_CAP))))
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
    (an empty cell) for the four quote figures.  ``trajectory``, one dict
    per draw, is filled only by :func:`run_single_market`.
    """

    market_id: str
    engine: str
    k: int
    fair: tuple[float, ...]
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
    bet_log: list[tuple] = field(default_factory=list)
    trajectory: list[dict] = field(default_factory=list)


def build_market(engine: str, market_id: str, k: int, probs, funding, fee_rate):
    """A market of ``engine`` (a key of :data:`ENGINE_CLASSES`; any other
    name raises ``ValueError``) whose LP deposits ``funding`` collateral,
    rounded half-even to the grid, and adds it all as liquidity: the books
    of ``market.deposit(LP, amount(funding))`` then
    ``market.add_liquidity(LP, amount(funding))``, with the funding turned
    into micro-units once."""
    if engine not in ENGINE_CLASSES:
        raise ValueError(f"engine must be one of {ENGINES}")
    spec = MarketSpec(market_id=market_id, k=k, fee_rate=fee_rate)
    # a FairPriceVector passes through as is: normalizing it again can move a
    # probability by one ulp away from the vector the bettors were drawn from
    market = ENGINE_CLASSES[engine](spec, probs)
    n = to_micro(funding)
    market.ledger.deposit_micro(LP, n)
    market.add_liquidity_micro(LP, n)
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
    keep_log: bool = False,
) -> MarketResult:
    """Stream ``(wager, side, threshold)`` draws through quote -> rejection
    -> buy and settle.

    A wager crosses into micro-units once, when its bet executes: it is
    quoted as given, and an accepted bet is one public
    ``market.buy(BETTOR, side, wager, fund=True)``, which rounds the wager
    half-even to the grid, as :meth:`~uamm_lab.market.Market.quote` and
    :meth:`~uamm_lab.market.Market.buy` treat any caller, computes its fee
    once and funds the bettor with exactly that cost before it executes.  A
    bet that proves unfillable at the buy leaves the bettor holding the
    deposit.  :func:`_draw_streams` draws only wagers on the grid, so a
    simulated bet is quoted at exactly what it executes; an off-grid wager
    handed straight to this function is quoted unrounded and executed
    rounded (its bet-log row shows it as given).  Each executed bet's
    record stays in ``market.bets``: the volume sums its ``wager_micro``,
    and its ``post_r`` is the pool after that draw
    (:func:`run_single_market` rebuilds the trajectory from them).

    The result's ``fee`` is what the pool's int fee book
    (``pool.fee_micro``) gained over the run, the exact sum of the run's
    record fees.  This is the one place that decides its text: when the sum
    equals ``fee_rate * volume`` exactly, as it does whenever every fee was
    exact (any whole-cent wager at a 0.025 rate), it reads as that product,
    at the fee rate's exponent less 6 (``7.711000000``); otherwise, and for
    a run with no volume, it reads to 6 places.
    """
    pool = market.pool
    r_start = tuple([x / UNIT for x in pool.r_micro])
    fee_start = pool.fee_micro
    volume = 0  # micro-units
    accepted = rejected = unfillable = 0
    log: list[tuple] = []
    engine, market_id = market.engine, market.spec.market_id
    quote_bet, buy = market.quote, market.buy
    for idx, (w, side, threshold) in enumerate(draws):
        quote = None
        try:
            quote = quote_bet(side, w)
            if quote.slippage > threshold:
                rejected += 1
                reason = "threshold"
            else:
                volume += buy(BETTOR, side, w, fund=True).wager_micro
                accepted += 1
                reason = ""
        except UnfillableQuote:
            # at the quote (``quote`` is still None), or at the buy: fixed-point
            # execution can hit the pool edge the float quote just cleared
            unfillable += 1
            reason = "unfillable"
        if keep_log:
            # the quote's odd, implied price, slippage and fee: empty cells
            # for a bet unfillable at its quote
            cells = (None,) * 4 if quote is None else quote[2:]
            log.append((engine, market_id, idx, side, w, *cells,
                        0 if reason else 1, reason))

    overround = _overround(market)
    r_end = tuple([x / UNIT for x in pool.r_micro])
    volume = mul_exact(PRECISION, volume)
    fee = mul_exact(PRECISION, pool.fee_micro - fee_start)
    if volume and fee == (exact := mul_exact(market.spec.fee_rate, volume)):
        fee = exact
    market.close_betting()
    market.resolve(ORACLE, winner)
    return MarketResult(
        market_id=market_id,
        engine=engine,
        k=market.spec.k,
        fair=market.fair.probs,
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
        bet_log=log,
    )


def seeded_market(cfg: SimConfig, index: int):
    """Market ``index`` of a run, funded and not yet traded, with its bettor
    draws and winner: ``(market, draws, winner)``, all from the market's own
    RNG substream."""
    rng = np.random.default_rng([cfg.seed, index])
    k, probs, n = _sample_market_params(rng, cfg)
    fair = FairPriceVector(probs)
    draws = _draw_streams(rng, cfg, fair, n)
    winner = _draw_winner(rng, fair)
    market = build_market(
        cfg.engine, f"m{index:05d}", k, fair, cfg.funding, cfg.fee_rate,
    )
    return market, draws, winner


def simulate_one(cfg: SimConfig, index: int, keep_log: bool = False) -> MarketResult:
    """Simulate market ``index`` of a run on its own RNG substream
    (``keep_log`` as for :func:`run_market`)."""
    return run_market(*seeded_market(cfg, index), keep_log=keep_log)


def run_single_market(cfg: SimConfig) -> MarketResult:
    """Market 0 with its bet log and its per-step trajectory.

    The trajectory is rebuilt after the run, one step per draw: a draw
    whose log row is accepted moved the pool to its record's ``post_r``
    (the floats of ``pool.r_micro`` after the bet, in ``market.bets``
    order), and any other draw left it where it was.  ``balances`` are the
    combined outcome reserves ``r0 + rk``, ``rejected_cum`` counts the
    draws not accepted so far, and ``eip`` is the fair-priced change of the
    outcome reserves since the start."""
    market, draws, winner = seeded_market(cfg, 0)
    result = run_market(market, draws, winner, keep_log=True)
    fair, r_start = result.fair, result.r_start
    r, executed, rejected = r_start, iter(market.bets), 0
    for _, _, step, *_, accepted, _ in result.bet_log:
        if accepted:
            r = next(executed).post_r
        else:
            rejected += 1
        result.trajectory.append({
            "step": step,
            "balances": tuple(r[0] + r[k] for k in range(1, len(r))),
            "rejected_cum": rejected,
            "eip": math.fsum(
                f * (r[k + 1] - r_start[k + 1]) for k, f in enumerate(fair)
            ),
        })
    return result


def iter_markets(cfg: SimConfig, keep_log: bool = False):
    """The run's ``n_markets`` markets, simulated one at a time and yielded
    in index order as each finishes (``keep_log`` as for :func:`run_market`).

    This is the one loop over a run's markets: :func:`run_multi_market`,
    the sweeps and the CLI consume it, and each can drop a result before
    the next market runs.  It calls :func:`simulate_one` through this
    module's namespace, so a replacement put there takes effect."""
    for m in range(cfg.n_markets):
        yield simulate_one(cfg, m, keep_log=keep_log)


def run_multi_market(cfg: SimConfig) -> tuple[list[MarketResult], MetricsReport]:
    """``n_markets`` independent markets, aggregated into a report."""
    results = list(iter_markets(cfg))
    return results, summarize(results, cfg.engine)


def full_config(**overrides) -> SimConfig:
    """Config for the uncontrolled experiment: outcome count, probabilities
    and bet count sampled per market unless explicitly overridden.  The
    overrides are :class:`SimConfig` fields; any other keyword raises the
    dataclass's ``TypeError``."""
    return SimConfig(**{**FULL_DEFAULTS, **overrides})


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


def run_prob_sweep(cfg: SimConfig) -> SweepReport:
    """Multi-market runs across :data:`PROB_GRID`, the true first-outcome
    probabilities of two-outcome markets, under both bet-side models."""
    rows = []
    bands = {}
    for mode in SIDE_MODES:
        for p in PROB_GRID:
            sub = replace(cfg, k=2, probs=(p, 1.0 - p), side_mode=mode)
            report = summarize(iter_markets(sub), cfg.engine)
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


def run_rejection_sweep(cfg: SimConfig) -> list[dict]:
    """Multi-market runs with a fixed odds-rejection threshold per point of
    :data:`REJECTION_GRID`."""
    rows = []
    for t in REJECTION_GRID:
        sub = replace(cfg, rej_mean=t, rej_std=0.0)
        report = summarize(iter_markets(sub), cfg.engine)
        rows.append({
            "threshold": t,
            "acceptance_rate": 1.0 - report.rejection_rate,
            "eip_mean": report.eip_mean,
            "epp_mean": report.epp_mean,
            "volume": format(report.volume, "f"),
        })
    return rows
