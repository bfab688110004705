"""Command-line driver.

Subcommands::

    uamm-lab quote     --k 2 --probs 0.5,0.5 --funding 10000 --outcome 1 --wager 10
    uamm-lab simulate  --config run.cfg --mode single|multi|full|sweep [--out DIR]
    uamm-lab probe     [--continuity] [--properties]

``simulate`` writes fixed-schema CSVs into the output directory:

* ``bets.csv``      -- engine, market_id, bet_index, outcome, wager, odd,
  implied_price, slippage, fee, accepted, reject_reason (each row is one
  ``MarketResult.bet_log`` tuple; the four quote figures are empty for a bet
  unfillable at quote time)
* ``markets.csv``   -- engine, market_id, k, probs, winner, n_attempts,
  n_accepted, n_rejected, n_unfillable, volume, fee, eip, epp, tv_pnl,
  ev_final, overround_final, r_start, r_end (vectors ';'-joined)
* ``summary.csv``   -- one aggregate row (mode, seed + metrics columns)
* per-mode plot-data files (x/y columns ready for any external plotter)

``bets.csv`` is written as each market finishes, and the market's log is
then dropped, so memory holds one market's bet log at a time.  The rows go
to ``bets.csv.tmp``, which replaces ``bets.csv`` only when the run succeeds;
an error exit removes it, leaving no partial ``bets.csv`` (an earlier run's
file in the same directory stays as it was).

The ``UAMM_LAB_SEED`` environment variable overrides the configured seed.
Exit codes: 0 success, 1 usage/config error, 2 invariant violation (a
failed property probe), 3 unfillable quote (the ``quote`` wager would drain
the pool; an ``error:`` line says so).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import metrics, sim
from .fixedpoint import amount
from .probes import continuity_report, property_report
from .sim import ConfigError, SimConfig
from .uamm import FairPriceVector, UnfillableQuote

PROPERTY_TOLERANCE = 1e-9


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="uamm-lab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quote", help="price a single wager on a fresh market")
    q.add_argument("--k", type=int, required=True, help="number of outcomes")
    q.add_argument("--probs", required=True,
                   help="comma-separated fair outcome probabilities (sum to 1)")
    q.add_argument("--funding", type=float, required=True,
                   help="initial LP collateral")
    q.add_argument("--outcome", type=int, required=True,
                   help="outcome index to bet on (1-based)")
    q.add_argument("--wager", type=float, required=True)
    q.add_argument("--fee-rate", type=float, default=0.025)
    q.add_argument("--format", choices=("text", "csv"), default="text")

    s = sub.add_parser("simulate", help="run a seeded betting experiment")
    s.add_argument("--config", help="flat key=value config file")
    s.add_argument("--mode", choices=("single", "multi", "full", "sweep"),
                   default="multi")
    s.add_argument("--engine", choices=sim.ENGINES,
                   help="override the configured engine")
    s.add_argument("--seed", type=int, help="override the configured seed")
    s.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("probe", help="run engine property / continuity probes")
    p.add_argument("--continuity", action="store_true",
                   help="swap branch-boundary continuity grid (report only)")
    p.add_argument("--properties", action="store_true",
                   help="liquidity additivity/reversibility suite (asserted)")
    return parser


def _write_csv(path: Path, header, rows) -> None:
    """A header and rows of cells; ``csv`` writes a float as its ``repr``,
    ``None`` as an empty cell and anything else as its ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_quote(args) -> int:
    probs = tuple(float(x) for x in args.probs.split(","))
    if len(probs) != args.k:
        raise UsageError(f"--probs lists {len(probs)} values for --k {args.k}")
    FairPriceVector(probs)  # validates range and sum
    market = sim.build_market(
        "uamm", "quote", args.k, probs, args.funding, args.fee_rate,
    )
    quote = market.quote(args.outcome, amount(args.wager))
    if args.format == "csv":
        row = quote.csv_row()
        writer = csv.DictWriter(sys.stdout, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    else:
        print(f"outcome        {quote.outcome}")
        print(f"wager          {quote.wager}")
        print(f"odd            {quote.odd:.6f}")
        print(f"decimal odds   {quote.decimal_odds:.6f}")
        print(f"implied price  {quote.implied_price:.6f}")
        print(f"slippage       {quote.slippage:.6f}")
        print(f"fee            {quote.fee:.6f}")
    return 0


MARKETS_FIELDS = ("engine", "market_id", "k", "probs", "winner", "n_attempts",
                  "n_accepted", "n_rejected", "n_unfillable", "volume", "fee",
                  "eip", "epp", "tv_pnl", "ev_final", "overround_final",
                  "r_start", "r_end")
PLOT_MARKETS_FIELDS = ("market_index", "eip", "epp", "ev_final")


def _market_row(r, pnl) -> tuple:
    """One ``markets.csv`` row, in :data:`MARKETS_FIELDS` order; ``pnl`` is
    the market's :func:`metrics.market_pnl` tuple."""
    return (r.engine, r.market_id, r.k, ";".join(map(repr, r.fair)), r.winner,
            r.n_attempts, r.n_accepted, r.n_rejected, r.n_unfillable,
            str(r.volume), str(r.fee), *pnl,
            r.overround_final, ";".join(map(repr, r.r_start)),
            ";".join(map(repr, r.r_end)))


@contextmanager
def _bet_log(out: Path):
    """Stream ``bets.csv``: yields a function that writes one market's
    ``bet_log`` rows as soon as the market finishes.

    The rows go to the sibling file ``bets.csv.tmp``, which replaces
    ``bets.csv`` only when the block exits normally.  When it raises, the
    temporary file is removed, so a run that fails part-way leaves no
    partial ``bets.csv`` (a ``bets.csv`` from an earlier run stays as it
    was)."""
    path = out / "bets.csv"
    tmp = out / "bets.csv.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(sim.BETS_FIELDS)
            yield writer.writerows
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_run_outputs(out: Path, results, report, mode: str, seed: int) -> list[tuple]:
    """Write markets.csv and summary.csv; return the markets rows."""
    market_rows = list(map(_market_row, results, report.market_pnl))
    _write_csv(out / "markets.csv", MARKETS_FIELDS, market_rows)
    summary = {"mode": mode, "seed": seed, **report.csv_row()}
    _write_csv(out / "summary.csv", summary.keys(), [summary.values()])
    return market_rows


def cmd_simulate(args) -> int:
    cfg = sim.load_config(args.config) if args.config else SimConfig()
    if args.mode == "full" and not args.config:
        cfg = sim.full_config()
    overrides = {}
    if args.engine:
        overrides["engine"] = args.engine
    if args.seed is not None:
        overrides["seed"] = args.seed
    env_seed = os.environ.get("UAMM_LAB_SEED")
    if env_seed is not None:
        overrides["seed"] = int(env_seed)
    if overrides:
        cfg = sim.replace(cfg, **overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "single":
        with _bet_log(out) as write_bets:
            result = sim.run_single_market(cfg)
            write_bets(result.bet_log)
        report = metrics.summarize([result], cfg.engine)
        _write_run_outputs(out, [result], report, args.mode, cfg.seed)
        fields = (["step"] + [f"balance_{j}" for j in range(1, result.k + 1)]
                  + ["rejected_cum", "eip"])
        rows = [(t["step"], *t["balances"], t["rejected_cum"], t["eip"])
                for t in result.trajectory]
        _write_csv(out / "plot_single_market.csv", fields, rows)
    elif args.mode in ("multi", "full"):
        # sim.run_multi_market's list and report, with each market's bet log
        # written as the market finishes and then dropped: a run holds one
        # market's log at a time
        results = []
        with _bet_log(out) as write_bets:
            for m in range(cfg.n_markets):
                result = sim.simulate_one(cfg, m, keep_log=True)
                write_bets(result.bet_log)
                result.bet_log.clear()
                results.append(result)
        report = metrics.summarize(results, cfg.engine)
        market_rows = _write_run_outputs(out, results, report, args.mode, cfg.seed)
        columns = [MARKETS_FIELDS.index(f) for f in PLOT_MARKETS_FIELDS[1:]]
        rows = [(i, *(row[c] for c in columns)) for i, row in enumerate(market_rows)]
        _write_csv(out / "plot_markets.csv", PLOT_MARKETS_FIELDS, rows)
    else:  # sweep
        sweep = sim.run_prob_sweep(cfg)
        fields = ("prob", "side_mode", "eip_mean", "epp_mean", "epp_std",
                  "epp_se", "ev_mean", "epp_norm")
        _write_csv(out / "plot_prob_sweep.csv", fields,
                   [[r[f] for f in fields] for r in sweep.rows])
        _write_csv(out / "sweep_bands.csv",
                   ["side_mode", "epp_spread_band", "epp_spread_observed"],
                   [(m, b["epp_spread_band"], b["epp_spread_observed"])
                    for m, b in sweep.bands.items()])
        rej = sim.run_rejection_sweep(cfg)
        fields = ("threshold", "acceptance_rate", "eip_mean", "epp_mean", "volume")
        _write_csv(out / "plot_rejection_sweep.csv", fields,
                   [[r[f] for f in fields] for r in rej])
        for m, b in sweep.bands.items():
            print(f"sweep[{m}]: epp spread {b['epp_spread_observed']:.6g} "
                  f"(declared band {b['epp_spread_band']:.6g})")
        return 0
    row = report.csv_row()
    print(", ".join(f"{k}={row[k]}" for k in
                    ("engine", "n_markets", "total_bets", "volume",
                     "fee_revenue", "eip_mean", "epp_mean", "epp_plus_fee",
                     "rejection_rate")))
    return 0


def cmd_probe(args) -> int:
    run_all = not (args.continuity or args.properties)
    status = 0
    if args.properties or run_all:
        rep = property_report()
        print(f"liquidity properties over {rep.n_states} random states "
              f"(tolerance {PROPERTY_TOLERANCE:g} relative):")
        print(f"  add additivity      max rel err {rep.max_add_additivity:.3e}")
        print(f"  remove additivity   max rel err {rep.max_remove_additivity:.3e}")
        print(f"  add reversibility   max rel err {rep.max_add_reversibility:.3e}")
        print(f"  remove reversibility max rel err {rep.max_remove_reversibility:.3e}")
        if rep.max_error > PROPERTY_TOLERANCE:
            print("  FAIL: tolerance exceeded")
            status = 2
    if args.continuity or run_all:
        rep = continuity_report()
        print("swap branch-boundary continuity grid (report only):")
        for rho, d_in, gap in rep.rows:
            print(f"  rho={rho:<5g} d_in={d_in:<6g} boundary gap {gap:.6e}")
        print(f"  max gap {rep.max_gap:.6e} "
              "(nonzero for rho != 1 by construction of the printed formula)")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "quote":
            return cmd_quote(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_probe(args)
    except (UsageError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnfillableQuote as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
