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

Every CSV is streamed.  Each market's ``bets.csv`` and ``markets.csv`` rows
(and in ``multi`` and ``full`` its ``plot_markets.csv`` row) are written as
soon as the market finishes (:func:`uamm_lab.sim.iter_markets`), and the
market is then dropped; ``summary.csv`` is written from the one-pass fold
(:class:`uamm_lab.metrics.MetricsFold`), which keeps a few floats per
market.  So a run holds one market at a time, and its memory stays flat as
the market count grows.  Each file's rows go to ``<name>.tmp``, which
replaces the file only when the run succeeds; an error exit removes it,
leaving no partial file (an earlier run's files in the same directory stay
as they were).

Those three per-market files are written as text, one write per file per
market, from ``%`` templates (:data:`BETS_ROW`, :data:`MARKETS_ROW`,
:data:`PLOT_MARKETS_ROW`) that give exactly what ``csv.writer`` writes for
the same row in its default dialect.  They need no quoting: no field of
theirs can hold a comma, a quote or a line break (the comment beside the
templates says why).  Headers, ``summary.csv``, the sweep files and
``plot_single_market.csv`` go through ``csv.writer``.

The ``UAMM_LAB_SEED`` environment variable overrides the configured seed.
Exit codes: 0 success, 1 usage or config error, 2 invariant violation (a
failed property probe), 3 unfillable quote (the ``quote`` wager would drain
the pool); every non-zero exit writes an ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import metrics, sim
from .fixedpoint import amount
from .ledger import InvariantViolation
from .market import UnfillableQuote
from .probes import continuity_report, property_report
from .sim import ConfigError, SimConfig

PROPERTY_TOLERANCE = 1e-9


class UsageError(Exception):
    pass


#: The exit code of each error a command raises, the one exit policy:
#: :func:`main` writes an ``error:`` line for a raised error of one of these
#: classes (a subclass included, such as :class:`~uamm_lab.sim.ConfigError`,
#: a ``ValueError``) and returns the code of the first class that matches.
#: A command that returns exits 0.
EXIT_CODES = {UsageError: 1, ValueError: 1, OSError: 1, InvariantViolation: 2,
              UnfillableQuote: 3}


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


@contextmanager
def _csv_file(path: Path, header):
    """Stream a CSV: yields the open text file, once ``csv.writer`` has
    written ``header`` to it.

    The caller writes its rows either through a ``csv.writer`` of the file
    (:func:`_write_csv`) or as text made by a row template (the per-market
    files, see :data:`BETS_ROW`), whose fields never hold a comma, a quote
    or a line break and so need no quoting; like ``csv``'s default dialect
    it ends each row with ``\r\n``, and writes a float as its ``repr``,
    ``None`` as an empty cell and anything else as its ``str``.

    The rows go to the sibling file ``<name>.tmp``, which replaces ``path``
    only when the block exits normally.  When it raises, the temporary file
    is removed, so a run that fails part-way leaves no partial file (one
    from an earlier run stays as it was)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header, rows) -> None:
    with _csv_file(path, header) as fh:
        csv.writer(fh).writerows(rows)


def _write_dicts(path: Path, rows: list[dict]) -> None:
    """Write dict rows that share their keys; the keys are the header."""
    _write_csv(path, rows[0].keys(), [r.values() for r in rows])


def cmd_quote(args) -> None:
    probs = tuple(float(x) for x in args.probs.split(","))
    market = sim.build_market(
        "uamm", "quote", args.k, probs, args.funding, args.fee_rate,
    )
    quote = market.quote(args.outcome, amount(args.wager))
    if args.format == "csv":
        # the quote carries no market identity: the market owns it
        row = {"engine": market.engine, "market_id": market.spec.market_id,
               **quote._asdict()}
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


MARKETS_FIELDS = ("engine", "market_id", "k", "probs", "winner", "n_attempts",
                  "n_accepted", "n_rejected", "n_unfillable", "volume", "fee",
                  "eip", "epp", "tv_pnl", "ev_final", "overround_final",
                  "r_start", "r_end")
PLOT_MARKETS_FIELDS = ("market_index", "eip", "epp", "ev_final")

# The row templates of the per-market files: csv's default dialect (a ","
# between fields, "\r\n" at the end) with a float as its repr (%r), None
# as an empty cell and anything else as its str (%s).  No field can need
# quoting (a ",", a '"' or a line break): the engine is one of sim.ENGINES,
# market ids are m%05d, reasons are "", "threshold" or "unfillable",
# Decimal totals are in fixed point, vectors are ";"-joined float reprs and
# every other field is an int or a float.
#: A ``bets.csv`` row, a ``MarketResult.bet_log`` tuple.
BETS_ROW = "%s,%s,%s,%s,%r,%r,%r,%r,%r,%s,%s\r\n"
#: A ``bets.csv`` row of a bet unfillable at its quote, whose four quote
#: cells (``None``) are empty: the log tuple without them.
BETS_ROW_UNQUOTED = "%s,%s,%s,%s,%r,,,,,%s,%s\r\n"
#: A ``markets.csv`` row, in :data:`MARKETS_FIELDS` order; the four PnL
#: figures come as their reprs (see :func:`_market_text`).
MARKETS_ROW = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%r,%s,%s\r\n"
#: A ``plot_markets.csv`` row: the market's index and the reprs of its
#: ``eip``, ``epp`` and ``ev_final``.
PLOT_MARKETS_ROW = "%s,%s,%s,%s\r\n"


def _bets_text(log) -> str:
    """One market's ``bets.csv`` rows, as text."""
    return "".join([BETS_ROW % row if row[5] is not None else
                    BETS_ROW_UNQUOTED % (*row[:5], *row[9:]) for row in log])


def _market_text(r, pnl) -> str:
    """One ``markets.csv`` row, as text; ``pnl`` is the reprs of the
    market's :func:`metrics.market_pnl` tuple.  The volume and fee are
    written in fixed-point notation, as ``summary.csv``'s totals are."""
    return MARKETS_ROW % (
        r.engine, r.market_id, r.k, ";".join(map(repr, r.fair)), r.winner,
        r.n_attempts, r.n_accepted, r.n_rejected, r.n_unfillable,
        format(r.volume, "f"), format(r.fee, "f"), *pnl, r.overround_final,
        ";".join(map(repr, r.r_start)), ";".join(map(repr, r.r_end)))


def cmd_simulate(args) -> None:
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
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"UAMM_LAB_SEED must be an integer, got {env_seed!r}") from None
    if overrides:
        cfg = sim.replace(cfg, **overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "sweep":
        sweep = sim.run_prob_sweep(cfg)
        _write_dicts(out / "plot_prob_sweep.csv", sweep.rows)
        _write_dicts(out / "sweep_bands.csv",
                     [{"side_mode": m, **b} for m, b in sweep.bands.items()])
        _write_dicts(out / "plot_rejection_sweep.csv", sim.run_rejection_sweep(cfg))
        for m, b in sweep.bands.items():
            print(f"sweep[{m}]: epp spread {b['epp_spread_observed']:.6g} "
                  f"(declared band {b['epp_spread_band']:.6g})")
        return

    single = args.mode == "single"
    results = [sim.run_single_market(cfg)] if single else sim.iter_markets(cfg, keep_log=True)
    plot_file = (nullcontext() if single else
                 _csv_file(out / "plot_markets.csv", PLOT_MARKETS_FIELDS))
    fold = metrics.MetricsFold(cfg.engine)
    # each market's rows are written as it finishes, and the market is then
    # dropped: a run holds one market at a time
    with (_csv_file(out / "bets.csv", sim.BETS_FIELDS) as bets,
          _csv_file(out / "markets.csv", MARKETS_FIELDS) as markets,
          plot_file as plot):
        for i, result in enumerate(results):
            bets.write(_bets_text(result.bet_log))
            result.bet_log.clear()  # result stays bound while the next market runs
            eip, epp, _, ev_final = pnl = tuple(map(repr, fold.add(result)))
            markets.write(_market_text(result, pnl))
            if plot:
                plot.write(PLOT_MARKETS_ROW % (i, eip, epp, ev_final))
        summary = {"mode": args.mode, "seed": cfg.seed, **fold.report().csv_row()}
        _write_dicts(out / "summary.csv", [summary])
    if single:
        fields = (["step"] + [f"balance_{j}" for j in range(1, result.k + 1)]
                  + ["rejected_cum", "eip"])
        rows = [(t["step"], *t["balances"], t["rejected_cum"], t["eip"])
                for t in result.trajectory]
        _write_csv(out / "plot_single_market.csv", fields, rows)
    print(", ".join(f"{k}={summary[k]}" for k in
                    ("engine", "n_markets", "total_bets", "volume",
                     "fee_revenue", "eip_mean", "epp_mean", "epp_plus_fee",
                     "rejection_rate")))


def cmd_probe(args) -> None:
    """Print the requested reports; a property report above
    :data:`PROPERTY_TOLERANCE` raises :class:`InvariantViolation` once both
    reports are printed."""
    run_all = not (args.continuity or args.properties)
    failure = None
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
            failure = (f"liquidity properties: max rel err {rep.max_error:.3e} "
                       f"exceeds the tolerance {PROPERTY_TOLERANCE:g}")
    if args.continuity or run_all:
        rep = continuity_report()
        print("swap branch-boundary continuity grid (report only):")
        for rho, d_in, gap in rep.rows:
            print(f"  rho={rho:<5g} d_in={d_in:<6g} boundary gap {gap:.6e}")
        print(f"  max gap {rep.max_gap:.6e} "
              "(nonzero for rho != 1 by construction of the printed formula)")
    if failure:
        raise InvariantViolation(failure)


COMMANDS = {"quote": cmd_quote, "simulate": cmd_simulate, "probe": cmd_probe}


def main(argv=None) -> int:
    """Run one command: 0 when it returns, else the :data:`EXIT_CODES` code
    of the error it raised, with an ``error:`` line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        COMMANDS[args.command](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
