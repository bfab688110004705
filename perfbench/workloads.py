"""The benchmark's workloads: seeded inputs, one repetition, output checks.

Each workload turns a seed into inputs once (:meth:`Workload.prepare`).
:meth:`Workload.execute` is one repetition through the library's public entry
points, the only part that is timed, and :meth:`Workload.outcome` checks what
it produced.  A repetition at a given seed always
does the same work, so repetitions can be timed against each other and their
summary digests must agree.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from uamm_lab import cli, sim

#: Markets per engine in ``bets-paired``; 2 engines x 12 x 1000 = 24k bets.
PAIRED_MARKETS = 12
#: Markets in ``markets-full``; about 11 bets each.
FULL_MARKETS = 1000
#: Markets in ``thin-quotes``; 2000 bets each.
THIN_MARKETS = 25
#: Fee rate of every workload (``SimConfig``'s default).
FEE_RATE = "0.025"
#: Summary digests are recorded for seeds ``0 .. RECORDED_SEEDS - 1``.
RECORDED_SEEDS = 100


@dataclass
class Outcome:
    """What one repetition did and whether its outputs held up."""

    bets: int
    unfillable: int
    rows: list[dict]
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.rows, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_report_row(row: dict, fee_rate: Decimal, label: str) -> list[str]:
    """Output checks on one summary row (``MetricsReport.csv_row()`` form)."""
    problems = []
    total = int(row["total_bets"])
    settled = int(row["accepted"]) + int(row["rejected"]) + int(row["unfillable"])
    if settled != total:
        problems.append(f"{label}: accepted+rejected+unfillable={settled} != total_bets={total}")
    fee, volume = Decimal(row["fee_revenue"]), Decimal(row["volume"])
    if fee != fee_rate * volume:
        problems.append(f"{label}: fee_revenue {fee} != {fee_rate} x volume {volume}")
    return problems


class Workload:
    name: str
    why: str

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def execute(self, inputs):
        raise NotImplementedError

    def outcome(self, inputs, result) -> Outcome:
        raise NotImplementedError


class _MultiMarket(Workload):
    """Workloads that call ``run_multi_market`` once per config."""

    def execute(self, configs):
        return [sim.run_multi_market(cfg)[1] for cfg in configs]

    def outcome(self, configs, reports):
        rows, problems = [], []
        for cfg, report in zip(configs, reports):
            row = report.csv_row()
            rows.append(row)
            problems += check_report_row(row, Decimal(str(cfg.fee_rate)), cfg.engine)
        return Outcome(sum(r.total_bets for r in reports),
                       sum(r.unfillable for r in reports), rows, problems)


class BetsPaired(_MultiMarket):
    name = "bets-paired"
    why = ("the paired UAMM-vs-CPMM comparison on long 3-outcome markets; "
           "~75% of bets execute, so quote, buy, swap, amount and ledger dominate")

    def prepare(self, seed, workdir):
        return [
            sim.SimConfig(k=3, probs=(0.2, 0.3, 0.5), n_bets=1000,
                          n_markets=PAIRED_MARKETS, seed=seed, engine=engine)
            for engine in ("uamm", "cpmm")
        ]

    def outcome(self, configs, reports):
        outcome = super().outcome(configs, reports)
        totals = [int(r["total_bets"]) for r in outcome.rows]
        if len(set(totals)) != 1:
            outcome.problems.append(f"engines saw different total_bets: {totals}")
        return outcome


class ThinQuotes(_MultiMarket):
    name = "thin-quotes"
    why = ("a thin skewed pool at a 0.025 rejection threshold: ~2% of bets "
           "execute, so quoting is nearly all the work")

    def prepare(self, seed, workdir):
        return [sim.SimConfig(k=2, probs=(0.8, 0.2), funding=500.0,
                              side_mode="uniform", rej_mean=0.025, rej_std=0.0,
                              n_bets=2000, n_markets=THIN_MARKETS, seed=seed)]


#: ``--config`` files do not inherit ``FULL_DEFAULTS``, so every sampled
#: hyperparameter is spelled out; the file loads to ``full_config(seed=s,
#: n_markets=FULL_MARKETS)``.
FULL_CONFIG = """\
k = 2,3
probs = uniform:0.2,0.8
n_bets = lognormal:2.0,1.0
funding = 10000.0
fee_rate = {fee_rate}
n_markets = {n_markets}
seed = {seed}
"""


class MarketsFull(Workload):
    name = "markets-full"
    why = ("the uncontrolled experiment through the CLI: many short sampled "
           "markets, so set-up, metrics and CSV writing weigh most")

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "full.cfg"
        config.write_text(FULL_CONFIG.format(fee_rate=FEE_RATE, n_markets=FULL_MARKETS,
                                             seed=seed))
        return ["simulate", "--mode", "full", "--config", str(config),
                "--out", str(workdir / "out")]

    def execute(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def outcome(self, argv, status):
        out = Path(argv[-1])
        if status != 0:
            return Outcome(0, 0, [], [f"uamm-lab simulate exited {status}"])
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "bets.csv", newline="") as fh:
            bet_rows = sum(1 for _ in csv.DictReader(fh))
        row = rows[0]
        problems = check_report_row(row, Decimal(FEE_RATE), "uamm")
        if bet_rows != int(row["total_bets"]):
            problems.append(f"bets.csv has {bet_rows} rows, summary says {row['total_bets']}")
        return Outcome(int(row["total_bets"]), int(row["unfillable"]), rows, problems)


WORKLOADS = {w.name: w for w in (BetsPaired(), MarketsFull(), ThinQuotes())}
