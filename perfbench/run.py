"""uamm-lab benchmark: simulated bets per second on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, a closed loop with one caller: each repetition of
the workload starts when the previous one has returned, and every
repetition's outputs are checked.

``--trace 0`` times the workload untraced and prints the end-to-end metrics:
``bets_per_s`` (the fastest repetition's rate), ``setup_s`` (median over
fresh set-up processes) and ``peak_rss_mib``.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics: spans
around the library's public callables, branch and unfillable counters, the
tracing overhead and the isolated ``micro.*`` costs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
bets; ``failed`` counts the bets of repetitions whose outputs failed a check
(an unfillable bet is an ordinary market outcome, not a failure).  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Timed repetitions a run makes at least, however long they take.
MIN_REPS = 5
#: Seconds of the timed window between two set-up samples.
SETUP_EVERY = 2.0

END_TO_END = (("bets_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
#: The metric a run reports as its best sample rather than the median.  A
#: repetition's work is fixed by the seed and a contended host only ever
#: slows it, so the fastest repetition is the least disturbed measure of the
#: code's throughput; on a shared host it repeats about three times more
#: closely between runs than the median (NOTES.md, "Noise").
BEST_OF = "bets_per_s"

#: Spans reported as per-layer metrics, each as calls, self_ms, us_per_call.
LAYER_SPANS = (
    "uamm.swap_out", "uamm.quote", "uamm.buy",
    "baseline.cpmm_swap", "baseline.quote", "baseline.buy",
    "fixedpoint.amount",
    "ledger.balance", "ledger.credit", "ledger.debit", "ledger.deposit",
    "ledger.mint", "ledger.close_betting", "ledger.resolve",
    "sim.simulate_one", "sim.build_market", "sim.run_market",
    "metrics.summarize", "cli.main",
)
SPAN_FIELDS = (("calls", "count"), ("self_ms", "ms"), ("us_per_call", "us"))
ENGINE_LAYERS = ("uamm", "baseline")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    import micro
    from spans import BRANCHES
    units = {f"{s}.{f}": u for s in LAYER_SPANS for f, u in SPAN_FIELDS}
    units.update({f"uamm.swap_out.branch.{b}": "count" for b in BRANCHES})
    for layer in ENGINE_LAYERS:
        units.update({f"{layer}.unfillable.quote": "count",
                      f"{layer}.unfillable.buy": "count",
                      f"{layer}.drift_max": "tokens",
                      f"{layer}.fill_ratio": "ratio"})
    units.update({"failed_frac": "ratio", "trace.overhead_frac": "ratio"})
    units.update({n: n.rsplit("_", 1)[1] for n in micro.NAMES})
    return units


def import_library() -> None:
    """Import ``uamm_lab`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "uamm_lab" / "__init__.py").is_file():
        print(f"error: no uamm_lab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uamm_lab
    if Path(uamm_lab.__file__).resolve().parent != SRC / "uamm_lab":
        print(f"error: uamm_lab imported from {uamm_lab.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> str:
    """Python, numpy and scipy versions, CPU count and model, for the log."""
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}, nproc {os.cpu_count()}, cpu {cpu}")


class Checks:
    """Output checks across the repetitions of one run."""

    def __init__(self, workload: str, seed: int):
        recorded = json.loads((BENCH / "digests.json").read_text())
        self.recorded: dict[str, str] = recorded.get(workload, {})
        self.expected = self.recorded.get(str(seed))
        self.digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.unfillable = 0
        self.failed = 0

    def add(self, outcome) -> None:
        problems = list(outcome.problems)
        if self.expected is not None and outcome.digest != self.expected:
            problems.append(f"summary digest {outcome.digest} != recorded {self.expected}")
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            problems.append(f"summary digest {outcome.digest} != first repetition's {self.digest}")
        self.attempted += outcome.bets
        self.unfillable += outcome.unfillable
        if problems:
            self.failed += outcome.bets
            self.problems += problems


def check_recorded_seed(workload, seed: int, workdir: Path, checks: Checks) -> None:
    """One untimed repetition at ``seed``, checked against its recorded digest.

    Digests are recorded for seeds below ``RECORDED_SEEDS`` only; a run at any
    other seed calls this with a recorded seed, so every run checks the
    library's seeded outputs against a recorded digest."""
    inputs = workload.prepare(seed, workdir)
    outcome = workload.outcome(inputs, workload.execute(inputs))
    expected = checks.recorded.get(str(seed))
    if outcome.digest != expected:
        outcome.problems.append(
            f"seed {seed}: summary digest {outcome.digest} != recorded {expected}")
    checks.attempted += outcome.bets
    if outcome.problems:
        checks.failed += outcome.bets
        checks.problems += outcome.problems


def execute(workload, inputs):
    """(seconds, result) of one repetition, after a garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    result = workload.execute(inputs)
    return time.perf_counter() - t0, result


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh process to its first workload call."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def run_untraced(workload, inputs, seconds, checks, seed, tmp) -> dict[str, list[float]]:
    """Time repetitions until ``seconds`` have passed.  Set-up samples are
    taken between repetitions every ``SETUP_EVERY`` seconds, so both metrics
    sample the whole run."""
    _, result = execute(workload, inputs)  # warm-up
    checks.add(workload.outcome(inputs, result))
    rates, setups = [], []
    start = time.monotonic()
    while len(rates) < MIN_REPS or time.monotonic() < start + seconds:
        dt, result = execute(workload, inputs)
        outcome = workload.outcome(inputs, result)
        checks.add(outcome)
        rates.append(outcome.bets / dt)
        if time.monotonic() >= start + SETUP_EVERY * len(setups):
            setups.append(measure_setup(workload.name, seed, tmp / f"setup{len(setups)}"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"bets_per_s": rates, "setup_s": setups, "peak_rss_mib": [peak]}


def run_traced(workload, inputs, seconds, checks) -> dict[str, list[float]]:
    import micro
    from spans import BRANCHES, Tracer

    _, result = execute(workload, inputs)  # warm-up
    checks.add(workload.outcome(inputs, result))
    plain, traced, tracers = [], [], []
    deadline = time.monotonic() + seconds
    while not tracers or time.monotonic() < deadline:
        dt, result = execute(workload, inputs)
        checks.add(workload.outcome(inputs, result))
        plain.append(dt)
        tracer = Tracer()
        with tracer:
            dt, result = execute(workload, inputs)
        outcome = workload.outcome(inputs, result)
        outcome.problems += tracer.conservation_failures
        if not tracers:
            outcome.problems += [f"trace target {t} not found" for t in tracer.missing]
        if tracers and tracer.exact_counts() != tracers[0].exact_counts():
            outcome.problems.append("traced counts differ between repetitions")
        checks.add(outcome)
        traced.append(dt)
        tracers.append(tracer)

    ref = tracers[0]
    stats = [t.span_stats() for t in tracers]
    metrics = {}
    for span in LAYER_SPANS:
        for i, (field, _) in enumerate(SPAN_FIELDS):
            metrics[f"{span}.{field}"] = [s.get(span, (0, 0.0, 0.0))[i] for s in stats]
    counts = ref.counts
    for b in BRANCHES:
        metrics[f"uamm.swap_out.branch.{b}"] = [counts[f"uamm.swap_out.branch.{b}"]]
    for layer in ENGINE_LAYERS:
        for kind in ("quote", "buy"):
            metrics[f"{layer}.unfillable.{kind}"] = [counts[f"{layer}.unfillable.{kind}"]]
        metrics[f"{layer}.drift_max"] = [ref.drift_max[layer]]
        metrics[f"{layer}.fill_ratio"] = [ref.fill_ratio(layer)]
    metrics["failed_frac"] = [(checks.unfillable + checks.failed) / checks.attempted]
    metrics["trace.overhead_frac"] = [statistics.median(traced) / statistics.median(plain) - 1.0]
    metrics.update({name: [value] for name, value in micro.measure().items()})

    checked = sum(v for k, v in counts.items() if k.startswith("conservation."))
    print(f"trace: {len(tracers)} traced and {len(plain)} untraced repetitions; "
          f"conservation held on {checked} markets per repetition")
    for layer in ENGINE_LAYERS:
        print(f"trace: {layer} quotes {counts[f'{layer}.quotes']} "
              f"(overround probes {counts[f'{layer}.probes']}, "
              f"unfillable probes {counts[f'{layer}.unfillable.probe']}), "
              f"buys {counts[f'{layer}.buys']}")
    for name, (n, self_ms, us) in sorted(stats[0].items()):
        if name not in LAYER_SPANS and n:
            print(f"span {name}: calls={n} self_ms={self_ms:.3f} us_per_call={us:.3f}")
    for name, value in micro.ROADMAP_TABLE.items():
        print(f"{name}: measured {metrics[name][0]:.3g}, ROADMAP item 1 table {value}")
    return metrics


def main(argv=None) -> int:
    import_library()
    from workloads import RECORDED_SEEDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    print(f"environment: {environment()}")
    checks = Checks(workload.name, args.seed)
    metrics = {}
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            if args.seed >= RECORDED_SEEDS:
                check_recorded_seed(workload, args.seed % RECORDED_SEEDS,
                                    Path(tmp) / "check", checks)
            elif checks.expected is None:
                checks.problems.append(f"no summary digest recorded for seed {args.seed}")
            inputs = workload.prepare(args.seed, Path(tmp) / "work")
            if args.trace:
                metrics = run_traced(workload, inputs, args.seconds, checks)
            else:
                metrics = run_untraced(workload, inputs, args.seconds, checks,
                                       args.seed, Path(tmp))
    except Exception:
        traceback.print_exc()
        checks.problems.append("the run raised; see standard error")
        checks.attempted += 1
        checks.failed += 1

    units = per_layer_units() if args.trace else dict(END_TO_END)
    report = {}
    for name, unit in units.items():
        values = metrics.get(name)
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
        if name == BEST_OF:
            value = max(values)
            print(f"{workload.name} {name}: best {value:.6g} {unit} (median {med:.6g}, {spread})")
        else:
            value = med
            print(f"{workload.name} {name}: median {med:.6g} {unit} ({spread})")
        report[name] = {"value": value, "unit": unit}
    digest_state = (f"unrecorded; seed {args.seed % RECORDED_SEEDS} checked instead"
                    if checks.expected is None else
                    "matches recorded" if checks.digest == checks.expected else "MISMATCH")
    print(f"{workload.name} seed {args.seed}: summary digest {checks.digest} ({digest_state})")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not checks.problems and len(report) == len(units)
    print(json.dumps({"correct": correct, "attempted": max(checks.attempted, 1),
                      "failed": checks.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
