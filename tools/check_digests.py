"""Check every workload's summary digest at every recorded seed.

Usage::

    python tools/check_digests.py

Runs each workload of ``perfbench/workloads.py`` once at each seed
``0 .. RECORDED_SEEDS - 1`` from this checkout's ``src/``, as
``perfbench/record_digests.py`` does, and compares each summary digest with
the one recorded in ``perfbench/digests.json``.  It only reads that file.
It prints one line per mismatch (a digest that differs, a seed with no
recorded digest, or a run whose output checks fail), naming the workload
and the seed, then a count, and exits 1 when there is a mismatch and 0 when
there is none.  ``perfbench/run.py`` checks one seed per run; this checks
them all.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from workloads import RECORDED_SEEDS, WORKLOADS  # noqa: E402


def mismatches() -> tuple[int, list[str]]:
    """``(runs, mismatches)``: how many workload-seed runs were checked, and
    one line for each that does not match its recorded digest."""
    recorded = json.loads((BENCH / "digests.json").read_text())
    found, runs = [], 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name, workload in sorted(WORKLOADS.items()):
            for seed in range(RECORDED_SEEDS):
                inputs = workload.prepare(seed, Path(tmp) / name)
                outcome = workload.outcome(inputs, workload.execute(inputs))
                runs += 1
                want = recorded.get(name, {}).get(str(seed))
                if outcome.problems:
                    found.append(f"{name} seed {seed}: output checks failed: {outcome.problems}")
                elif outcome.digest != want:
                    found.append(f"{name} seed {seed}: digest {outcome.digest}, recorded {want}")
            print(f"{name}: seeds 0..{RECORDED_SEEDS - 1} checked", flush=True)
    return runs, found


def main() -> int:
    runs, found = mismatches()
    for line in found:
        print(line)
    print(f"{len(found)} mismatches in {runs} runs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
