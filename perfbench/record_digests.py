"""Record the summary digest of every workload at every recorded seed.

    python3 perfbench/record_digests.py

Rewrites ``perfbench/digests.json`` for seeds ``0 .. RECORDED_SEEDS - 1``.  A
run fails if its summary digest differs from the recorded one, so rerun this
only for a change that alters seeded outputs on purpose, and say why in
CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import RECORDED_SEEDS, WORKLOADS  # noqa: E402


def main() -> None:
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=BENCH.parent) as tmp:
        for name, workload in sorted(WORKLOADS.items()):
            digests[name] = {}
            for seed in range(RECORDED_SEEDS):
                inputs = workload.prepare(seed, Path(tmp) / name)
                outcome = workload.outcome(inputs, workload.execute(inputs))
                if outcome.problems:
                    sys.exit(f"{name} seed {seed}: {outcome.problems}")
                digests[name][str(seed)] = outcome.digest
            print(f"{name}: seeds 0..{RECORDED_SEEDS - 1} recorded", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
