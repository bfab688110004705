"""One set-up sample: start, import the library, build a workload's inputs.

Prints the monotonic clock once the first workload call could be made; the
parent subtracts the moment it started this process.

    python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    WORKLOADS[name].prepare(int(seed), Path(workdir))
    print(repr(time.monotonic()))
