"""Compare every CLI output of this checkout with those of a git revision.

Usage::

    python tools/diff_outputs.py REF

``REF`` is any revision of this repository (a commit, branch or tag).  The
script extracts ``REF``'s ``src/`` and ``demos/`` with ``git archive`` into a
temporary directory and runs each ``uamm-lab`` command of :data:`COMMANDS`
and each demo of :data:`DEMOS` twice: once from ``REF``'s tree and once from
this checkout's, each demo against its own tree's ``src/``.  Both runs start
in the same empty working directory, which holds the same config files
(:data:`CONFIGS`), under the same environment, so their outputs can differ
only through the code.  It compares the exit code, stdout, stderr and every
file the run leaves behind, byte for byte.

It prints one line per difference, naming the command, the output and its
first differing line, then a count, and exits 1 when there is a difference
and 0 when there is none (2 when ``REF`` cannot be extracted).  The command
list holds only outputs that a change which declares none must leave as
they are: every ``simulate`` mode on both engines (one config among them
drains its pools, so ``bets.csv`` holds empty quote cells), a ``full`` run
at a five-decimal fee rate (:data:`FEE_CONFIG`), a ``multi`` run at a zero
fee rate (:data:`ZERO_FEE_CONFIG`), ``quote`` as text, as CSV, for a wager
that drains the pool (exit 3) and for an unknown outcome and a negative
wager (exit 1, compared on their error text too), all three ``probe``
forms, and the three demos, whose stdout prints a market's and a sweep's
totals.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SMALL = "n_bets = 60\nn_markets = 4\nseed = 3\n"
#: Config file name -> text, written into the working directory of each run.
CONFIGS = {
    "defaults.cfg": _SMALL,
    "k3.cfg": "k = 3\nprobs = 0.2,0.3,0.5\nfee_rate = 0.0305\n" + _SMALL,
    "fee50.cfg": "fee_rate = 0.5\n" + _SMALL,
    # wagers of about 1.9e21 on pools of 1,000: every UAMM bet is unfillable
    # at its quote, so bets.csv holds rows whose four quote cells are empty
    "drained.cfg": ("funding = 1000.0\nwager_mu = 49\nwager_sigma = 0.0\n"
                    "rej_mean = 2.0\nrej_std = 0.0\nn_bets = 5\nn_markets = 2\nseed = 3\n"),
}
#: A sampled config at a five-decimal fee rate, written beside
#: :data:`CONFIGS` and run in ``full`` mode: a 0.02501 fee is exact only for
#: a wager in whole dimes, so most markets mix exact and rounded fees and
#: read their fee total to 6 places, while one whose fees sum to exactly
#: ``fee_rate * volume`` reads it as that product; ``markets.csv``'s fee
#: column shows both texts (see ``uamm_lab.sim.MarketResult``).
FEE_CONFIG = ("fee02501.cfg", "k = 2,3\nprobs = uniform:0.2,0.8\nn_bets = lognormal:2.0,1.0\n"
              "n_markets = 40\nfee_rate = 0.02501\nseed = 3\n")
#: A zero fee rate, run in ``multi`` mode: ``0.0`` is the rate ``0`` at
#: exponent -1, so every fee total of a market that traded, and the run's,
#: is written to seven places, ``0.0000000``.
ZERO_FEE_CONFIG = ("fee0.cfg", "fee_rate = 0.0\n" + _SMALL)
_QUOTE = ["quote", "--k", "3", "--probs", "0.2,0.3,0.5", "--funding", "10000",
          "--outcome", "2", "--wager", "125.5"]
#: The ``uamm-lab`` argument lists, each run from both trees.
COMMANDS = [
    *[["simulate", "--config", config, "--mode", mode, "--engine", engine, "--out", "out"]
      for config in CONFIGS for mode in ("single", "multi", "full", "sweep")
      for engine in ("uamm", "cpmm")],
    *[["simulate", "--mode", "full", "--seed", "9", "--engine", engine, "--out", "out"]
      for engine in ("uamm", "cpmm")],
    ["simulate", "--config", FEE_CONFIG[0], "--mode", "full", "--engine", "uamm",
     "--out", "out"],
    ["simulate", "--config", ZERO_FEE_CONFIG[0], "--mode", "multi", "--engine", "uamm",
     "--out", "out"],
    _QUOTE,
    _QUOTE + ["--format", "csv"],
    *[["quote", "--k", "2", "--probs", "0.5,0.5", "--funding", "1000",
       "--outcome", outcome, "--wager", wager]
      for outcome, wager in (("1", "1e20"), ("3", "5"), ("1", "-5"))],
    ["probe"],
    ["probe", "--continuity"],
    ["probe", "--properties"],
]
#: The demo scripts, each run from ``demos/`` of its own tree.
DEMOS = ["demo_single_market.py", "demo_uamm_vs_cpmm.py", "demo_probability_sweep.py"]


def extract_tree(ref: str, dest: Path) -> Path:
    """Extract ``ref``'s ``src/`` and ``demos/`` into ``dest``; return
    ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, "src", "demos"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def label(job) -> str:
    """How a report names a job: a :data:`COMMANDS` entry (an argument
    list) or a :data:`DEMOS` entry (a script name)."""
    return f"demos/{job}" if isinstance(job, str) else f"uamm-lab {' '.join(job)}"


def run(tree: Path, work: Path, job) -> dict[str, bytes]:
    """Run a job, ``uamm-lab`` with a :data:`COMMANDS` entry's arguments or
    the :data:`DEMOS` script in ``tree``'s ``demos/``, with the package under
    ``tree``'s ``src/`` in a fresh ``work`` directory: its exit code, stdout,
    stderr and every file in ``work`` afterwards, by name."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name, text in (*CONFIGS.items(), FEE_CONFIG, ZERO_FEE_CONFIG):
        (work / name).write_text(text)
    env = {k: v for k, v in os.environ.items() if k != "UAMM_LAB_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    args = [str(tree / "demos" / job)] if isinstance(job, str) else ["-m", "uamm_lab.cli", *job]
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True)
    outputs = {"exit code": b"%d" % proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            outputs[path.relative_to(work).as_posix()] = path.read_bytes()
    return outputs


def differences(ref: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per output that differs between two runs' outputs."""
    found = []
    for name in sorted(ref.keys() | new.keys()):
        if name not in ref:
            found.append(f"{name}: only in this checkout")
        elif name not in new:
            found.append(f"{name}: only in REF")
        elif ref[name] != new[name]:
            lines = zip_longest(ref[name].splitlines(), new[name].splitlines())
            n, (a, b) = next((n, pair) for n, pair in enumerate(lines, 1)
                             if pair[0] != pair[1])
            found.append(f"{name}: line {n} reads {a!r:.120} in REF, {b!r:.120} here")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/diff_outputs.py REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref_tree = extract_tree(args[0], Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot extract src/ and demos/ of {args[0]!r}: "
                  f"{exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        work = Path(tmp) / "work"
        count = 0
        for job in (*COMMANDS, *DEMOS):
            ref = run(ref_tree, work, job)
            new = run(ROOT, work, job)
            for line in differences(ref, new):
                print(f"{label(job)}: {line}")
                count += 1
    print(f"{len(COMMANDS)} commands and {len(DEMOS)} demos, "
          f"{count} differences against {args[0]}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
