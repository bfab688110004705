"""The CLI's exit policy: ``cli.EXIT_CODES`` is the one table from error
class to exit code, the README and the ``--help`` text each list its codes,
and a property drives ``cli.main`` with generated command lines and config
files and holds every run to the table."""

import contextlib
import functools
import io
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from uamm_lab import cli, probes, sim

README = Path(__file__).resolve().parents[1] / "README.md"
CODES = {0} | set(cli.EXIT_CODES.values())

#: Vectors that pass the input checks but that renormalizing breaks: the
#: first stores 0.0 for its second outcome, the second 1.0 for its second,
#: and the third overflows outcome 1's fair rates to inf.
DEGENERATE = ["0.9999999999999999,5e-324", "5e-324,0.9999999999999999", "1e-310,0.5,0.5"]


def _readme_exit_rows() -> dict[int, str]:
    """The README's exit-code table: each row's text by its code."""
    text = README.read_text()
    table = text[text.index("| Exit code |"):].split("\n\n", 1)[0]
    return {int(m.group(1)): line for line in table.splitlines()
            if (m := re.match(r"\| (\d+) \|", line))}


def test_the_readme_table_lists_exactly_the_exit_codes():
    rows = _readme_exit_rows()
    assert set(rows) == CODES
    for cls, code in cli.EXIT_CODES.items():
        assert f"`{cls.__name__}`" in rows[code], (cls, code)


def test_the_help_text_lists_exactly_the_exit_codes():
    sentence = cli.__doc__[cli.__doc__.index("Exit codes:"):].split(";", 1)[0]
    assert {int(c) for c in re.findall(r"(\d) [a-z]", sentence)} == CODES
    assert "Exit codes:" in cli.build_parser().format_help()


def test_a_failed_property_probe_exits_two_after_both_reports(capsys, monkeypatch):
    failing = probes.PropertyReport(1000, 2 * cli.PROPERTY_TOLERANCE, 0.0, 0.0, 0.0)
    monkeypatch.setattr(cli, "property_report", lambda: failing)
    assert cli.main(["probe"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: liquidity properties: max rel err 2.000e-09 ")
    assert "1e-09" in captured.err and "Traceback" not in captured.err
    out = captured.out
    assert "liquidity properties over" in out and "  FAIL: tolerance exceeded\n" in out
    assert out.index("FAIL") < out.index("swap branch-boundary continuity grid")


def test_an_error_of_no_listed_class_is_not_caught(monkeypatch):
    def broken(args):
        raise KeyError("a bug")

    monkeypatch.setitem(cli.COMMANDS, "probe", broken)
    with pytest.raises(KeyError):
        cli.main(["probe"])


@pytest.mark.parametrize("probs", DEGENERATE)
def test_a_degenerate_vector_exits_one(tmp_path, capsys, probs):
    k = str(probs.count(",") + 1)
    assert cli.main(["quote", "--k", k, "--probs", probs, "--funding", "1000",
                     "--outcome", "1", "--wager", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: renormalized probabilities ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k = {k}\nprobs = {probs}\nn_markets = 1\nn_bets = 3\n")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["k = 257", "k = 3,257",
                                  f"probs = {','.join([repr(1 / 300)] * 300)}"],
                         ids=["k-257", "k-3-257", "probs-300"])
def test_an_outcome_count_the_config_refuses_makes_no_output_directory(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\nn_markets = 1\nn_bets = 3\n")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: k must ")
    assert not out.exists()


def test_a_quote_with_too_few_probabilities_names_both_counts(capsys):
    assert cli.main(["quote", "--k", "3", "--probs", "0.5,0.5", "--funding", "1000",
                     "--outcome", "1", "--wager", "1"]) == 1
    assert capsys.readouterr().err == "error: 2 fair prices for a 3-outcome market\n"


# -- the property ---------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 1e-9, 1e-6, 1e20, 1e21, 1e22, -1.0, math.nan, math.inf,
                -math.inf]
_EDGE_PROBS = [5e-324, 1e-310, 1e-300, 1e-20, 0.9999999999999999, 1.0, 0.0, -0.5,
               math.nan, math.inf]


def _mostly(valid, edge):
    """``valid`` in three draws of four, else ``edge``: most runs get far
    enough to write their outputs, and every argument still meets its edge
    values."""
    return st.integers(0, 3).flatmap(lambda i: edge if i == 3 else valid)


def _floats(lo, hi, edges=_EDGE_FLOATS):
    return _mostly(st.floats(lo, hi), st.sampled_from(edges))


@st.composite
def _probs(draw, k):
    """A comma-separated probability vector, mostly of ``k`` entries: plain
    floats scaled to sum to 1, at times with an edge value in place of one
    and scaled again, or not."""
    n = max(1, draw(_mostly(st.just(k), st.sampled_from([k - 1, k + 1]))))
    p = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    p = [x / math.fsum(p) for x in p]
    edge = draw(_mostly(st.none(), st.sampled_from(_EDGE_PROBS)))
    if edge is not None:
        p[draw(st.integers(0, n - 1))] = edge
        total = math.fsum(p) if all(map(math.isfinite, p)) else math.nan
        if total > 0 and draw(st.booleans()):
            p = [x / total for x in p]
    return ",".join(map(repr, p))


@st.composite
def _quote_argv(draw):
    k = draw(_mostly(st.integers(2, 6), st.integers(0, 1)))
    outcome = draw(_mostly(st.integers(1, max(k, 1)), st.sampled_from([-1, 0, k + 1])))
    # each value joined to its flag by "=", so that a negative one reads as a value
    argv = ["quote", f"--k={k}", f"--probs={draw(_probs(k))}",
            f"--funding={draw(_floats(1.0, 1e6))!r}", f"--outcome={outcome}",
            f"--wager={draw(_floats(0.0, 1e4))!r}"]
    if draw(st.booleans()):
        argv.append(f"--fee-rate={draw(_floats(0.0, 0.5, [-0.0, 0.99, 1.0, math.nan]))!r}")
    if draw(st.booleans()):
        fmt = draw(_mostly(st.sampled_from(["text", "csv"]), st.just("json")))
        argv.append(f"--format={fmt}")
    return argv, None


def _config_line(key):
    """One ``key = value`` line of a config file, its value drawn for the key."""
    ks = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v)))
    values = {
        "k": _mostly(ks, st.sampled_from(["0", "1", "1,2", "2.5", "", "abc"])),
        "probs": st.one_of(
            st.integers(1, 6).flatmap(_probs),
            st.tuples(_floats(1e-3, 1.0, _EDGE_PROBS), _floats(1e-3, 1.0, _EDGE_PROBS)).map(
                lambda lh: f"uniform:{lh[0]!r},{lh[1]!r}"),
            st.just("uniform:0.2")),
        "n_bets": _mostly(
            st.one_of(st.integers(0, 5).map(str),
                      st.tuples(_floats(-3.0, 2.0), _floats(0.0, 1.0)).map(
                          lambda ms: f"lognormal:{ms[0]!r},{ms[1]!r}")),
            st.sampled_from(["-1", "2.5", "lognormal:2"])),
        "n_markets": _mostly(st.integers(1, 3).map(str),
                             st.sampled_from(["0", "-1", "1.5", "True"])),
        "seed": _mostly(st.integers(0, 2 ** 70).map(str), st.sampled_from(["-1", "1.5"])),
        "side_mode": _mostly(st.sampled_from(["true-prob", "uniform"]), st.just("other")),
        "engine": _mostly(st.sampled_from(sim.ENGINES), st.just("other")),
        "fee_rate": _floats(0.0, 0.5, [-0.0, 0.02501, 0.99, 1.0, math.nan]),
        "funding": _floats(1.0, 1e6),
        "wager_mu": _floats(-5.0, 10.0, [60.0, 800.0, math.nan, math.inf]),
        "wager_sigma": _floats(0.0, 2.0),
        "rej_mean": _floats(-0.1, 0.5),
        "rej_std": _floats(0.0, 0.5),
    }
    return values[key].map(lambda v: f"{key} = {v if isinstance(v, str) else repr(v)}")


@st.composite
def _config(draw):
    """A config file's text: small ``n_markets`` and ``n_bets`` lines and
    drawn lines, in any order; at times a key given twice, an unknown key
    or a line without ``=``."""
    lines = [draw(_config_line("n_markets")), draw(_config_line("n_bets"))]
    keys = [k for k in sim.SimConfig.__dataclass_fields__ if k not in ("n_markets", "n_bets")]
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        lines.append(draw(_config_line(key)))
    lines.append(draw(_mostly(st.just("# a comment"), st.sampled_from(
        ["bankroll = 7", "garbage", "n_markets = 1", lines[-1]]))))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _simulate_argv(draw):
    argv = ["simulate", "--config", "{cfg}",
            "--mode", draw(st.sampled_from(["single", "multi", "full", "sweep"])),
            # an --out naming the config file, an existing file, fails to mkdir
            "--out", draw(_mostly(st.just("{out}"), st.just("{cfg}")))]
    if draw(st.booleans()):
        argv += ["--engine", draw(_mostly(st.sampled_from(sim.ENGINES), st.just("other")))]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_mostly(st.integers(0, 2 ** 70), st.just(-1)))}")
    return argv, draw(_config())


@st.composite
def _probe_argv(draw):
    flags = draw(_mostly(st.lists(st.sampled_from(["--continuity", "--properties"]),
                                  max_size=2), st.just(["--bogus"])))
    return ["probe", *flags], None


def _non_finite(text: str) -> list[str]:
    return [t for t in re.split(r"[\s,;=]+", text) if t.lower().lstrip("+-") in ("nan", "inf")]


#: The liquidity probe's report, computed once: it is deterministic, and
#: computing it costs about 0.4 s.
_property_report = functools.cache(probes.property_report)


def _quote(probs, funding="1000", wager="1"):
    return (["quote", "--k", str(probs.count(",") + 1), "--probs", probs,
             "--funding", funding, "--outcome", "1", "--wager", wager], None)


def _simulate(probs):
    return (["simulate", "--config", "{cfg}", "--mode", "multi", "--out", "{out}"],
            f"k = {probs.count(',') + 1}\nprobs = {probs}\nn_markets = 1\nn_bets = 3\n")


# ``-h`` is left out of the strategy: argparse answers it with SystemExit(0),
# which main does not catch, so that the console script exits 0 after the help
@settings(deadline=None)
@given(case=st.one_of(_quote_argv(), _simulate_argv(), _probe_argv()))
@example(case=_quote(DEGENERATE[0]))
@example(case=_quote(DEGENERATE[1]))
@example(case=_quote(DEGENERATE[2]))
@example(case=_simulate(DEGENERATE[0]))
@example(case=_simulate(DEGENERATE[1]))
@example(case=_simulate(DEGENERATE[2]))
# a fair rate of 5e299 times a wager of 1e21 overflows to inf: the quote read
# NaN and exited 0, and is now unfillable
@example(case=_quote("1e-300,0.5,0.5", funding="1e-06", wager="1e+21"))
def test_every_run_exits_with_a_code_of_the_table(case):
    argv, cfg_text = case
    with (tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ),
          mock.patch.object(cli, "property_report", _property_report),
          np.errstate(over="ignore")):
        os.environ.pop("UAMM_LAB_SEED", None)
        root = Path(tmp)
        cfg, out = root / "run.cfg", root / "out"
        if cfg_text is not None:
            cfg.write_text(cfg_text)
        argv = [a.format(cfg=cfg, out=out) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        event(f"{argv[0]} exits {code}")
        assert code in CODES, (code, err)
        assert err.startswith("error: ") == (code != 0) and "Traceback" not in err, err
        assert not list(root.rglob("*.tmp"))
        if cfg_text is not None:
            try:
                sim.load_config(cfg)
            except tuple(cli.EXIT_CODES):
                assert not out.is_dir()
        if code == 0:
            written = [p.read_text() for p in root.rglob("*.csv")]
            assert not _non_finite(stdout.getvalue()), stdout.getvalue()
            assert not [t for text in written for t in _non_finite(text)]

