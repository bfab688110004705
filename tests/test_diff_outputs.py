"""``tools/diff_outputs.py`` names every output that differs between two runs."""

import importlib.util
from pathlib import Path

from uamm_lab import cli, sim

_PATH = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)


def test_identical_runs_have_no_differences():
    run = {"exit code": b"0", "stdout": b"a\nb\n", "stderr": b"", "out/x.csv": b"1\n"}
    assert diff_outputs.differences(run, dict(run)) == []


def test_each_differing_output_is_named_with_its_first_differing_line():
    ref = {"exit code": b"0", "stdout": b"a\nb\n", "stderr": b"", "out/x.csv": b"1\n"}
    new = {"exit code": b"3", "stdout": b"a\nc\nd\n", "stderr": b"", "out/y.csv": b"1\n"}
    assert diff_outputs.differences(ref, new) == [
        "exit code: line 1 reads b'0' in REF, b'3' here",
        "out/x.csv: only in REF",
        "out/y.csv: only in this checkout",
        "stdout: line 2 reads b'b' in REF, b'c' here",
    ]
    # a run that only adds lines differs at the first added one
    assert diff_outputs.differences({"stdout": b"a\n"}, {"stdout": b"a\nb\n"}) == [
        "stdout: line 2 reads None in REF, b'b' here"]


def test_the_command_list_covers_every_mode_and_engine():
    simulated = {(c[c.index("--mode") + 1], c[c.index("--engine") + 1])
                 for c in diff_outputs.COMMANDS if c[0] == "simulate"}
    assert simulated == {(mode, engine) for mode in ("single", "multi", "full", "sweep")
                         for engine in ("uamm", "cpmm")}
    assert {c[0] for c in diff_outputs.COMMANDS} == {"simulate", "quote", "probe"}


def test_a_config_writes_bet_rows_with_empty_quote_cells(tmp_path):
    """Some config in the list writes ``bets.csv`` rows whose four quote
    cells are empty (bets unfillable at their quote), so that the CLI's
    empty-cell row is compared byte for byte too."""
    empty = 0
    for name, text in diff_outputs.CONFIGS.items():
        path = tmp_path / name
        path.write_text(text)
        cfg = sim.load_config(path)
        for engine in sim.ENGINES:
            for result in sim.iter_markets(sim.replace(cfg, engine=engine), keep_log=True):
                empty += sum(row[5:9] == (None,) * 4 for row in result.bet_log)
    assert empty > 0


def test_the_fee_config_reads_fee_totals_both_ways(tmp_path):
    """The five-decimal fee config's run holds markets whose fee total reads
    to 6 places and some that read it as ``fee_rate * volume``, at 11, so
    both texts of ``markets.csv``'s fee column are compared byte for byte."""
    name, text = diff_outputs.FEE_CONFIG
    path = tmp_path / name
    path.write_text(text)
    places = {r.fee_places for r in sim.iter_markets(sim.load_config(path))}
    assert places == {6, 11}


def test_the_zero_fee_config_reads_fee_totals_to_seven_places(tmp_path):
    """At the zero-rate config's ``0.0`` every market that traded, and the
    run, write their fee total as ``0 * volume`` at the rate's exponent less
    6: ``0.0000000``, the text of ``Decimal("0E-7")``."""
    name, text = diff_outputs.ZERO_FEE_CONFIG
    assert diff_outputs.COMMANDS.count(["simulate", "--config", name, "--mode", "multi",
                                        "--engine", "uamm", "--out", "out"]) == 1
    path = tmp_path / name
    path.write_text(text)
    results, report = sim.run_multi_market(sim.load_config(path))
    assert results and all(r.volume_micro > 0 for r in results)
    assert {cli._market_text(r, ("0.0",) * 4).split(",")[10] for r in results} == {"0.0000000"}
    assert report.fee_revenue == "0.0000000"


def test_every_demo_is_compared():
    demos = {path.name for path in (diff_outputs.ROOT / "demos").glob("*.py")}
    assert sorted(diff_outputs.DEMOS) == sorted(demos)
