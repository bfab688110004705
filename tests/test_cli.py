import csv
import tracemalloc

import numpy as np
import pytest

from uamm_lab import cli, sim

QUOTE_ARGS = [
    "quote", "--k", "2", "--probs", "0.5,0.5", "--funding", "10000",
    "--outcome", "1", "--wager", "10",
]

SMALL_CFG = (
    "k = 2\nprobs = 0.5,0.5\nn_bets = 50\nn_markets = 3\nseed = 5\n"
)


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_quote_reference_value(capsys):
    assert cli.main(QUOTE_ARGS) == 0
    out = capsys.readouterr().out
    assert "odd            19.990010" in out
    assert "decimal odds   1.999001" in out


def test_quote_zero_wager(capsys):
    args = QUOTE_ARGS[:-1] + ["0"]
    assert cli.main(args) == 0
    assert "odd            0.000000" in capsys.readouterr().out


def test_quote_csv_format(capsys):
    assert cli.main(QUOTE_ARGS + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "engine", "market_id", "outcome", "wager", "odd",
        "implied_price", "slippage", "fee",
    ]
    row = dict(zip(header, lines[1].split(",")))
    assert (row["engine"], row["market_id"]) == ("uamm", "quote")


def test_quote_rejects_bad_probabilities(capsys):
    args = ["quote", "--k", "2", "--probs", "0.5,0.6", "--funding", "10000",
            "--outcome", "1", "--wager", "10"]
    assert cli.main(args) == 1
    assert "error" in capsys.readouterr().err


def test_quote_rejects_mismatched_prob_count(capsys):
    args = ["quote", "--k", "2", "--probs", "0.5", "--funding", "10000",
            "--outcome", "1", "--wager", "10"]
    assert cli.main(args) == 1


def test_unknown_flag_exits_one(capsys):
    assert cli.main(QUOTE_ARGS + ["--frobnicate"]) == 1


def test_missing_subcommand_exits_one():
    assert cli.main([]) == 1


@pytest.mark.parametrize("flag,value", [
    ("--wager", "nan"), ("--wager", "inf"), ("--funding", "nan"),
    ("--funding", "inf"), ("--funding", "-inf"), ("--fee-rate", "nan"),
])
def test_quote_rejects_non_finite_input(capsys, flag, value):
    # a repeated option overrides the earlier one
    assert cli.main(QUOTE_ARGS + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--wager", "--funding"])
def test_quote_rejects_huge_amounts(capsys, flag):
    # 1e22 needs more than the 28 digits Decimal carries at six decimals
    assert cli.main(QUOTE_ARGS + [flag, "1e22"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "1e+22" in captured.err
    assert "Traceback" not in captured.err


def test_draining_quote_exits_three(capsys):
    # against a fresh 1,000 pool the float swap output of a 1e20 wager rounds
    # above the output pool: an unfillable quote, not an invariant violation
    args = ["quote", "--k", "2", "--probs", "0.5,0.5", "--funding", "1000",
            "--outcome", "1", "--wager", "1e20"]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "drain the pool" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_single_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--mode", "single",
                     "--out", str(out)]) == 0
    for name in ("bets.csv", "markets.csv", "summary.csv",
                 "plot_single_market.csv"):
        assert (out / name).exists(), name
    traj = read_rows(out / "plot_single_market.csv")
    assert len(traj) == 50
    assert set(traj[0]) == {"step", "balance_1", "balance_2",
                            "rejected_cum", "eip"}


def test_simulate_multi_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--mode", "multi",
                     "--out", str(out)]) == 0
    markets = read_rows(out / "markets.csv")
    assert len(markets) == 3
    summary = read_rows(out / "summary.csv")
    assert summary[0]["mode"] == "multi"
    assert summary[0]["engine"] == "uamm"
    bets = read_rows(out / "bets.csv")
    assert len(bets) == 150
    plot = read_rows(out / "plot_markets.csv")
    assert plot == [
        {"market_index": str(i), "eip": m["eip"], "epp": m["epp"],
         "ev_final": m["ev_final"]}
        for i, m in enumerate(markets)
    ]


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("mode", ["single", "multi"])
def test_zero_fee_totals_read_in_fixed_point(tmp_path, capsys, engine, mode):
    # a 0.0 fee rate makes every exact fee 0 at exponent -7, which str
    # writes as 0E-7
    cfg = write_cfg(tmp_path, SMALL_CFG + "fee_rate = 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--mode", mode, "--engine", engine,
                     "--out", str(out)]) == 0
    assert "fee_revenue=0.0000000," in capsys.readouterr().out
    summary = read_rows(out / "summary.csv")[0]
    assert summary["fee_revenue"] == "0.0000000"
    assert float(summary["volume"]) > 0
    fees = {row["fee"] for row in read_rows(out / "markets.csv")}
    assert fees == {"0.0000000"}
    assert {row["fee"] for row in read_rows(out / "bets.csv")} <= {"0.0", ""}


def test_a_negative_zero_fee_rate_exits_one(tmp_path, capsys):
    assert cli.main(QUOTE_ARGS + ["--fee-rate", "-0.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fee_rate must be in [0, 1)\n"
    cfg = write_cfg(tmp_path, SMALL_CFG + "fee_rate = -0.0\n")
    out = tmp_path / "o"
    for mode in ("single", "multi", "full", "sweep"):
        assert cli.main(["simulate", "--mode", mode, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: fee_rate must be in [0, 1)\n"
    assert not out.exists()


def test_simulate_full_mode_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--mode", "full", "--seed", "2",
                     "--out", str(out)]) == 0
    summary = read_rows(out / "summary.csv")[0]
    for col in ("total_bets", "volume", "epp_mean", "epp_plus_fee"):
        assert col in summary
    line = capsys.readouterr().out
    assert "total_bets=" in line


def test_simulate_sweep_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "n_bets = 20\nn_markets = 4\nseed = 1\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--mode", "sweep",
                     "--out", str(out)]) == 0
    rows = read_rows(out / "plot_prob_sweep.csv")
    assert len(rows) == 14  # 7 probabilities x 2 side modes
    probs = sorted({r["prob"] for r in rows})
    assert probs == ["0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8"]
    assert {r["side_mode"] for r in rows} == {"true-prob", "uniform"}
    rej = read_rows(out / "plot_rejection_sweep.csv")
    assert [r["threshold"] for r in rej] == ["0.025", "0.035", "0.045",
                                             "0.065", "1.0"]
    bands = read_rows(out / "sweep_bands.csv")
    assert {b["side_mode"] for b in bands} == {"true-prob", "uniform"}
    assert "declared band" in capsys.readouterr().out


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bankroll = 7\n")
    assert cli.main(["simulate", "--config", cfg]) == 1
    assert "bankroll" in capsys.readouterr().err


def test_simulate_rejects_non_finite_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG + "rej_mean = nan\n")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rej_mean" in err


@pytest.mark.parametrize("line", ["rej_std = -0.1", "k = 1,2", "probs = uniform:0.5,1.5",
                                  "n_bets = lognormal:2,-1"])
def test_simulate_rejects_a_bad_sampling_rule_before_any_market_runs(
        tmp_path, capsys, monkeypatch, line):
    def no_market(*args, **kwargs):
        raise AssertionError("a market ran")

    monkeypatch.setattr(sim, "simulate_one", no_market)
    monkeypatch.setattr(sim, "run_single_market", no_market)
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("k = 2\nprobs = 0.5,0.5\n", "") + line + "\n")
    out = tmp_path / "o"
    for mode in ("single", "multi"):
        assert cli.main(["simulate", "--mode", mode, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split(" ")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["n_bets = lognormal:2", "probs = uniform:0.2",
                                  "n_markets = 1.5", "k = 2.5"])
def test_simulate_names_the_file_line_and_key_of_a_bad_value(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, SMALL_CFG + line + "\n")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    key = line.split(" ")[0]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:6: bad {key} value "), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["single", "multi", "full", "sweep"])
def test_simulate_rejects_a_duplicated_config_key(tmp_path, capsys, mode):
    # SMALL_CFG sets seed = 5 on line 5; a second seed must not silently win
    cfg = write_cfg(tmp_path, SMALL_CFG + "seed = 6\n")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--mode", mode, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:6: duplicate key 'seed'\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["k = 3", "k = 2,3"])
def test_simulate_rejects_k_choices_unlike_the_fixed_probs(tmp_path, capsys, line):
    # the default probs are 0.5,0.5: two outcomes
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("k = 2\nprobs = 0.5,0.5\n", "") + line + "\n")
    out = tmp_path / "o"
    for mode in ("single", "multi", "sweep"):
        assert cli.main(["simulate", "--mode", mode, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k must equal" in err
    assert not out.exists()


@pytest.mark.parametrize("extra,flags,message", [
    ("funding = 1e22\n", [], "1e+22"),
    ("funding = 1e30\n", [], "too many digits"),
    ("funding = 1e-9\n", [], "funding must be positive"),
    ("seed = -1\n", [], "seed must be >= 0"),
    ("", ["--seed", "-1"], "seed must be >= 0"),
], ids=["funding-1e22", "funding-1e30", "funding-1e-9", "seed-negative", "seed-flag-negative"])
def test_simulate_rejects_huge_funding(tmp_path, capsys, monkeypatch, extra, flags, message):
    """A config no market can be built from exits 1 before the output
    directory is made."""
    monkeypatch.delenv("UAMM_LAB_SEED", raising=False)
    # a key given twice is an error of its own, so SMALL_CFG's seed line goes
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("seed = 5\n", "") + extra)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("extra,message", [
    ("wager_mu = 800\n", "must be finite, got inf"),
    ("wager_mu = 800\nwager_sigma = 0\n", "must be finite, got inf"),
    ("wager_mu = 60\nwager_sigma = 0\n", "too many digits"),
])
def test_simulate_rejects_unrepresentable_wagers(tmp_path, capsys, extra, message):
    cfg = write_cfg(tmp_path, SMALL_CFG + extra)
    with np.errstate(over="ignore"):
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_failed_simulate_leaves_no_bets_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG + "wager_mu = 800\n")
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_simulate_failing_part_way_keeps_the_earlier_bets_csv(tmp_path, capsys,
                                                              monkeypatch, mode):
    """``bets.csv`` is streamed to a temporary file that replaces it only
    when the run succeeds."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--mode", mode, "--out", str(out)]) == 0
    before = (out / "bets.csv").read_bytes()
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"markets.csv", "summary.csv"} <= set(earlier)
    assert ("plot_markets.csv" in earlier) == (mode == "multi")

    seeded_market = sim.seeded_market

    def failing_seeded_market(cfg, index):
        # multi fails at its third market, after two have been written
        if index == 2 or mode == "single":
            raise ValueError("market failed")
        return seeded_market(cfg, index)

    monkeypatch.setattr(sim, "seeded_market", failing_seeded_market)
    assert cli.main(["simulate", "--config", cfg, "--mode", mode, "--seed", "6",
                     "--out", str(out)]) == 1
    assert "market failed" in capsys.readouterr().err
    assert (out / "bets.csv").read_bytes() == before
    assert not (out / "bets.csv.tmp").exists()
    # every other file of the earlier run is left as it was, and no
    # temporary file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    assert not list(out.glob("*.tmp"))


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_one_market_bet_log_at_a_time(tmp_path, capsys):
    """Ten times the bets per market (20 markets of 50, then of 500) grows
    a run's peak traced memory by less than 1 MiB: only the market being
    run keeps its bet log.  Holding every log until the end grows it by
    about 2.5 MiB."""
    def argv(n_bets):
        cfg = write_cfg(tmp_path, f"n_bets = {n_bets}\nn_markets = 20\nseed = 3\n",
                        name=f"n{n_bets}.cfg")
        return ["simulate", "--config", cfg, "--mode", "multi",
                "--out", str(tmp_path / f"out{n_bets}")]

    assert cli.main(argv(50)) == 0  # warm-up: first-use allocations
    small, large = _traced_peak(argv(50)), _traced_peak(argv(500))
    assert len(read_rows(tmp_path / "out500" / "bets.csv")) == 20 * 500
    assert large - small < 2 ** 20


def test_simulate_holds_one_market_at_a_time(tmp_path, capsys):
    """Ten times the markets (100 of 5 bets, then 1,000) grows a run's peak
    traced memory by less than 0.5 MiB: every CSV row is written as its
    market finishes, and the summary keeps a few floats per market.
    Holding every market's result and rows until the end grows it by about
    1.5 MiB."""
    def argv(n_markets):
        cfg = write_cfg(tmp_path, f"n_bets = 5\nn_markets = {n_markets}\nseed = 3\n",
                        name=f"m{n_markets}.cfg")
        return ["simulate", "--config", cfg, "--mode", "multi",
                "--out", str(tmp_path / f"out{n_markets}")]

    assert cli.main(argv(100)) == 0  # warm-up: first-use allocations
    small, large = _traced_peak(argv(100)), _traced_peak(argv(1000))
    for name in ("markets.csv", "plot_markets.csv"):
        assert len(read_rows(tmp_path / "out1000" / name)) == 1000
    assert len(read_rows(tmp_path / "out1000" / "bets.csv")) == 5 * 1000
    assert large - small < 2 ** 19


def test_simulate_missing_config_file(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_engine_override(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--engine", "cpmm",
                     "--out", str(out)]) == 0
    assert read_rows(out / "summary.csv")[0]["engine"] == "cpmm"


def test_seed_precedence_env_over_flag_over_config(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)

    def summary_seed(out):
        return read_rows(out / "summary.csv")[0]["seed"]

    out1 = tmp_path / "o1"
    cli.main(["simulate", "--config", cfg, "--out", str(out1)])
    assert summary_seed(out1) == "5"  # from config

    out2 = tmp_path / "o2"
    cli.main(["simulate", "--config", cfg, "--seed", "8", "--out", str(out2)])
    assert summary_seed(out2) == "8"  # flag beats config

    monkeypatch.setenv("UAMM_LAB_SEED", "13")
    out3 = tmp_path / "o3"
    cli.main(["simulate", "--config", cfg, "--seed", "8", "--out", str(out3)])
    assert summary_seed(out3) == "13"  # env beats flag


def test_same_seed_twice_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", cfg, "--out", str(out1)])
    cli.main(["simulate", "--config", cfg, "--out", str(out2)])
    for name in ("bets.csv", "markets.csv", "summary.csv", "plot_markets.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_probe_default_runs_both_suites(capsys):
    assert cli.main(["probe"]) == 0
    out = capsys.readouterr().out
    assert "liquidity properties" in out
    assert "continuity" in out


def test_probe_properties_only(capsys):
    assert cli.main(["probe", "--properties"]) == 0
    out = capsys.readouterr().out
    assert "continuity" not in out


def test_console_script_is_registered(capsys, monkeypatch):
    # The declaration is checked from the source tree, so the test also runs
    # where the package is not installed; the installed registration is
    # checked wherever a distribution is found.
    import importlib.metadata as md
    import pathlib
    import sys

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    declared = scripts.get("uamm-lab")
    assert declared == "uamm_lab.cli:main", scripts

    # What the generated wrapper does: load the target, then
    # sys.exit(main()) with the command line in sys.argv.
    ep = md.EntryPoint(name="uamm-lab", value=declared,
                       group="console_scripts")
    main = ep.load()
    assert main is cli.main
    monkeypatch.setattr(sys, "argv", ["uamm-lab", *QUOTE_ARGS])
    assert main() == 0
    assert "odd            19.990010" in capsys.readouterr().out

    try:
        dist = md.distribution("uamm-lab")
    except md.PackageNotFoundError:
        return
    installed = {e.name: e.value for e in dist.entry_points
                 if e.group == "console_scripts"}
    assert installed.get("uamm-lab") == declared
