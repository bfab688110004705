"""Tests of the benchmark's own pieces: branch classifier, tracer, workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

import micro
import run
import spans
import uamm_lab
import workloads
from spans import BRANCHES, Tracer, classify_swap, conservation_gaps
from uamm_lab import ConditionalLedger, sim, swap_out
from uamm_lab.probes import continuity_report
from workloads import FEE_RATE, FULL_CONFIG, FULL_MARKETS, RECORDED_SEEDS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _branch_value(branch, d_in, f_in, f_out, r_out, tb):
    """``swap_out``'s result as each branch computes it."""
    if branch == "zero":
        return 0.0
    rho = f_in / f_out
    delta = rho * d_in
    x = 0.0 if tb <= 0.0 else tb * tb / r_out
    if branch == "straddle":
        alpha = r_out / (x + delta)
        return alpha * delta + (rho - alpha) * (r_out - tb)
    if branch == "surplus":
        return delta
    return r_out - tb * tb / (x + delta)


@pytest.mark.parametrize("args, branch", [
    ((0.0, 0.5, 0.5, 100.0, 90.0), "zero"),
    ((10.0, 0.5, 0.5, 0.0, 90.0), "zero"),
    ((10.0, 0.5, 0.5, 100.0, 90.0), "straddle"),   # tb == r_out - delta
    ((10.0, 0.5, 0.5, 100.0, 100.0), "straddle"),  # tb == r_out
    ((10.0, 0.5, 0.5, 100.0, math.nextafter(90.0, 0.0)), "surplus"),
    ((10.0, 0.5, 0.5, 100.0, math.nextafter(100.0, math.inf)), "deficit"),
    ((10.0, 0.5, 0.5, 100.0, 0.0), "surplus"),
])
def test_classifier_exact_boundaries(args, branch):
    assert classify_swap(*args) == branch


def test_classifier_agrees_with_swap_out_at_continuity_probe_boundary():
    """At the straddle/surplus boundary that ``continuity_report`` probes,
    and one ulp below it, the classified branch's formula reproduces
    ``swap_out`` exactly, and the two sides classify differently."""
    r_out = 10_000.0
    rows = continuity_report(r_out=r_out).rows
    assert rows
    for rho, d_in, gap in rows:
        f_out = 1.0 / (1.0 + rho)
        f_in = rho * f_out
        tb = r_out - rho * d_in
        seen = set()
        for t in (tb, math.nextafter(tb, 0.0), r_out, math.nextafter(r_out, math.inf)):
            args = (d_in, f_in, f_out, r_out, t)
            branch = classify_swap(*args)
            seen.add(branch)
            assert swap_out(*args) == _branch_value(branch, *args), (rho, d_in, t)
        assert "surplus" in seen and "deficit" in seen and "straddle" in seen
        if gap > 0:
            at = classify_swap(d_in, f_in, f_out, r_out, tb)
            below = classify_swap(d_in, f_in, f_out, r_out, math.nextafter(tb, 0.0))
            assert {at, below} == {"straddle", "surplus"}


def _callables():
    """Every function-valued attribute of the library's modules and classes."""
    found = {}
    for name, module in sys.modules.items():
        if name == "uamm_lab" or name.startswith("uamm_lab."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("uamm_lab"):
                    for meth, fn in vars(value).items():
                        found[(name, f"{attr}.{meth}")] = fn
    return found


def test_install_and_uninstall_restore_every_callable():
    before = _callables()
    with Tracer() as tracer:
        assert uamm_lab.uamm.swap_out is not before[("uamm_lab.uamm", "swap_out")]
        assert uamm_lab.sim.amount is not before[("uamm_lab.sim", "amount")]
        assert uamm_lab.ledger.ConditionalLedger.credit is not \
            before[("uamm_lab.ledger", "ConditionalLedger.credit")]
    assert not tracer.missing
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


MISSING_TARGETS = {
    "bogus.function": "uamm_lab.uamm:no_such_function",
    "bogus.module": "uamm_lab.no_such_module:function",
}


class _TinyMarkets(workloads._MultiMarket):
    name = "tiny"

    def prepare(self, seed, workdir):
        return [sim.SimConfig(k=2, probs=(0.8, 0.2), n_bets=50, n_markets=2, seed=seed)]


def test_unresolvable_trace_target_fails_the_traced_run(monkeypatch):
    for span, target in MISSING_TARGETS.items():
        monkeypatch.setitem(spans.TARGETS, span, target)
    before = _callables()
    with Tracer() as tracer:
        pass
    assert tracer.missing == list(MISSING_TARGETS.values())
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    monkeypatch.setattr(micro, "measure", lambda: {n: 1.0 for n in micro.NAMES})
    tiny = _TinyMarkets()
    checks = run.Checks(tiny.name, 0)
    run.run_traced(tiny, tiny.prepare(0, None), 0, checks)
    assert checks.problems
    assert all(f"trace target {t} not found" in checks.problems
               for t in MISSING_TARGETS.values())


def test_tracing_is_transparent_and_counts_reconcile():
    cfg = sim.SimConfig(k=2, probs=(0.8, 0.2), funding=500.0, side_mode="uniform",
                        rej_mean=0.025, rej_std=0.0, n_bets=2000, n_markets=3)
    _, plain = sim.run_multi_market(cfg)
    with Tracer() as tracer:
        _, traced = sim.run_multi_market(cfg)
    assert traced.csv_row() == plain.csv_row()
    counts = tracer.counts
    assert sum(counts[f"uamm.swap_out.branch.{b}"] for b in BRANCHES) == \
        tracer.spans["uamm.swap_out"][0]
    assert counts["uamm.unfillable.quote"] + counts["uamm.unfillable.buy"] == plain.unfillable
    assert counts["uamm.unfillable.quote"] > 0
    assert counts["uamm.buys"] == plain.accepted
    assert counts["uamm.probes"] == 2 * cfg.n_markets
    assert counts["conservation.uamm"] == cfg.n_markets
    assert not tracer.conservation_failures
    assert tracer.spans["sim.run_market"][0] == cfg.n_markets


def test_conservation_gap_is_detected():
    market = sim.build_market("uamm", "m", 2, (0.5, 0.5), 1000.0, 0.025)
    market.deposit("bettor", 100)
    market.buy("bettor", 1, 10)
    reads = (ConditionalLedger.accounts, ConditionalLedger.balance)
    assert not any(conservation_gaps(market, *reads))
    market.ledger.locked += 1
    assert all(conservation_gaps(market, *reads))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_summary_digest_is_stable_in_process(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.prepare(0, tmp_path)
    first = workload.outcome(inputs, workload.execute(inputs))
    second = workload.outcome(inputs, workload.execute(inputs))
    assert not first.problems and not second.problems
    assert first.digest == second.digest
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert recorded[name]["0"] == first.digest


def test_unrecorded_seed_is_checked_at_a_recorded_seed(tmp_path):
    workload = WORKLOADS["thin-quotes"]
    checks = run.Checks(workload.name, RECORDED_SEEDS + 7)
    assert checks.expected is None
    run.check_recorded_seed(workload, 7, tmp_path / "a", checks)
    assert not checks.problems
    checks.recorded["7"] = "0" * 16
    run.check_recorded_seed(workload, 7, tmp_path / "b", checks)
    assert len(checks.problems) == 1 and "!= recorded" in checks.problems[0]
    assert checks.failed > 0 and checks.attempted == 2 * checks.failed


def test_full_config_file_reproduces_full_config(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(FULL_CONFIG.format(fee_rate=FEE_RATE, n_markets=FULL_MARKETS, seed=7))
    assert sim.load_config(path) == sim.full_config(seed=7, n_markets=FULL_MARKETS)


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_units().items())


def test_micro_reports_every_name():
    assert tuple(micro.measure()) == micro.NAMES
