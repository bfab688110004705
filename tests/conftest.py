import sys

_config = None


def pytest_configure(config):
    global _config
    _config = config


def assert_conserved(market):
    """The market's own books check: tokens and collateral conserved, every
    stored balance an int >= 0 of micro-units."""
    market.check_invariants()


def announce(number, name, ok, detail=""):
    """One terminal-visible pass/fail line per acceptance criterion."""
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number:2d} {name}: {status}{suffix}"
    reporter = (
        _config.pluginmanager.get_plugin("terminalreporter") if _config else None
    )
    if reporter is not None:
        # bypasses output capture so the line lands in the terminal report
        reporter.write_line("")
        reporter.write_line(line)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    assert ok, f"criterion {number} {name} failed{suffix}"


def recompute_from_records(results) -> dict:
    """Independent brute-force recomputation of EV/EIP/EPP from raw bets.

    Re-derives each market's final pool state from its bet records (the last
    record's post-trade snapshot) instead of trusting the streaming pool
    state, and re-evaluates the formulas with plain Python loops.  Used as a
    cross-check oracle against :func:`uamm_lab.metrics.summarize`.
    """
    eip_vals = []
    epp_vals = []
    ev_vals = []
    for r in results:
        r_end = r.records[-1].post_r if r.records else r.r_start
        k_count = len(r_end) - 1
        deltas = []
        for k in range(1, k_count + 1):
            deltas.append(r_end[k] - r.r_start[k])
        acc_eip = 0.0
        for f, d in zip(r.fair, deltas):
            acc_eip += f * d
        eip_vals.append(acc_eip)
        epp_vals.append(deltas[r.winner - 1])
        z = 0.0
        for k in range(1, k_count + 1):
            z += r_end[k]
        acc_ev = 0.0
        for f, rk in zip(r.fair, r_end[1:]):
            acc_ev += f * rk - (1.0 - f) * (z - rk)
        ev_vals.append(acc_ev)
    m = len(results)
    return {
        "eip_mean": sum(eip_vals) / m,
        "epp_mean": sum(epp_vals) / m,
        "ev_mean": sum(ev_vals) / m,
    }
