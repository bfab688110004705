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
