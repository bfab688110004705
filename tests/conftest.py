import math
import sys
from decimal import Decimal
from fractions import Fraction

from uamm_lab import sim
from uamm_lab.baseline import cpmm_swap
from uamm_lab.fixedpoint import PRECISION, UNIT, ZERO, add_exact, format_micro, mul_exact, to_micro
from uamm_lab.ledger import COLLATERAL, InsufficientBalance, Phase, PhaseError
from uamm_lab.market import BetRecord
from uamm_lab.metrics import summarize
from uamm_lab.uamm import PoolState, Quote, UnfillableQuote, swap_out

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


def run_seeded_markets(cfg, **run_opts):
    """``sim.run_multi_market(cfg)`` market by market, keeping each market:
    ``(results, report, bets)``, where ``bets[m]`` is market ``m``'s
    ``market.bets``, the records of its executed bets."""
    results, bets = [], []
    for m in range(cfg.n_markets):
        market, draws, winner = sim.seeded_market(cfg, m)
        results.append(sim.run_market(market, draws, winner, **run_opts))
        bets.append(market.bets)
    return results, summarize(results, cfg.engine), bets


def recompute_from_records(results, bets) -> dict:
    """Independent brute-force recomputation of EV/EIP/EPP from raw bets.

    Re-derives each market's final pool state from its bet records
    (``bets[m]``, the last record's post-trade snapshot) instead of trusting
    the streaming pool state, and re-evaluates the formulas with plain
    Python loops.  Used as a cross-check oracle against
    :func:`uamm_lab.metrics.summarize`.
    """
    eip_vals = []
    epp_vals = []
    ev_vals = []
    for r, records in zip(results, bets, strict=True):
        r_end = records[-1].post_r if records else r.r_start
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


def swap_branch(d, f_in, f_out, r_out, tb) -> str:
    """Which branch of :func:`uamm_lab.uamm.swap_out` these inputs take, tested
    in its order: the zero-input / empty-pool return, straddle, surplus, else
    deficit."""
    if d == 0.0 or r_out <= 0.0:
        return "zero"
    if r_out - f_in / f_out * d <= tb <= r_out:
        return "straddle"
    return "surplus" if tb <= r_out else "deficit"


def float_view(pool):
    """``(tb, comb)``: the float of the pool's target balance (0.0 for a pool
    without one) and the combined reserves ``(0.0, rf[1] + rf[0], ...)`` a
    quote starts from, where ``rf`` is the float of every reserve; built
    from the pool's exact reads, not from anything the pool keeps for its
    quotes."""
    tb = float(pool.tb) if isinstance(pool, PoolState) else 0.0
    rf = [float(n / UNIT) for n in pool.r_micro]
    return tb, (0.0, *[x + rf[0] for x in rf[1:]])


def six_places(text):
    """A pinned amount's text, recorded at the fee rate's exponent when fees
    read there, written to 6 places; checked to keep its value."""
    six = f"{Decimal(text):.6f}"
    assert Decimal(six) == Decimal(text)
    return six


def reference_quote(pool, fair, i, wager, fee_rate=0, engine="uamm", branches=None):
    """A quote computed leg by leg through the public swap kernels.

    The quote pipeline as it ran before each engine had its own kernel: one
    loop for both engines calling :func:`~uamm_lab.uamm.swap_out` (UAMM) or
    :func:`~uamm_lab.baseline.cpmm_swap` (CPMM) once per leg, with the
    kernels' input checks.  The kernels must equal it bit for bit.
    ``engine`` selects the swap rule (the quote does not carry it), and
    ``branches``, a list, collects the :func:`swap_branch` of every UAMM leg.
    """
    tb, comb = float_view(pool)
    if not 0 < i < len(comb):
        raise ValueError(f"unknown outcome {i} for a {len(comb) - 1}-outcome market")
    d = float(wager)
    if not 0.0 <= d < math.inf:
        raise ValueError(f"wager must be finite and non-negative, got {d!r}")
    f = fair.probs
    fi = f[i - 1]
    if d == 0.0:
        return Quote(i, 0.0, 0.0, fi, 0.0, 0.0)
    ri = comb[i]
    odd = d
    for j, fj in enumerate(f, 1):
        if j == i:
            continue
        if engine == "cpmm":
            s = cpmm_swap(d, comb[j], ri)
        else:
            if branches is not None:
                branches.append(swap_branch(d, fj, fi, ri, tb))
            s = swap_out(d, fj, fi, ri, tb)
        if s > ri:
            raise UnfillableQuote(f"wager {d} on outcome {i} would drain the pool")
        ri -= s
        odd += s
    implied = d / odd
    return Quote(i, d, odd, implied, implied - fi, float(fee_rate) * d)


def reference_buy(market, account, i, wager, branches=None):
    """``market.buy(account, i, wager)`` computed leg by leg through the
    public swap kernels.

    The execution pipeline as it ran before each engine had its own leg
    loop: the reserves combined into a scratch copy, one
    ``to_micro(swap_out(...))`` (UAMM) or ``to_micro(cpmm_swap(...))`` (CPMM)
    per leg, each leg reading its pools as ``n / UNIT`` floats of the
    scratch copy, and the merge of the smallest conditional pool back into
    collateral.  The fee is the exact Decimal ``wager * fee_rate``, rounded
    half-even to the grid when it lies off it, and is summed into the fee
    book as a Decimal; the int fee fields are read off those Decimals, and
    the record and the book must read their values, to 6 places.  It commits
    to ``market`` as ``buy`` does, so the two must leave equal records and
    snapshots and raise the same exceptions.
    ``branches``, a list, collects the :func:`swap_branch` of every UAMM
    leg.
    """
    ledger, pool, spec = market.ledger, market.pool, market.spec
    if ledger.phase is not Phase.OPEN:
        raise PhaseError(f"market is {ledger.phase.value}, not open")
    if not 1 <= i <= spec.k:
        raise ValueError(f"unknown outcome {i} for a {spec.k}-outcome market")
    n = to_micro(wager)
    if n <= 0:
        if n or float(wager) < 0:
            raise ValueError("wager must be non-negative")
        record = BetRecord(len(market.bets), i, 0, 0, 0, None,
                           market.fair.probs[i - 1], 0.0, tuple(pool.r_micro))
        assert str(record.fee) == str(ZERO)
        market.bets.append(record)
        return record
    d = mul_exact(PRECISION, n)
    fee = mul_exact(d, spec.fee_rate)
    exact = Fraction(fee) * UNIT
    fee_n = round(exact)  # half-even
    if fee_n != exact:
        fee = mul_exact(PRECISION, fee_n)
    cost = n + fee_n
    acct = ledger.bal_micro.get(account)
    if acct is None or acct[COLLATERAL] < cost:
        raise InsufficientBalance(f"{account} cannot cover wager {d} "
                                  f"plus fee {format_micro(fee_n)}")
    f = market.fair.probs
    fi = f[i - 1]
    # combine: the collateral pool is minted into K uniform sets
    c = pool.r_micro[0]
    rw = [x + c for x in pool.r_micro]
    rw[0] = 0
    df = n / UNIT
    tb = pool.tb_float
    odd = n
    for j in range(1, spec.k + 1):
        if j == i:
            continue
        if market.engine == "cpmm":
            s = to_micro(cpmm_swap(df, rw[j] / UNIT, rw[i] / UNIT))
        else:
            if branches is not None:
                branches.append(swap_branch(df, f[j - 1], fi, rw[i] / UNIT, tb))
            s = to_micro(swap_out(df, f[j - 1], fi, rw[i] / UNIT, tb))
        rw[j] += n
        if s < 0 or s > rw[i]:
            raise UnfillableQuote(f"wager {d} on outcome {i} would drain the pool")
        rw[i] -= s
        odd += s
    # merge the uniform set every conditional pool holds back into collateral
    m = min(rw[1:])
    rw = [x - m for x in rw]
    rw[0] = m
    acct[COLLATERAL] -= cost
    acct[i] += odd
    ledger.locked_micro += n + c - m
    pool.r_micro = rw
    book = add_exact(pool.fee_accrued, fee)
    pool.fee_micro += fee_n
    assert pool.fee_accrued == book and str(pool.fee_accrued) == format_micro(pool.fee_micro)
    s_lp = market._mint_treasury(n)
    implied = df / (odd / UNIT)
    record = BetRecord(len(market.bets), i, n, fee_n, odd, s_lp,
                       implied, implied - fi, tuple(rw))
    assert repr((record.wager, record.odd)) == repr((d, mul_exact(PRECISION, odd)))
    assert record.fee == fee and str(record.fee) == format_micro(fee_n)
    market.bets.append(record)
    return record
