"""Isolated per-operation costs with ``timeit``, best of five repeats.

These reproduce the per-layer table of ROADMAP item 1 so its figures can be
checked against the traced spans; see ``NOTES.md`` for the comparison.
"""

from __future__ import annotations

import itertools
import timeit
from decimal import Decimal

from uamm_lab import amount, calc_odds, cpmm_swap, sim, summarize, swap_out

REPEAT = 5

#: ROADMAP item 1 figures (Python 3.11.7, 2 vCPUs, best of 5 with timeit).
ROADMAP_TABLE = {
    "micro.swap_out_us": 0.22,
    "micro.calc_odds_k2_us": 6.0,
    "micro.calc_odds_k3_us": 6.2,
    "micro.uamm_buy_k2_us": 16.4,
    "micro.amount_float_us": 1.1,
    "micro.summarize_200_ms": 1.0,
}

#: Every metric :func:`measure` returns; the unit is the name's suffix.
NAMES = (
    "micro.swap_out_us", "micro.cpmm_swap_us", "micro.calc_odds_k2_us",
    "micro.calc_odds_k3_us", "micro.uamm_buy_k2_us", "micro.cpmm_buy_k2_us",
    "micro.amount_float_us", "micro.summarize_200_ms",
)


def _best(stmt, number: int, setup=None) -> float:
    """Seconds per call: the fastest of ``REPEAT`` runs of ``number`` calls."""
    timer = timeit.Timer(stmt, setup=setup or "pass")
    return min(timer.repeat(repeat=REPEAT, number=number)) / number


def _buy_cost(engine: str, number: int) -> float:
    """One buy of 10.00 on a funded 2-outcome market, alternating sides so
    the pool stays near balance; a fresh market for every repeat."""
    state = {}

    def setup():
        market = sim.build_market(engine, "micro", 2, (0.5, 0.5), 10_000.0, 0.025)
        market.deposit("bettor", 11 * number)
        state["buy"] = market.buy
        state["sides"] = itertools.cycle((1, 2))

    wager = Decimal("10.000000")

    def stmt():
        state["buy"]("bettor", next(state["sides"]), wager)

    return _best(stmt, number, setup)


def measure() -> dict[str, float]:
    """micro metric name -> cost, in the unit its name ends with."""
    k2 = sim.build_market("uamm", "micro", 2, (0.5, 0.5), 10_000.0, 0.025)
    k3 = sim.build_market("uamm", "micro", 3, (0.2, 0.3, 0.5), 10_000.0, 0.025)
    wager = Decimal("10.000000")
    results, _ = sim.run_multi_market(sim.SimConfig(n_bets=10, n_markets=200))
    us = 1e6
    costs = {
        "micro.swap_out_us": us * _best(lambda: swap_out(10.0, 0.5, 0.5, 20_000.0, 10_000.0), 100_000),
        "micro.cpmm_swap_us": us * _best(lambda: cpmm_swap(10.0, 10_000.0, 10_000.0), 100_000),
        "micro.calc_odds_k2_us": us * _best(lambda: calc_odds(k2.pool, k2.fair, 1, wager), 10_000),
        "micro.calc_odds_k3_us": us * _best(lambda: calc_odds(k3.pool, k3.fair, 1, wager), 10_000),
        "micro.uamm_buy_k2_us": us * _buy_cost("uamm", 4_000),
        "micro.cpmm_buy_k2_us": us * _buy_cost("cpmm", 4_000),
        "micro.amount_float_us": us * _best(lambda: amount(12.34), 100_000),
        "micro.summarize_200_ms": 1e3 * _best(lambda: summarize(results, "uamm"), 50),
    }
    return {name: costs[name] for name in NAMES}
