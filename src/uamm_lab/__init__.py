"""Fair-price AMM laboratory for conditional-token sports betting.

Building blocks:

* :mod:`uamm_lab.ledger` -- conditional-token accounting (mint, merge,
  resolve, redeem) with an exact collateral-conservation invariant.
* :mod:`uamm_lab.market` -- what every engine shares: the market lifecycle,
  the bet pipeline, the pool's reserves and fee book, the fair-price vector
  and the quote and bet records.
* :mod:`uamm_lab.uamm` -- the fair-price engine's rule: the piecewise swap
  rule, its quote kernel and buy legs, and LP share bookkeeping.
* :mod:`uamm_lab.baseline` -- the constant-product comparison engine's rule,
  on the same market.
* :mod:`uamm_lab.sim` -- seeded Monte-Carlo betting experiments.
* :mod:`uamm_lab.metrics` -- LP profit/loss metrics (EV, EIP, EPP, TP,
  vigorish) over simulated trajectories.
* :mod:`uamm_lab.probes` -- numeric probes for the engine's structural
  properties.
* :mod:`uamm_lab.cli` -- the ``uamm-lab`` command-line driver.

The package namespace holds the names the README, the demos and the
benchmark import from it; everything else is imported from its module.
"""

from .baseline import cpmm_swap
from .fixedpoint import amount
from .ledger import ConditionalLedger
from .market import UnfillableQuote
from .metrics import summarize
from .sim import SimConfig, build_market, run_multi_market
from .uamm import calc_odds, swap_out

__version__ = "0.1.0"

__all__ = [
    "ConditionalLedger",
    "SimConfig",
    "UnfillableQuote",
    "amount",
    "build_market",
    "calc_odds",
    "cpmm_swap",
    "run_multi_market",
    "summarize",
    "swap_out",
]
