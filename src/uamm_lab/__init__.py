"""Fair-price AMM laboratory for conditional-token sports betting.

Building blocks:

* :mod:`uamm_lab.ledger` -- conditional-token accounting (mint, merge,
  resolve, redeem) with an exact collateral-conservation invariant.
* :mod:`uamm_lab.uamm` -- the fair-price swap engine: piecewise swap rule,
  odds calculation, bet pipeline, and LP share bookkeeping.
* :mod:`uamm_lab.baseline` -- a constant-product comparison engine over the
  same ledger.
* :mod:`uamm_lab.sim` -- seeded Monte-Carlo betting experiments.
* :mod:`uamm_lab.metrics` -- LP profit/loss metrics (EV, EIP, EPP, TP,
  vigorish) over simulated trajectories.
* :mod:`uamm_lab.probes` -- numeric probes for the engine's structural
  properties.
* :mod:`uamm_lab.cli` -- the ``uamm-lab`` command-line driver.
"""

from .baseline import CpmmMarket, CpmmPool, cpmm_swap
from .fixedpoint import PRECISION, ZERO, amount
from .ledger import (
    COLLATERAL,
    ConditionalLedger,
    InsufficientBalance,
    LedgerError,
    MarketSpec,
    OracleError,
    Phase,
    PhaseError,
)
from .metrics import MetricsReport, eip, epp, ev, summarize
from .probes import continuity_report, property_report
from .sim import (
    ConfigError,
    MarketResult,
    SimConfig,
    build_market,
    full_config,
    load_config,
    run_multi_market,
    run_prob_sweep,
    run_rejection_sweep,
    run_single_market,
)
from .uamm import (
    BetRecord,
    FairPriceVector,
    PoolState,
    Quote,
    UammMarket,
    UnfillableQuote,
    calc_odds,
    spot_price,
    swap_out,
)

__version__ = "0.1.0"

__all__ = [
    "BetRecord",
    "COLLATERAL",
    "ConditionalLedger",
    "ConfigError",
    "CpmmMarket",
    "CpmmPool",
    "FairPriceVector",
    "InsufficientBalance",
    "LedgerError",
    "MarketResult",
    "MarketSpec",
    "MetricsReport",
    "OracleError",
    "Phase",
    "PhaseError",
    "PoolState",
    "PRECISION",
    "Quote",
    "SimConfig",
    "UammMarket",
    "UnfillableQuote",
    "ZERO",
    "amount",
    "build_market",
    "calc_odds",
    "continuity_report",
    "cpmm_swap",
    "eip",
    "epp",
    "ev",
    "full_config",
    "load_config",
    "property_report",
    "run_multi_market",
    "run_prob_sweep",
    "run_rejection_sweep",
    "run_single_market",
    "spot_price",
    "summarize",
    "swap_out",
]
