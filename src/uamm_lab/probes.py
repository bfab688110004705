"""Numeric probes for the engine's structural properties.

* Liquidity properties: adding/removing funds is additive and reversible
  while fair prices stay fixed, over randomized pool states.
* Swap branch boundary: where the straddling branch meets the surplus branch
  the printed piecewise formula is discontinuous for exchange rates != 1.
  The probe measures the gap on a grid and reports it; it deliberately does
  not assert, because the discontinuity is a property of the formula as
  printed, not an implementation defect.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .fixedpoint import amount
from .uamm import FairPriceVector, PoolState, swap_out


def _rel_err(a, b) -> float:
    fa, fb = float(a), float(b)
    return abs(fa - fb) / max(1.0, abs(fa), abs(fb))


def _random_pool(rng) -> tuple[PoolState, FairPriceVector]:
    """A pool reached through a random add/remove history."""
    k = int(rng.integers(2, 4))
    if k == 2:
        p = float(rng.uniform(0.1, 0.9))
        fair = FairPriceVector((p, 1.0 - p))
    else:
        v = rng.uniform(0.1, 0.9, k)
        fair = FairPriceVector(tuple(v / v.sum()))
    pool = PoolState.empty(k)
    pool.add(amount(float(rng.uniform(1_000.0, 100_000.0))), fair)
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.5:
            pool.add(amount(float(rng.uniform(10.0, 20_000.0))), fair)
        elif pool.ts > 1:
            pool.remove(pool.ts * Decimal(repr(float(rng.uniform(0.05, 0.5)))))
    return pool, fair


@dataclass
class PropertyReport:
    n_states: int
    max_add_additivity: float
    max_remove_additivity: float
    max_add_reversibility: float
    max_remove_reversibility: float

    @property
    def max_error(self) -> float:
        """The largest of the four errors: every field after ``n_states``."""
        return max(astuple(self)[1:])


def _state_gap(a: PoolState, b: PoolState) -> float:
    return max(
        _rel_err(a.r[0], b.r[0]),
        _rel_err(a.ts, b.ts),
        _rel_err(a.tb, b.tb),
    )


#: Randomized pool states the liquidity probe visits, drawn from seed 0.
_N_STATES = 1000


def property_report() -> PropertyReport:
    """Max relative error of the additivity/reversibility properties over
    1,000 randomized pool states."""
    rng = np.random.default_rng(0)
    add_add = rem_add = add_rev = rem_rev = 0.0
    for _ in range(_N_STATES):
        pool, fair = _random_pool(rng)
        d1 = amount(float(rng.uniform(1.0, 10_000.0)))
        d2 = amount(float(rng.uniform(1.0, 10_000.0)))

        # add additivity: add(d1); add(d2)  ==  add(d1 + d2)
        two = pool.copy()
        s1 = two.add(d1, fair)
        s2 = two.add(d2, fair)
        one = pool.copy()
        s12 = one.add(d1 + d2, fair)
        add_add = max(add_add, _state_gap(two, one), _rel_err(s1 + s2, s12))

        # remove additivity on the grown pool
        frac1 = Decimal(repr(float(rng.uniform(0.05, 0.4))))
        frac2 = Decimal(repr(float(rng.uniform(0.05, 0.4))))
        base = two
        w1 = base.ts * frac1
        w2 = base.ts * frac2
        two_r = base.copy()
        p1 = two_r.remove(w1)
        p2 = two_r.remove(w2)
        one_r = base.copy()
        p12 = one_r.remove(w1 + w2)
        # exact payouts: Decimals on the grid, Fractions off it
        rem_add = max(rem_add, _state_gap(two_r, one_r),
                      _rel_err(Fraction(p1) + Fraction(p2), p12))

        # reversibility: remove(add(d)) returns d and restores the state
        rt = pool.copy()
        s = rt.add(d1, fair)
        back = rt.remove(s)
        add_rev = max(add_rev, _state_gap(rt, pool), _rel_err(back, d1))

        # and add(remove(s)) returns s
        rt2 = pool.copy()
        w = rt2.ts * Decimal("0.25")
        paid = rt2.remove(w)
        s_back = rt2.add(paid, fair)
        rem_rev = max(rem_rev, _state_gap(rt2, pool), _rel_err(s_back, w))
    return PropertyReport(_N_STATES, add_add, rem_add, add_rev, rem_rev)


@dataclass
class ContinuityReport:
    rows: list[tuple[float, float, float]]  # (rho, d_in, gap)

    @property
    def max_gap(self) -> float:
        return max(g for _, _, g in self.rows)


def continuity_report(r_out: float = 10_000.0) -> ContinuityReport:
    """Gap between the straddling and surplus swap branches at their shared
    boundary ``tb == r_out - delta``, over a grid of exchange rates ``rho``
    and input amounts ``d_in``."""
    rows = []
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        f_out = 1.0 / (1.0 + rho)
        f_in = rho * f_out
        for d_in in (1.0, 10.0, 100.0):
            delta = rho * d_in
            tb = r_out - delta
            at_boundary = swap_out(d_in, f_in, f_out, r_out, tb)
            below = swap_out(d_in, f_in, f_out, r_out, math.nextafter(tb, 0.0))
            rows.append((rho, d_in, abs(at_boundary - below)))
    return ContinuityReport(rows)
