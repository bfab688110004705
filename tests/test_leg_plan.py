"""The fair-price vector's leg plan: the legs a bet swaps and their rates.

A quote and a buy read their legs from ``others`` and the UAMM quote its
fair rates from ``rates``; both are built once per vector.  These checks
recompute each from the probabilities, with the division the leg
formulas make (``f_j / f_i``), bit for bit.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uamm_lab import sim
from uamm_lab.uamm import FairPriceVector


def assert_plan(fair: FairPriceVector) -> None:
    k = len(fair)
    p = fair.probs
    assert fair.others[0] == () and fair.rates[0] == ()
    assert len(fair.others) == len(fair.rates) == k + 1
    for i in range(1, k + 1):
        legs = tuple(j for j in range(1, k + 1) if j != i)
        assert fair.others[i] == legs
        assert [x.hex() for x in fair.rates[i]] == [(p[j - 1] / p[i - 1]).hex() for j in legs]


@st.composite
def prob_inputs(draw):
    """K = 2..6 positive weights scaled to sum to 1, then, for some, off by
    up to 1e-10, inside the 1e-9 the vector renormalizes away."""
    k = draw(st.integers(2, 6))
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    total = math.fsum(w)
    scale = 1.0 + draw(st.sampled_from([0.0, 1e-10, -1e-10, 3e-11]))
    return [x / total * scale for x in w]


@given(prob_inputs())
@example([0.2, 0.3, 0.5 + 5e-10])
@example([0.34106, 0.337948, 0.320992])
@example([0.10793776849199223, 0.27110557694836346, 0.6209566545596444])
@example([0.5, 0.5])
def test_leg_plan_matches_the_probabilities(probs):
    assert_plan(FairPriceVector(probs))


@pytest.mark.parametrize("probs", [
    (0.9999999999999999, 5e-324),  # stores 0.0 for outcome 2
    (5e-324, 0.9999999999999999),  # stores 1.0 for outcome 2
    (1e-310, 0.5, 0.5),  # outcome 1's fair rates overflow to inf
])
def test_a_vector_that_renormalizing_breaks_is_refused(probs):
    with pytest.raises(ValueError, match="renormalized probabilities"):
        FairPriceVector(probs)


def test_renormalized_inputs_get_the_plan_of_the_stored_probabilities():
    # the constructor refits the last probability to 1 - fsum(the others),
    # which moves it by an ulp here, and with it outcome 3's rates
    raw = [0.34106, 0.337948, 0.320992]
    fair = FairPriceVector(raw)
    assert list(fair.probs) != raw
    assert fair.rates[3] != (raw[0] / raw[2], raw[1] / raw[2])
    assert_plan(fair)


def test_vectors_of_one_size_share_their_leg_order():
    assert FairPriceVector((0.2, 0.8)).others is FairPriceVector((0.6, 0.4)).others


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_build_market_keeps_the_vector_and_its_plan(engine):
    fair = FairPriceVector((0.10793776849199223, 0.27110557694836346, 0.6209566545596444))
    market = sim.build_market(engine, "m", 3, fair, 1_000.0, 0.025)
    assert market.fair is fair
    assert market.fair.others is fair.others and market.fair.rates is fair.rates
    assert_plan(market.fair)


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_a_market_built_from_plain_probabilities_has_their_plan(engine):
    market = sim.build_market(engine, "m", 4, (0.1, 0.2, 0.3, 0.4), 1_000.0, 0.025)
    assert market.fair.rates == FairPriceVector((0.1, 0.2, 0.3, 0.4)).rates
    assert_plan(market.fair)
