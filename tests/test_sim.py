import math
import re
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_seeded_markets

from uamm_lab import metrics, sim
from uamm_lab.fixedpoint import UNIT, ZERO, amount, format_micro, from_micro, mul_exact, to_micro
from uamm_lab.ledger import MAX_OUTCOMES, MarketSpec, check_outcome_count
from uamm_lab.sim import (
    ConfigError,
    SimConfig,
    full_config,
    load_config,
    run_multi_market,
    run_rejection_sweep,
    run_single_market,
    simulate_one,
)
from uamm_lab.uamm import FairPriceVector, UnfillableQuote


# -- bettor draws -----------------------------------------------------------------
#
# ``_draw_streams`` is what the simulator runs: one (wager, side, threshold)
# tuple per bettor, and a bettor walks away when the quoted slippage exceeds
# the threshold (``run_market``).


def _draws(seed, n, fair=(0.8, 0.2), **cfg):
    return sim._draw_streams(np.random.default_rng(seed), SimConfig(**cfg),
                             FairPriceVector(fair), n)


def test_wager_sample_mean_near_45_dollars():
    mean = np.mean([w for w, _, _ in _draws(0, 100_000)])
    assert abs(mean - 45.0) / 45.0 < 0.15


def test_degenerate_sigma_gives_constant_wager():
    wagers = [w for w, _, _ in _draws(0, 2, wager_sigma=0.0)]
    assert wagers == [round(math.exp(3.2), 2)] * 2


def test_wager_draws_replay_identically():
    assert _draws(42, 10) == _draws(42, 10)


def test_uniform_side_frequency():
    draws = _draws(1, 10_000, side_mode="uniform")
    freq = np.mean([side == 1 for _, side, _ in draws])
    assert abs(freq - 0.5) < 0.02


def test_true_prob_side_frequency():
    freq = np.mean([side == 1 for _, side, _ in _draws(2, 10_000)])
    assert abs(freq - 0.8) < 0.02


def test_three_way_true_prob_side_frequencies():
    draws = [side for _, side, _ in _draws(3, 10_000, fair=(0.7, 0.2, 0.1))]
    for k, f in ((1, 0.7), (2, 0.2), (3, 0.1)):
        assert abs(np.mean([d == k for d in draws]) - f) < 0.02


def test_zero_slippage_acceptance_probability():
    draws = _draws(4, 100_000, rej_mean=0.045, rej_std=0.05)
    accepted = np.mean([not 0.0 > threshold for _, _, threshold in draws])
    assert abs(accepted - 0.8159) < 0.01  # P(N(0.045, 0.05) >= 0)


def test_fixed_threshold_one_rejects_nothing():
    draws = _draws(5, 100, rej_mean=1.0, rej_std=0.0)
    assert not any(
        float(s) > threshold
        for s, (_, _, threshold) in zip(np.linspace(0.0, 1.0, 100), draws)
    )


@st.composite
def _draw_cases(draw):
    k = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    total = math.fsum(raw)
    k_choices = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    return (draw(st.integers(0, 2**63)), tuple(x / total for x in raw),
            draw(st.integers(0, 50)), k_choices)


@settings(max_examples=300, deadline=None)
@given(_draw_cases())
def test_draws_match_numpy_choice_on_a_twin_generator(case):
    """The market-parameter, side and winner draws give the values of the
    ``Generator.choice`` calls they replace and leave the generator in the
    same state, on whatever numpy is installed."""
    seed, probs, n, k_choices = case
    fair = FairPriceVector(probs)
    cdf = np.asarray(fair.probs).cumsum()
    cdf /= cdf[-1]
    assert list(fair.cdf) == cdf.tolist()

    cfg = SimConfig(n_bets=n)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    # the k-choice draw alone: a SimConfig refuses k choices that differ
    # from the length of a fixed probs vector
    params = SimpleNamespace(k=k_choices, probs=probs, n_bets=n)
    k, _, _ = sim._sample_market_params(rng, params)
    draws = sim._draw_streams(rng, cfg, fair, n)
    winner = sim._draw_winner(rng, fair)

    outcomes = np.arange(1, len(probs) + 1)
    assert k == int(twin.choice(k_choices))
    wagers = np.exp(twin.normal(cfg.wager_mu, cfg.wager_sigma, n))
    wagers = np.maximum(np.round(wagers, 2), 0.01)
    sides = twin.choice(outcomes, size=n, p=fair.probs)
    thresholds = twin.normal(cfg.rej_mean, cfg.rej_std, n)
    assert draws == list(zip(wagers.tolist(), sides.tolist(), thresholds.tolist()))
    assert winner == int(twin.choice(outcomes, p=fair.probs))
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 60), st.floats(-3.0, 30.0),
       st.sampled_from([0.0, 0.3, 1.2, 3.0]))
@example(seed=0, n=0, mu=3.2, sigma=1.2)
@example(seed=0, n=5, mu=3.2, sigma=0.0)
@example(seed=0, n=5, mu=25.0, sigma=0.0)  # every wager above 2**33
@example(seed=7, n=40, mu=22.5, sigma=1.0)  # wagers on both sides of 2**33
def test_drawn_wagers_lie_on_the_micro_unit_grid(seed, n, mu, sigma):
    """Every wager ``_draw_streams`` hands the simulator is quoted as drawn
    and executed as ``to_micro(w)``, so it must be that value's float."""
    draws = _draws(seed, n, wager_mu=mu, wager_sigma=sigma)
    twin = np.random.default_rng(seed)
    cents = (np.exp(twin.normal(mu, sigma, n)) if sigma > 0
             else np.full(n, math.exp(mu)))
    cents = np.maximum(np.round(cents, 2), 0.01).tolist()
    assert len(draws) == n
    for (w, _, _), c in zip(draws, cents):
        assert to_micro(w) / UNIT == w
        assert w == to_micro(c) / UNIT
        if w < 2.0**33:
            assert w == c and to_micro(w) == 10_000 * round(c * 100)


@pytest.mark.parametrize("mu,sigma,message", [
    (800.0, 1.2, "finite"), (800.0, 0.0, "finite"), (60.0, 0.0, "too many digits"),
])
def test_unrepresentable_wager_draws_are_rejected(mu, sigma, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        _draws(0, 3, wager_mu=mu, wager_sigma=sigma)


def test_rejection_sweep_acceptance_and_profit_rise_with_threshold():
    cfg = SimConfig(n_markets=20, n_bets=100, seed=6)
    rows = run_rejection_sweep(cfg)
    acc = [r["acceptance_rate"] for r in rows]
    assert acc == sorted(acc)
    assert rows[-1]["acceptance_rate"] == 1.0
    assert rows[-1]["eip_mean"] > rows[0]["eip_mean"]


# -- config ------------------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# demo run\n"
        "k = 2,3\n"
        "funding = 5000\n"
        "probs = uniform:0.2,0.8\n"
        "n_bets = lognormal:2,1\n"
        "n_markets = 10\n"
        "wager_mu = 3.0  # dollars, log-space\n"
        "wager_sigma = 1.0\n"
        "side_mode = uniform\n"
        "rej_mean = 0.045\n"
        "rej_std = 0.05\n"
        "fee_rate = 0.025\n"
        "seed = 9\n"
        "engine = cpmm\n"
    )
    cfg = load_config(path)
    assert cfg.k == (2, 3)
    assert cfg.probs == ("uniform", 0.2, 0.8)
    assert cfg.n_bets == ("lognormal", 2.0, 1.0)
    assert cfg.funding == 5000.0
    assert cfg.engine == "cpmm"
    assert cfg.seed == 9


def test_unknown_config_key_is_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bankroll = 100\n")
    with pytest.raises(ConfigError, match="bankroll"):
        load_config(path)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        SimConfig(side_mode="contrarian")
    with pytest.raises(ConfigError):
        SimConfig(engine="lmsr")
    with pytest.raises(ConfigError):
        SimConfig(funding=0)
    with pytest.raises(ValueError):
        SimConfig(probs=(0.9, 0.9))
    # each of these failed only when the first market was built
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        SimConfig(seed=-1)
    for funding in (1e22, 1e30):
        with pytest.raises(ConfigError, match="too many digits"):
            SimConfig(funding=funding)
    with pytest.raises(ConfigError, match="funding must be positive"):
        SimConfig(funding=1e-9)


def test_a_negative_zero_fee_rate_is_rejected():
    # its fees and fee totals would read as negative zeros
    with pytest.raises(ConfigError, match=re.escape("fee_rate must be in [0, 1)")):
        SimConfig(fee_rate=-0.0)
    for fee_rate in (-0.0, Decimal("-0"), Decimal("-0.000")):
        with pytest.raises(ValueError, match=re.escape("fee_rate must be in [0, 1)")):
            MarketSpec("m", 2, fee_rate)
    assert MarketSpec("m", 2, 0.0).fee_rate == 0


@settings(max_examples=300, deadline=None)
@given(st.floats())
@example(-0.0)
@example(0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(1.0)
@example(math.nextafter(1.0, 0.0))
@example(5e-324)
def test_a_config_and_a_market_spec_refuse_the_same_fee_rates(x):
    # one rule (ledger.fee_rate_decimal) decides both, with the same text
    try:
        spec = MarketSpec("m", 2, x)
    except ValueError as exc:
        with pytest.raises(ConfigError) as refused:
            SimConfig(fee_rate=x)
        assert str(refused.value) == str(exc) == "fee_rate must be in [0, 1)"
    else:
        assert SimConfig(fee_rate=x).fee_rate is x
        assert spec.fee_rate == Decimal(str(x)) and 0 <= spec.fee_rate < 1


@pytest.mark.parametrize("key", ["funding", "wager_mu", "wager_sigma", "rej_mean", "rej_std",
                                 "fee_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None,
                                   pytest.param(10**400, id="10**400")])
def test_non_finite_values_rejected(key, value):
    # each key is read as the float a config file reads it as; what float()
    # cannot read ("x", None, 10**400) reads as NaN, refused naming the key
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        SimConfig(**{key: value})


@pytest.mark.parametrize("key,value", [
    ("probs", ("uniform", 0.5, 1.5)),
    ("probs", ("uniform", 0.0, 0.5)),
    ("probs", ("uniform", 0.6, 0.4)),
    ("probs", ("uniform", math.nan, 0.5)),
    ("probs", ("uniform", 0.2)),
    ("k", (1, 2)),
    ("k", 1),
    ("k", ()),
    ("n_bets", ("lognormal", 2.0, -1.0)),
    ("n_bets", ("lognormal", math.nan, 1.0)),
    ("n_bets", ("lognormal", math.inf, 1.0)),
    ("n_bets", ("lognormal", 2.0, math.inf)),
    ("n_bets", ("lognormal", 2.0)),
    ("wager_sigma", -1.0),
    ("rej_std", -0.1),
    # each of these was accepted, then failed or miscounted in the first market
    ("n_markets", 2.5),
    ("n_markets", True),
    ("seed", 1.5),
    ("n_bets", 2.5),
    ("n_bets", True),
    ("n_bets", (5,)),
])
def test_bad_sampling_rules_are_rejected_when_the_config_is_built(key, value):
    with pytest.raises(ConfigError, match=key):
        SimConfig(**{key: value})


def test_counts_must_be_integers_and_numpy_ints_are_integers():
    with pytest.raises(ConfigError, match=re.escape("n_bets must be an integer, got (5,)")):
        SimConfig(n_bets=(5,))
    with pytest.raises(ConfigError, match="k must be an integer, got True"):
        SimConfig(k=(True, 3), probs=("uniform", 0.2, 0.8))
    cfg = SimConfig(n_markets=np.int64(2), seed=np.int64(3), n_bets=np.int64(5))
    assert [r.n_attempts for r in sim.iter_markets(cfg)] == [5, 5]
    # a numpy outcome count runs the markets an int one does
    numpy_k = SimConfig(k=np.int64(3), probs=(0.2, 0.3, 0.5), n_markets=3, n_bets=20)
    int_k = replace(numpy_k, k=3)
    assert run_multi_market(numpy_k)[1].csv_row() == run_multi_market(int_k)[1].csv_row()


@pytest.mark.parametrize("k", [3, (2, 3), (3, 3)])
def test_k_choices_must_equal_the_length_of_fixed_probs(k):
    with pytest.raises(ConfigError, match=r"k must equal the number of fixed probs \(2\)"):
        SimConfig(k=k)
    with pytest.raises(ConfigError, match="k must equal"):
        SimConfig(k=2, probs=(0.2, 0.3, 0.5))
    assert SimConfig(k=(3, 3), probs=(0.2, 0.3, 0.5)).k == (3, 3)
    # a sampled probs rule draws one probability per outcome, whatever k is
    assert SimConfig(k=k, probs=("uniform", 0.2, 0.8)).k == k


@pytest.mark.parametrize("k", [MAX_OUTCOMES + 1, (3, MAX_OUTCOMES + 1)])
def test_an_outcome_count_above_the_bound_is_refused(k):
    # checked on the config alone, choice by choice, by the ledger's rule: no
    # market of that size is built
    message = re.escape("k must be an outcome count in [2, 256], got 257")
    with pytest.raises(ConfigError, match=message):
        SimConfig(k=k, probs=("uniform", 0.2, 0.8))
    assert MAX_OUTCOMES == 256
    assert SimConfig(k=(2, MAX_OUTCOMES), probs=("uniform", 0.2, 0.8)).k == (2, 256)


@pytest.mark.parametrize("k", [-1, 0, 1, MAX_OUTCOMES + 1, 1500])
def test_every_market_spec_follows_the_one_outcome_count_rule(k):
    message = re.escape(f"k must be an outcome count in [2, 256], got {k}")
    for build in (lambda: check_outcome_count(k), lambda: MarketSpec("m", k),
                  lambda: sim.build_market("uamm", "m", k, (1 / k,) * k if k > 0 else (),
                                           1_000.0, 0.025)):
        with pytest.raises(ValueError, match=message):
            build()
    assert MarketSpec("m", MAX_OUTCOMES).k == 256


def test_a_long_fixed_probs_line_is_refused_before_its_vector_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(sim, "FairPriceVector", built.append)
    with pytest.raises(ConfigError, match=r"k must equal the number of fixed probs \(300\)"):
        SimConfig(k=2, probs=(1 / 300,) * 300)
    assert built == []


def test_edge_sampling_rules_are_accepted():
    cfg = SimConfig(k=(2, 3), probs=("uniform", 0.4, 0.4), n_bets=("lognormal", 2.0, 0.0),
                    wager_sigma=0.0, rej_std=0.0, n_markets=3)
    results, _ = run_multi_market(cfg)
    assert all(r.n_attempts == round(math.exp(2.0)) for r in results)
    assert all(r.fair[0] == 0.4 for r in results if r.k == 2)


def test_a_bet_count_draw_beyond_the_clamp_caps_instead_of_overflowing():
    # exp of a log-space draw near 1000 overflows a float; the count clamps
    res = simulate_one(SimConfig(n_bets=("lognormal", 1000.0, 1.0), n_markets=1), 0)
    assert res.n_attempts == sim.BET_COUNT_CLAMP[1]


@given(mu=st.floats(-10, 10), sigma=st.floats(0, 5), seed=st.integers(0, 2**32))
def test_capped_bet_counts_equal_the_uncapped_draws(mu, sigma, seed):
    cfg = SimConfig(n_bets=("lognormal", mu, sigma))
    _, _, n = sim._sample_market_params(np.random.default_rng(seed), cfg)
    x = np.random.default_rng(seed).normal(mu, sigma)
    lo, hi = sim.BET_COUNT_CLAMP
    assert n == min(max(int(round(math.exp(x))), lo), hi)


def test_full_config_samples_hyperparameters():
    cfg = full_config(seed=3)
    assert cfg.k == (2, 3)
    assert cfg.probs == ("uniform", 0.2, 0.8)
    assert cfg.n_bets == ("lognormal", 2.0, 1.0)
    assert cfg.seed == 3


# -- orchestration -----------------------------------------------------------------


def test_markets_price_with_the_vector_their_bettors_were_drawn_from(monkeypatch):
    drawn, priced = [], []
    draw_streams, run_market = sim._draw_streams, sim.run_market

    def spy_draws(rng, cfg, fair, n):
        drawn.append(fair)
        return draw_streams(rng, cfg, fair, n)

    def spy_run(market, *args, **kwargs):
        priced.append(market.fair)
        return run_market(market, *args, **kwargs)

    monkeypatch.setattr(sim, "_draw_streams", spy_draws)
    monkeypatch.setattr(sim, "run_market", spy_run)
    cfg = full_config(seed=4, n_markets=30)
    for m in range(cfg.n_markets):
        simulate_one(cfg, m)
    assert len(priced) == len(drawn) == cfg.n_markets
    assert all(p is d for p, d in zip(priced, drawn))


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_build_market_keeps_a_fair_price_vector(engine):
    # normalizing this vector a second time moves its first probability by
    # one ulp, so a market must price with the vector exactly as given
    fair = FairPriceVector((0.10793776849199223, 0.27110557694836346, 0.6209566545596444))
    assert FairPriceVector(fair).probs != fair.probs
    market = sim.build_market(engine, "m", 3, fair, 1_000.0, 0.025)
    assert market.fair is fair


def test_build_market_refuses_an_unknown_engine():
    # "uamm2" once built a constant-product market
    for engine in ("uamm2", "CPMM", "", "lmsr"):
        with pytest.raises(ValueError, match=re.escape("engine must be one of ('uamm', 'cpmm')")):
            sim.build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)


def test_build_market_builds_each_engine_class_by_its_name():
    assert sim.ENGINES == tuple(sim.ENGINE_CLASSES) == ("uamm", "cpmm")
    for engine, cls in sim.ENGINE_CLASSES.items():
        market = sim.build_market(engine, "m", 2, (0.5, 0.5), 1_000.0, 0.025)
        assert type(market) is cls and market.engine == engine


GENESIS_PROBS = {2: (0.75, 0.25), 3: (0.2, 0.3, 0.5), 4: (0.1, 0.2, 0.3, 0.4)}


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("k", sorted(GENESIS_PROBS))
@pytest.mark.parametrize("funding", [
    10_000.0, 0.000001,
    # just below a tie as a float, so it rounds down; as a Decimal an exact
    # tie, which rounds half-even, to the even 1234.567890
    1234.5678905, Decimal("1234.5678905"), Decimal("1234.5678915"),
    2_500,
])
def test_micro_unit_genesis_equals_the_public_path(engine, k, funding):
    """``build_market`` turns its funding into micro-units once and funds in
    ints; its books equal those of a market funded through the public
    ``deposit`` and ``add_liquidity`` of ``amount(funding)``."""
    built = sim.build_market(engine, "m", k, GENESIS_PROBS[k], funding, 0.025)
    twin = type(built)(MarketSpec("m", k), GENESIS_PROBS[k])
    twin.deposit(sim.LP, amount(funding))
    twin.add_liquidity(sim.LP, amount(funding))
    assert built.snapshot() == twin.snapshot()
    n = to_micro(funding)
    assert built.ledger.deposited_micro == twin.ledger.deposited_micro == n
    # one LP share per unit of funding; the CPMM seeds its reserves from the
    # float of the funding's 6-place Decimal, which n / UNIT equals
    assert built.lp_wad == {sim.LP: n * 10 ** 12}
    probs, x = GENESIS_PROBS[k], float(amount(funding))
    if engine == "cpmm":
        assert built.pool.r_micro[1:] == [to_micro(x * min(probs) / f) for f in probs]
    else:
        assert built.pool.r_micro == [n] + [0] * k and built.pool.tb_wad == n * 10 ** 12
    built.check_invariants()


@pytest.mark.parametrize("engine", sim.ENGINES)
@pytest.mark.parametrize("funding", [0.0000004, Decimal("0.0000005"), 0])
def test_a_funding_that_rounds_to_zero_is_refused(engine, funding):
    with pytest.raises(ValueError, match="^liquidity deposit must be positive$"):
        sim.build_market(engine, "m", 2, (0.5, 0.5), funding, 0.025)


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("wager,fee", [(0.000003, "0.000002"), (0.000001, "0")])
def test_run_market_funds_exactly_what_buy_charges(engine, wager, fee):
    # an odd micro-unit wager at a 0.5 rate has a tied fee, which buy rounds
    # half-even: 1.5 micro-units to 2 and 0.5 to 0; funding must match it
    market = sim.build_market(engine, "m", 2, (0.5, 0.5), 1000.0, 0.5)
    res = sim.run_market(market, [(wager, 1, 1.0)], 1)
    assert res.n_accepted == 1
    assert res.fee_micro == to_micro(fee)
    assert market.ledger.balance(sim.BETTOR) == 0
    market.check_invariants()


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_run_market_quotes_an_off_grid_wager_as_given_and_executes_it_rounded(engine):
    w = 12.3456789
    twin = sim.build_market(engine, "m", 2, (0.5, 0.5), 1000.0, 0.025)
    quote = twin.quote(1, w)
    assert quote.odd != twin.quote(1, to_micro(w) / UNIT).odd
    market = sim.build_market(engine, "m", 2, (0.5, 0.5), 1000.0, 0.025)
    res = sim.run_market(market, [(w, 1, 1.0)], 1, keep_log=True)
    row = dict(zip(sim.BETS_FIELDS, res.bet_log[0]))
    assert (row["wager"], row["odd"], row["slippage"]) == (w, quote.odd, quote.slippage)
    twin.deposit(sim.BETTOR, amount("12.654321"))  # 12.345679 plus its fee
    assert market.bets == [twin.buy(sim.BETTOR, 1, w)]
    assert res.volume_micro == market.bets[0].wager_micro == 12_345_679
    assert format_micro(res.fee_micro, res.fee_places) == "0.308642"
    assert twin.ledger.balance(sim.BETTOR) == 0


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("wager", [math.nan, math.inf])
def test_run_market_rejects_a_non_finite_draw_at_its_quote(engine, wager):
    # the quote raises, so the bettor is neither funded nor sold anything
    market = sim.build_market(engine, "m", 2, (0.5, 0.5), 1000.0, 0.025)
    before = market.snapshot()
    with pytest.raises(ValueError, match="amount must be finite"):
        sim.run_market(market, [(wager, 1, 1.0), (10.0, 1, 1.0)], 1)
    assert market.bets == []
    assert market.snapshot() == before


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
@pytest.mark.parametrize("wager", [1e22, Fraction(1, 3)], ids=["1e22", "Fraction(1,3)"])
def test_run_market_refuses_a_draw_no_buy_could_execute(engine, wager):
    # rejected at any quote (a threshold of -1.0), the draw is still refused
    # by the quote with a buy's ValueError, not logged as a priced bet
    market = sim.build_market(engine, "m", 2, (0.5, 0.5), 1000.0, 0.025)
    before = market.snapshot()
    with pytest.raises(ValueError, match="^amount "):
        sim.run_market(market, [(wager, 1, -1.0)], 1, keep_log=True)
    assert market.bets == []
    assert market.snapshot() == before


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_seeded_markets_fund_each_bet_in_micro_units(engine):
    """The bettor is funded with exactly what each executed bet costs, so
    every seeded market's books balance and the bettor ends with nothing."""
    for seed in range(4):
        cfg = SimConfig(k=3, probs=(0.2, 0.3, 0.5), n_bets=200, funding=2_000.0,
                        seed=seed, engine=engine)
        market, draws, winner = sim.seeded_market(cfg, 0)
        res = sim.run_market(market, draws, winner)
        bets = market.bets
        assert res.n_accepted == len(bets) > 0
        market.check_invariants()
        assert market.ledger.balance(sim.BETTOR) == 0
        assert market.ledger.deposited_micro == to_micro(cfg.funding) + sum(
            to_micro(r.wager + r.fee) for r in bets)
        assert res.volume_micro == sum(r.wager_micro for r in bets)
        assert format_micro(res.volume_micro) == str(sum((r.wager for r in bets), ZERO))


def test_a_drained_leg_prices_at_the_cap_in_the_final_overround():
    # outcome 1's pool holds one micro-unit and no target: a 1e-4 quote on it
    # is unfillable and counts 1.0, and outcome 2's fair quote 0.5
    market = sim.build_market("uamm", "m", 2, (0.5, 0.5), 1000.0, 0.025)
    market.pool.r = [0, Decimal("0.000001"), 1000]
    market.pool.tb = 0
    with pytest.raises(UnfillableQuote):
        market.quote(1, 1e-4)
    assert market.quote(2, 1e-4).implied_price == 0.5
    assert sim.run_market(market, [], 1).overround_final == 0.5


def test_zero_bet_run_leaves_pool_at_initial_state():
    res = run_single_market(SimConfig(n_bets=0))
    assert res.r_end == res.r_start
    assert res.n_attempts == 0
    assert res.volume_micro == 0


def test_single_market_replay_is_identical():
    a = run_single_market(SimConfig(seed=21, n_bets=200))
    b = run_single_market(SimConfig(seed=21, n_bets=200))
    assert a.r_end == b.r_end
    assert a.volume_micro == b.volume_micro
    assert a.bet_log == b.bet_log
    assert a.trajectory == b.trajectory
    assert a.winner == b.winner


def test_markets_are_order_independent():
    cfg = SimConfig(n_markets=5, n_bets=50, seed=30)
    results, report = run_multi_market(cfg)
    shuffled = [simulate_one(cfg, m) for m in (3, 1, 4, 0, 2)]
    by_id = {r.market_id: r for r in shuffled}
    for r in results:
        s = by_id[r.market_id]
        assert s.r_end == r.r_end
        assert s.volume_micro == r.volume_micro
        assert s.winner == r.winner


def test_iter_markets_runs_one_market_per_step(monkeypatch):
    """``iter_markets`` simulates market ``m`` only when result ``m`` is
    asked for, through ``sim.simulate_one``; summarizing the stream gives
    the list's report, every float bit for bit."""
    cfg = full_config(n_markets=6, seed=9)
    results, report = run_multi_market(cfg)
    calls = []

    def counted(cfg, index, **run_opts):
        calls.append(index)
        return simulate_one(cfg, index, **run_opts)

    monkeypatch.setattr(sim, "simulate_one", counted)
    stream = sim.iter_markets(cfg)
    assert calls == []
    for m, r in enumerate(stream):
        assert calls == list(range(m + 1))
        assert (r.market_id, r.r_end, r.volume_micro) == (
            results[m].market_id, results[m].r_end, results[m].volume_micro)
    streamed = metrics.summarize(sim.iter_markets(cfg), cfg.engine)
    assert streamed == report
    assert streamed.csv_row() == report.csv_row()


def test_full_run_degenerates_to_single_market():
    cfg = SimConfig(k=2, probs=(0.5, 0.5), n_bets=100, n_markets=1, seed=17)
    results, _ = run_multi_market(cfg)
    single = run_single_market(cfg)
    assert results[0].r_end == single.r_end
    assert results[0].volume_micro == single.volume_micro
    assert results[0].winner == single.winner


def test_engines_consume_identical_bettor_streams():
    base = SimConfig(n_bets=100, seed=12, side_mode="uniform")
    u = run_single_market(base)
    c = run_single_market(replace(base, engine="cpmm"))
    # bet-log rows are tuples in BETS_FIELDS order; bets.csv holds repr(wager)
    wager, outcome = (sim.BETS_FIELDS.index(f) for f in ("wager", "outcome"))
    u_draws = [(repr(row[wager]), row[outcome]) for row in u.bet_log]
    c_draws = [(repr(row[wager]), row[outcome]) for row in c.bet_log]
    assert u_draws == c_draws  # acceptance may differ, the stream may not
    assert u.winner == c.winner


def test_sampled_bet_counts_respect_clamp():
    cfg = full_config(seed=2)
    counts = []
    for m in range(200):
        rng = np.random.default_rng([cfg.seed, m])
        _, _, n = sim._sample_market_params(rng, cfg)
        counts.append(n)
    assert min(counts) >= 1
    assert max(counts) <= 40


def test_trajectory_tracks_rejections_and_eip():
    res = run_single_market(SimConfig(seed=1, n_bets=50))
    assert len(res.trajectory) == 50
    last = res.trajectory[-1]
    assert last["rejected_cum"] == res.n_rejected + res.n_unfillable
    deltas = [e - s for e, s in zip(res.r_end[1:], res.r_start[1:])]
    expect = math.fsum(f * d for f, d in zip(res.fair, deltas))
    assert last["eip"] == pytest.approx(expect)


#: A thin pool with wide thresholds and large wagers: its bets are accepted,
#: rejected on the threshold and, on the UAMM, unfillable at quote time.
THIN_CFG = SimConfig(k=2, probs=(0.8, 0.2), funding=200.0, side_mode="uniform",
                     rej_mean=0.5, rej_std=0.5, n_bets=300, seed=5, wager_mu=4.5)


@pytest.mark.parametrize("engine", ["uamm", "cpmm"])
def test_trajectory_equals_a_draw_by_draw_replay(engine):
    """The trajectory ``run_single_market`` rebuilds from its bet log and
    records equals the pool read after each draw of a replay, exactly."""
    cfg = replace(THIN_CFG, engine=engine)
    result = run_single_market(cfg)
    assert result.n_accepted > 0 and result.n_rejected > 0
    # a product-rule quote never drains its pool
    assert (result.n_unfillable > 0) == (engine == "uamm")
    market, draws, _ = sim.seeded_market(cfg, 0)
    market.deposit(sim.BETTOR, 10**9)
    fair = market.fair.probs
    r0 = [n / UNIT for n in market.pool.r_micro]
    replay, rejected = [], 0
    for step, (w, side, threshold) in enumerate(draws):
        try:
            accepted = market.quote(side, w).slippage <= threshold
            if accepted:
                market.buy(sim.BETTOR, side, w)
        except UnfillableQuote:
            accepted = False
        rejected += not accepted
        r = [n / UNIT for n in market.pool.r_micro]
        replay.append({
            "step": step,
            "balances": tuple(r[0] + r[k] for k in range(1, len(r))),
            "rejected_cum": rejected,
            "eip": math.fsum(f * (r[k] - r0[k]) for k, f in enumerate(fair, 1)),
        })
    assert result.trajectory == replay


def test_market_result_counts_add_up():
    res = run_single_market(SimConfig(seed=2, n_bets=300))
    assert res.n_accepted + res.n_rejected + res.n_unfillable == res.n_attempts
    assert res.n_attempts == 300


def test_fee_and_volume_sums_do_not_depend_on_the_decimal_context():
    """A market's fee and a run's fee and volume are exact sums: a narrow
    caller's context rounds neither (at 12 digits a rounding sum would read
    43298905.6700 and 1082472.64175)."""
    cfg = SimConfig(n_markets=20, n_bets=200, funding=1e6, wager_mu=9, seed=1)
    results, report = run_multi_market(cfg)
    with localcontext(prec=12):
        narrow_results, narrow_report = run_multi_market(cfg)
    assert report.volume == "43298905.670000"
    assert report.fee_revenue == "1082472.641750000"
    assert narrow_report.csv_row() == report.csv_row()
    assert ([(r.volume_micro, r.fee_micro, r.fee_places) for r in narrow_results]
            == [(r.volume_micro, r.fee_micro, r.fee_places) for r in results])
    # a market's fee is what the pool's fee book gained over the run: on a
    # seeded market, whose book starts empty, the exact sum of the run's
    # record fees, which reads as fee_rate * volume when it equals that
    # product (every whole-cent fee at a 0.0125 rate is exact); on a market
    # that traded before the run, the value of that sum
    for engine in sim.ENGINES:
        cfg = SimConfig(n_markets=6, n_bets=60, fee_rate=0.0125, seed=3, engine=engine)
        results, _, bets = run_seeded_markets(cfg)
        assert any(bets)
        with localcontext(prec=80):
            sums = [sum((b.fee for b in records), ZERO) for records in bets]
        assert [from_micro(r.fee_micro) for r in results] == sums
        assert ([format_micro(r.fee_micro, r.fee_places) for r in results]
                == [str(mul_exact(Decimal("0.0125"), from_micro(r.volume_micro)))
                    for r in results])
        market, draws, winner = sim.seeded_market(cfg, 0)
        market.deposit("early", 1_000)
        market.buy("early", 1, "12.34")
        first = len(market.bets)
        result = sim.run_market(market, draws, winner)
        assert len(market.bets) > first
        with localcontext(prec=80):
            assert from_micro(result.fee_micro) == sum((b.fee for b in market.bets[first:]), ZERO)


def test_a_market_with_rounded_fees_reads_its_fee_to_six_places():
    """At a 0.02501 rate a whole-cent fee is exact only for a wager in whole
    dimes, so a seeded market mixes exact and rounded fees.  Its fee total
    is the exact sum of its records' fees; unless that sum equals
    ``fee_rate * volume`` it reads to 6 places, and a narrow caller's
    context changes no text."""
    rate = Decimal("0.02501")
    cfg = SimConfig(n_markets=4, n_bets=60, fee_rate=0.02501, seed=3)
    fees = []
    for m in range(cfg.n_markets):
        market, draws, winner = sim.seeded_market(cfg, m)
        result = sim.run_market(market, draws, winner)
        exact = [b.fee == mul_exact(rate, b.wager) for b in market.bets]
        assert any(exact) and not all(exact)
        fee = from_micro(result.fee_micro)
        assert fee == sum((b.fee for b in market.bets), ZERO)
        assert fee != mul_exact(rate, from_micro(result.volume_micro))
        text = format_micro(result.fee_micro, result.fee_places)
        assert text == f"{fee:.6f}"
        fees.append(text)
    with localcontext(prec=12):
        narrow, _ = run_multi_market(cfg)
    assert [format_micro(r.fee_micro, r.fee_places) for r in narrow] == fees
