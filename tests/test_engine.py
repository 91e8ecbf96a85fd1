"""Tests for the event-driven market simulator."""

import ast
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gmsim.engine
from gmsim.beliefs import SimplexDiagnostics, integrate_between_events, make_filter_state
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.engine import (
    MarketModel,
    Outcome,
    SimConfig,
    buy_intensity,
    decide_trade,
    path_streams,
    sample_arrival_times,
    sample_value_path,
    sell_intensity,
    simulate_gmps_path,
    simulate_paths,
    value_at,
)
from gmsim.equilibrium import solve_ask, solve_bid, solve_static_quotes
from gmsim.errors import (
    ConditionFailed,
    ConfigError,
    GmsimError,
    ZeroBuyProbability,
    ZeroSellProbability,
)
from gmsim.noise import (
    Gaussian,
    Laplace,
    Logistic,
    NoiseTraderMix,
    TwoPointDiscrete,
    check_gm_condition,
)

from oracles import expm_reference, ks_statistic

GRID = StateGrid([0.0, 1.0])
Q = GeneratorMatrix([[-0.5, 0.5], [0.8, -0.8]])
NOISE = Logistic(2.0)
PRIOR = Belief([0.5, 0.5])
MODEL = MarketModel(
    grid=GRID, generator=Q, arrival_rate=4.0, noise=NOISE, initial_belief=PRIOR
)


# --------------------------------------------------------------------------
# Value chain


def test_value_path_holding_times_match_rates():
    rng = np.random.default_rng(7)
    times, states = sample_value_path(Q, PRIOR, 4000.0, rng)
    sojourns = {0: [], 1: []}
    for i in range(len(times) - 1):
        sojourns[int(states[i])].append(times[i + 1] - times[i])
    for state, rate in ((0, 0.5), (1, 0.8)):
        hold = np.array(sojourns[state])
        assert len(hold) > 300
        mean = hold.mean()
        se = hold.std(ddof=1) / math.sqrt(len(hold))
        assert abs(mean - 1.0 / rate) < 3.0 * se


def test_value_path_initial_state_follows_prior():
    belief = Belief([0.3, 0.7])
    hits = 0
    n = 4000
    for i in range(n):
        rng = np.random.default_rng(10_000 + i)
        _, states = sample_value_path(Q, belief, 0.01, rng)
        hits += int(states[0] == 0)
    p_hat = hits / n
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(p_hat - 0.3) < 3.0 * se


def test_value_path_is_right_continuous():
    rng = np.random.default_rng(3)
    times, states = sample_value_path(Q, PRIOR, 50.0, rng)
    assert times[0] == 0.0
    assert len(times) > 2
    for k in range(1, len(times)):
        t_jump = float(times[k])
        assert value_at(times, states, t_jump) == states[k]
        assert value_at(times, states, t_jump - 1e-12) == states[k - 1]
    assert value_at(times, states, 50.0) == states[-1]
    # consecutive states always differ: the chain has no self-jumps
    assert np.all(np.diff(states) != 0)


def test_value_path_absorbing_state_stays_put():
    q = GeneratorMatrix([[0.0, 0.0], [1.0, -1.0]])
    rng = np.random.default_rng(4)
    times, states = sample_value_path(q, Belief([1.0, 0.0]), 100.0, rng)
    assert len(times) == 1 and states[0] == 0


# --------------------------------------------------------------------------
# Arrivals


def test_arrival_counts_are_poisson_mean():
    lam, horizon, n = 3.0, 2.0, 3000
    counts = np.array(
        [
            len(sample_arrival_times(lam, horizon, np.random.default_rng(500 + i)))
            for i in range(n)
        ]
    )
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(mean - lam * horizon) < 3.0 * se


def test_arrival_gaps_are_exponential():
    rng = np.random.default_rng(21)
    arr = sample_arrival_times(2.0, 5000.0, rng)
    gaps = np.diff(np.concatenate([[0.0], arr]))
    u = np.sort(1.0 - np.exp(-2.0 * gaps))
    d = ks_statistic(u, u)  # uniform cdf is the identity
    assert d < 1.63 / math.sqrt(len(u))


def test_arrivals_sorted_inside_horizon():
    arr = sample_arrival_times(6.0, 3.0, np.random.default_rng(9))
    assert np.all(np.diff(arr) > 0)
    assert arr[0] > 0.0 and arr[-1] < 3.0


def test_zero_rate_means_no_arrivals():
    arr = sample_arrival_times(0.0, 10.0, np.random.default_rng(1))
    assert len(arr) == 0


# --------------------------------------------------------------------------
# Trade decision and intensities


def test_decide_trade_boundaries():
    quote = Quote(ask=0.6, bid=0.4)
    assert decide_trade(0.6, quote) is Outcome.BUY
    assert decide_trade(0.61, quote) is Outcome.BUY
    assert decide_trade(0.4, quote) is Outcome.SELL
    assert decide_trade(0.39, quote) is Outcome.SELL
    assert decide_trade(0.5, quote) is Outcome.NO_TRADE
    assert decide_trade(math.inf, quote) is Outcome.BUY
    assert decide_trade(-math.inf, quote) is Outcome.SELL


def test_degenerate_quote_buy_precedence():
    quote = Quote(ask=0.5, bid=0.5)
    assert decide_trade(0.5, quote) is Outcome.BUY
    assert decide_trade(0.49, quote) is Outcome.SELL


def test_intensities_match_noise_tails():
    quote = Quote(ask=0.7, bid=0.3)
    lam = 4.0
    assert buy_intensity(quote, 1.0, lam, NOISE) == pytest.approx(
        lam * NOISE.survival(-0.3), rel=1e-15
    )
    assert sell_intensity(quote, 1.0, lam, NOISE) == pytest.approx(
        lam * NOISE.cdf(-0.7), rel=1e-15
    )
    # intensities add up: buy + sell + no-trade rate = lam
    x = 0.25
    no_trade = lam * (NOISE.cdf(quote.ask - x) - NOISE.cdf(quote.bid - x))
    total = buy_intensity(quote, x, lam, NOISE) + sell_intensity(quote, x, lam, NOISE)
    assert total + no_trade == pytest.approx(lam, rel=1e-12)


# --------------------------------------------------------------------------
# Whole paths


def test_paths_are_deterministic_per_seed():
    cfg = SimConfig(ode_step=0.01, sample_dt=0.2)
    a = simulate_gmps_path(MODEL, 3.0, cfg, seed=42, offset=5)
    b = simulate_gmps_path(MODEL, 3.0, cfg, seed=42, offset=5)
    assert np.array_equal(a.value_times, b.value_times)
    assert np.array_equal(a.sample_asks, b.sample_asks)
    assert np.array_equal(a.sample_beliefs, b.sample_beliefs)
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert ea.t == eb.t and ea.eps == eb.eps and ea.profit == eb.profit
        assert ea.outcome is eb.outcome
        assert np.array_equal(ea.belief_after, eb.belief_after)


def test_different_offsets_give_different_paths():
    a = simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=0.02), seed=42, offset=0)
    b = simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=0.02), seed=42, offset=1)
    assert len(a.events) != len(b.events) or a.events[0].t != b.events[0].t


def test_streams_are_reproducible():
    r1 = path_streams(7, 3)
    r2 = path_streams(7, 3)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.random(4), b.random(4))


@pytest.mark.parametrize("seed, offset", [(-3, 0), (0, -1)])
def test_streams_refuse_negative_keys(seed, offset):
    with pytest.raises(ConfigError, match="nonnegative"):
        path_streams(seed, offset)


@pytest.mark.parametrize("seed, offset", [(7.9, 0), (7, 1.5), (7.0, 0)])
def test_streams_refuse_fractional_keys(seed, offset):
    """A float key is refused, not truncated to another path's streams."""
    with pytest.raises(ConfigError, match="must be integers"):
        path_streams(seed, offset)


def test_streams_take_numpy_integers_and_seeds_past_63_bits():
    """numpy integers key the same streams as ints, and a seed past
    2**63 - 1, which verify's intensity check may pass, still runs."""
    for a, b in zip(path_streams(np.int64(7), np.int32(3)), path_streams(7, 3)):
        assert np.array_equal(a.random(4), b.random(4))
    assert len(path_streams(2**63 + 4, 0)) == 3


def test_silent_market_reduces_to_state_equation():
    """With no arrivals the belief must follow the plain forward equation."""
    q = GeneratorMatrix([[-0.7, 0.4, 0.3], [0.2, -0.5, 0.3], [0.1, 0.4, -0.5]])
    grid = StateGrid([0.0, 0.5, 1.0])
    prior = Belief([0.5, 0.3, 0.2])
    model = MarketModel(
        grid=grid, generator=q, arrival_rate=0.0, noise=Logistic(4.0),
        initial_belief=prior,
    )
    rec = simulate_gmps_path(
        model, 1.0, SimConfig(ode_step=1e-3, sample_dt=0.5), seed=0
    )
    assert len(rec.events) == 0
    expected = prior.probs @ expm_reference(q.rates * 1.0)
    np.testing.assert_allclose(rec.sample_beliefs[-1], expected, atol=1e-8)


def test_uninformative_noise_keeps_quotes_at_prior_mean():
    model = MarketModel(
        grid=GRID,
        generator=GeneratorMatrix.zero(2),
        arrival_rate=3.0,
        noise=NoiseTraderMix(0.75),
        initial_belief=Belief([0.25, 0.75]),
    )
    rec = simulate_gmps_path(model, 4.0, SimConfig(force=True, ode_step=0.05), seed=8)
    assert len(rec.events) > 0
    mean = 0.75
    for e in rec.events:
        assert e.ask == pytest.approx(mean, abs=1e-10)
        assert e.bid == pytest.approx(mean, abs=1e-10)
        assert e.outcome is not Outcome.NO_TRADE  # valuations are +-inf
        np.testing.assert_allclose(e.belief_after, e.belief_before, atol=1e-12)
    buys = sum(e.outcome is Outcome.BUY for e in rec.events)
    assert buys + sum(e.outcome is Outcome.SELL for e in rec.events) == len(rec.events)


def test_static_noise_without_force_is_refused():
    model = MarketModel(
        grid=GRID,
        generator=GeneratorMatrix.zero(2),
        arrival_rate=3.0,
        noise=NoiseTraderMix(0.75),
        initial_belief=PRIOR,
    )
    with pytest.raises(ConditionFailed):
        simulate_gmps_path(model, 1.0, SimConfig(), seed=0)


def _gated_model(noise):
    return MarketModel(grid=GRID, generator=Q, arrival_rate=4.0, noise=noise,
                       initial_belief=PRIOR)


GATED_CALLS = {
    "solve_ask": lambda nz, force: solve_ask(PRIOR, GRID, nz, force=force),
    "solve_bid": lambda nz, force: solve_bid(PRIOR, GRID, nz, force=force),
    "solve_static_quotes": lambda nz, force: solve_static_quotes(
        PRIOR, GRID, nz, force=force),
    "make_filter_state": lambda nz, force: make_filter_state(
        PRIOR, GRID, nz, force=force),
    "integrate_between_events": lambda nz, force: integrate_between_events(
        make_filter_state(PRIOR, GRID, nz, force=True), 0.3, 4.0, Q, GRID, nz,
        ode_step=0.05, force=force),
    "simulate_gmps_path": lambda nz, force: simulate_gmps_path(
        _gated_model(nz), 1.0, SimConfig(ode_step=0.05, force=force), seed=0),
}


@pytest.mark.parametrize("noise", [TwoPointDiscrete(1.0, 0.5), Logistic(0.5)],
                         ids=["two_point", "logistic_K2"])
@pytest.mark.parametrize("name", sorted(GATED_CALLS))
def test_every_quote_solve_shares_one_gate(name, noise):
    """A static-only family and a failed condition (K = 2 on [0, 1]) are
    refused by every entry point that solves quotes, and pass with force."""
    call = GATED_CALLS[name]
    with pytest.raises(ConditionFailed):
        call(noise, False)
    assert call(noise, True) is not None


def test_event_asks_are_predictable_from_prior_belief():
    """The posted ask at any arrival is the zero-profit price of the belief
    held just before it."""
    rec = simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=5e-3), seed=13)
    assert len(rec.events) >= 5
    for e in rec.events:
        belief = Belief(e.belief_before)
        assert e.ask == pytest.approx(
            solve_ask(belief, GRID, NOISE), abs=1e-9
        )
        assert e.bid == pytest.approx(
            solve_bid(belief, GRID, NOISE), abs=1e-9
        )


def test_traded_quote_equals_posterior_mean():
    rec = simulate_gmps_path(MODEL, 5.0, SimConfig(ode_step=5e-3), seed=29)
    buys = [e for e in rec.events if e.outcome is Outcome.BUY]
    sells = [e for e in rec.events if e.outcome is Outcome.SELL]
    assert buys and sells
    for e in buys:
        assert float(e.belief_after @ GRID.values) == pytest.approx(e.ask, abs=1e-9)
    for e in sells:
        assert float(e.belief_after @ GRID.values) == pytest.approx(e.bid, abs=1e-9)


def test_no_trade_leaves_belief_unchanged():
    rec = simulate_gmps_path(
        MODEL, 20.0, SimConfig(ode_step=0.01), seed=3
    )
    skipped = [e for e in rec.events if e.outcome is Outcome.NO_TRADE]
    assert skipped, "expected at least one no-trade arrival at this seed"
    for e in skipped:
        np.testing.assert_array_equal(e.belief_after, e.belief_before)
        assert e.profit == 0.0


def test_profit_bookkeeping_is_exact():
    rec = simulate_gmps_path(MODEL, 6.0, SimConfig(ode_step=0.01), seed=17)
    buy_sum = 0.0
    sell_sum = 0.0
    for e in rec.events:
        if e.outcome is Outcome.BUY:
            assert e.profit == e.ask - e.x
            buy_sum += e.profit
        elif e.outcome is Outcome.SELL:
            assert e.profit == e.bid - e.x
            sell_sum += e.profit
    assert rec.buy_profit == buy_sum
    assert rec.sell_profit == sell_sum
    assert rec.n_buys == sum(e.outcome is Outcome.BUY for e in rec.events)
    assert rec.n_sells == sum(e.outcome is Outcome.SELL for e in rec.events)
    assert np.sum(rec.trade_profits(Outcome.BUY)) == pytest.approx(buy_sum)


def test_event_valuation_consistent_with_outcome():
    rec = simulate_gmps_path(MODEL, 6.0, SimConfig(ode_step=0.01), seed=23)
    for e in rec.events:
        v = e.x + e.eps
        if e.outcome is Outcome.BUY:
            assert v >= e.ask
        elif e.outcome is Outcome.SELL:
            assert v <= e.bid
        else:
            assert e.bid < v < e.ask


def test_sample_grid_covers_run_and_respects_quotes():
    cfg = SimConfig(ode_step=0.01, sample_dt=0.125)
    rec = simulate_gmps_path(MODEL, 2.0, cfg, seed=11)
    t = rec.sample_times
    assert t[0] == 0.0 and t[-1] == 2.0
    assert np.all(np.diff(t) > 0)
    grid_times = np.arange(0, 17) * 0.125
    assert np.all(np.isin(grid_times, t))
    for e in rec.events:
        assert np.any(np.isclose(t, e.t, rtol=0, atol=1e-12))
    means = rec.sample_beliefs @ GRID.values
    assert np.all(rec.sample_bids <= means + 1e-9)
    assert np.all(means <= rec.sample_asks + 1e-9)
    row_sums = rec.sample_beliefs.sum(axis=1)
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)


def test_sample_point_on_an_arrival_is_recorded_once():
    """A sample point that coincides with an arrival is dropped in favour of
    the post-arrival row, so that time appears once in sample_times."""
    first = simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=0.02), seed=11)
    tau = first.events[0].t
    rec = simulate_gmps_path(
        MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=tau), seed=11
    )
    assert rec.events[0].t == tau
    (at,) = np.flatnonzero(rec.sample_times == tau)
    assert np.array_equal(rec.sample_beliefs[at], rec.events[0].belief_after)
    assert np.all(np.diff(rec.sample_times) > 0)


def test_stop_schedule_merges_arrivals_samples_and_horizon():
    arrivals = np.array([0.25 + 1e-14, 0.6])
    assert list(gmsim.engine._stops(arrivals, None, 1.0)) == [
        (0.25 + 1e-14, 0), (0.6, 1), (1.0, None)
    ]
    # 0.25 sits within 1e-12 of the first arrival and 4 * 0.25 on the horizon
    assert list(gmsim.engine._stops(arrivals, 0.25, 1.0)) == [
        (0.0, None), (0.25 + 1e-14, 0), (0.5, None), (0.6, 1), (0.75, None),
        (1.0, None),
    ]


def test_sampled_values_follow_the_chain():
    cfg = SimConfig(ode_step=0.02, sample_dt=0.25)
    rec = simulate_gmps_path(MODEL, 3.0, cfg, seed=37)
    for t, x in zip(rec.sample_times, rec.sample_values):
        idx = value_at(rec.value_times, rec.value_states, float(t))
        assert x == GRID.values[idx]


def test_perturbed_ask_sits_above_the_fixed_point():
    """The perturbed run still quotes predictably: every posted ask is the
    zero-profit price of the pre-trade belief plus the flat shift."""
    base = simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=0.02), seed=51)
    bumped = simulate_gmps_path(
        MODEL, 3.0, SimConfig(ode_step=0.02, perturb_ask=0.05), seed=51
    )
    assert base.events and bumped.events
    # the randomness is shared, so the arrival clock matches exactly
    assert base.events[0].t == bumped.events[0].t
    shift = 0.05 * GRID.width
    for e in bumped.events:
        belief = Belief(e.belief_before)
        assert e.ask == pytest.approx(
            solve_ask(belief, GRID, NOISE) + shift, abs=1e-9
        )
        assert e.bid == pytest.approx(solve_bid(belief, GRID, NOISE), abs=1e-9)
    assert bumped.events[0].ask > base.events[0].ask + 0.9 * shift


def test_simplex_diagnostics_stay_tight_over_batch():
    recs = simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02), seed=5, n_paths=10)
    merged = SimplexDiagnostics()
    for r in recs:
        merged.merge(r.diagnostics)
    assert merged.max_sum_error <= 1e-9
    assert merged.min_component >= -1e-12


def test_batch_offsets_are_sequential():
    recs = simulate_paths(MODEL, 1.0, SimConfig(ode_step=0.05), seed=2, n_paths=3)
    assert [r.offset for r in recs] == [0, 1, 2]
    solo = simulate_gmps_path(MODEL, 1.0, SimConfig(ode_step=0.05), seed=2, offset=1)
    assert np.array_equal(recs[1].value_times, solo.value_times)


def test_invalid_model_and_config_arguments():
    with pytest.raises(ConfigError, match="generator"):
        MarketModel(
            grid=GRID, generator=GeneratorMatrix.zero(3), arrival_rate=1.0,
            noise=NOISE, initial_belief=PRIOR,
        )
    with pytest.raises(ConfigError, match="belief"):
        MarketModel(
            grid=GRID, generator=Q, arrival_rate=1.0, noise=NOISE,
            initial_belief=Belief([0.2, 0.3, 0.5]),
        )
    with pytest.raises(ConfigError, match="arrival"):
        MarketModel(
            grid=GRID, generator=Q, arrival_rate=-1.0, noise=NOISE,
            initial_belief=PRIOR,
        )
    with pytest.raises(ConfigError, match="ode_step"):
        SimConfig(ode_step=0.0)
    with pytest.raises(ConfigError, match="sample_dt"):
        SimConfig(sample_dt=-0.1)
    with pytest.raises(ConfigError, match="horizon"):
        simulate_gmps_path(MODEL, 0.0, SimConfig(), seed=0)


def test_gaussian_noise_runs_end_to_end():
    model = MarketModel(
        grid=StateGrid([0.0, 0.5, 1.0]),
        generator=GeneratorMatrix(
            [[-0.6, 0.4, 0.2], [0.3, -0.6, 0.3], [0.2, 0.4, -0.6]]
        ),
        arrival_rate=5.0,
        noise=Gaussian(1.5),
        initial_belief=Belief([1 / 3, 1 / 3, 1 / 3]),
    )
    rec = simulate_gmps_path(model, 2.0, SimConfig(ode_step=0.01), seed=77)
    assert rec.n_trades > 0
    for e in rec.events:
        if e.outcome is Outcome.BUY:
            mean_after = float(e.belief_after @ model.grid.values)
            assert mean_after == pytest.approx(e.ask, abs=1e-9)


# --------------------------------------------------------------------------
# Bitwise pins: the quote/filter arithmetic must not be reordered


def _path_digest(records) -> str:
    """sha256 over float.hex of every event field and sample array."""
    h = hashlib.sha256()

    def put(values):
        for v in np.ravel(values):
            h.update(float(v).hex().encode())
        h.update(b";")

    for rec in records:
        put(rec.value_times)
        put([rec.buy_profit, rec.sell_profit, rec.n_buys, rec.n_sells])
        put([rec.diagnostics.max_sum_error, rec.diagnostics.min_component])
        for e in rec.events:
            h.update(e.outcome.value.encode())
            put([e.t, e.x, e.eps, e.ask, e.bid, e.profit])
            put(e.belief_before)
            put(e.belief_after)
        if rec.sample_times is not None:
            for arr in (rec.sample_times, rec.sample_asks, rec.sample_bids,
                        rec.sample_values, rec.sample_beliefs):
                put(arr)
    return h.hexdigest()


LAPLACE_MODEL3 = MarketModel(
    grid=StateGrid([0.0, 0.5, 1.0]),
    generator=GeneratorMatrix([[-0.7, 0.4, 0.3], [0.3, -0.6, 0.3], [0.2, 0.5, -0.7]]),
    arrival_rate=5.0,
    noise=Laplace(2.0),
    initial_belief=Belief([0.4, 0.2, 0.4]),
)


def test_logistic_paths_are_bitwise_pinned():
    """README scenario, offsets 0-3, sampled: digest recorded before the
    quote/filter kernel was consolidated."""
    recs = simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25),
                          seed=42, n_paths=4)
    assert sum(len(r.events) for r in recs) > 20
    assert _path_digest(recs) == (
        "95f0736b338897f179ff1a6a345e5e49d6bf87a0b15e6491e2c76d5a035eddf4"
    )
    lockstep = gmsim.engine._simulate_lockstep(
        MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25), 42, 4)
    assert _path_digest(lockstep) == _path_digest(recs)


def test_laplace_path_is_bitwise_pinned():
    """A 3-state Laplace path with a shifted ask (the drift sees the posted
    quote, the solves do not), without sampling."""
    rec = simulate_gmps_path(LAPLACE_MODEL3, 3.0,
                             SimConfig(ode_step=0.02, perturb_ask=0.02), seed=9)
    assert rec.n_trades > 5
    assert _path_digest([rec]) == (
        "cc3f7ce2958b6e30a490636a843b8596aaf710910c944765ca00fb91f3ec6ad7"
    )


def test_dense_sampled_paths_are_bitwise_pinned():
    """README scenario, offsets 0-3, sampled every 1/30: many sample points
    fall close to arrivals, and 90/30 lands on the horizon and is dropped.
    Digest recorded before the stop loop was flattened."""
    recs = simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=1 / 30),
                          seed=42, n_paths=4)
    assert sum(len(r.events) for r in recs) > 40
    assert _path_digest(recs) == (
        "f799629434a323c15423c6651a368743001b7d2d69ea15fe762720f86c5006c4"
    )
    lockstep = gmsim.engine._simulate_lockstep(
        MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=1 / 30), 42, 4)
    assert _path_digest(lockstep) == _path_digest(recs)


def test_silent_sampled_paths_are_bitwise_pinned():
    """The README market with lambda = 0, sampled at 0.25: no arrivals, so
    every stop is a sample point on the uninformative integrate path."""
    model = MarketModel(
        grid=GRID, generator=Q, arrival_rate=0.0, noise=NOISE, initial_belief=PRIOR
    )
    recs = simulate_paths(model, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25),
                          seed=42, n_paths=4)
    assert all(not r.events and len(r.sample_times) == 13 for r in recs)
    assert _path_digest(recs) == (
        "f7cd3cc94ef7c77ddda6be872c71af791e30c7876fd9826297fbe8a499e62283"
    )
    lockstep = gmsim.engine._simulate_lockstep(
        model, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25), 42, 4)
    assert _path_digest(lockstep) == _path_digest(recs)


# --------------------------------------------------------------------------
# The lockstep engine against the scalar one


def test_batches_from_the_threshold_run_in_lockstep(monkeypatch):
    """simulate_paths hands a batch to the lockstep engine from
    LOCKSTEP_MIN_PATHS paths on, and its paths equal the solo runs."""
    runs = []
    lockstep = gmsim.engine._simulate_lockstep

    def spy(*args):
        runs.append(args[-1])
        return lockstep(*args)

    monkeypatch.setattr(gmsim.engine, "_simulate_lockstep", spy)
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    cfg = SimConfig(ode_step=0.1, sample_dt=0.2)
    below = simulate_paths(MODEL, 0.6, cfg, seed=3, n_paths=n - 1)
    at = simulate_paths(MODEL, 0.6, cfg, seed=3, n_paths=n)
    assert runs == [n]
    assert [r.offset for r in at] == list(range(n))
    assert _path_digest(at[:-1]) == _path_digest(below)
    solo = simulate_gmps_path(MODEL, 0.6, cfg, seed=3, offset=n - 1)
    assert _path_digest(at[-1:]) == _path_digest([solo])


STIFF_MODEL = MarketModel(  # rates of 20 against ode_step 0.1: RK4 overshoots
    grid=StateGrid([0.0, 0.5, 1.0]),
    generator=GeneratorMatrix([[0.0, 20.0, 20.0], [0.0, 0.0, 20.0], [0.0, 0.0, 0.0]]),
    arrival_rate=30.0,
    noise=Logistic(1.5),
    initial_belief=Belief([0.5, 0.3, 0.2]),
)
NINE_STATE_MODEL = MarketModel(
    grid=StateGrid(np.linspace(0.0, 1.0, 9)),
    generator=GeneratorMatrix(np.diag([0.6] * 8, 1) + np.diag([0.6] * 8, -1)),
    arrival_rate=8.0,
    noise=Gaussian(1.5),
    initial_belief=Belief([1.0 / 9] * 9),
)


@pytest.mark.parametrize("model, cfg", [
    (STIFF_MODEL, SimConfig(ode_step=0.1, sample_dt=0.25)),
    (NINE_STATE_MODEL, SimConfig(ode_step=0.01, perturb_ask=0.01)),
], ids=["clamped_steps", "nine_states"])
def test_lockstep_paths_equal_solo_runs(model, cfg):
    """Steps that leave the simplex and are clamped, and more states than
    numpy sums in order, run bit for bit as the solo runs do."""
    solo = [simulate_gmps_path(model, 1.0, cfg, seed=5, offset=k) for k in range(4)]
    batch = gmsim.engine._simulate_lockstep(model, 1.0, cfg, 5, 4)
    assert _path_digest(batch) == _path_digest(solo)
    if model is STIFF_MODEL:
        assert min(r.diagnostics.min_component for r in solo) < 0.0


def _two_point_model(grid, q, noise):
    return MarketModel(grid=grid, generator=q, arrival_rate=4.0, noise=noise,
                       initial_belief=Belief([1.0 / grid.n] * grid.n))


FAILING_BATCHES = {  # model, config, horizon, seed, the one error of every failing path
    # a forced static-only family leaves a side with no trade mass after a trade
    "two_point_2_states": (
        _two_point_model(GRID, Q, TwoPointDiscrete(0.3, 0.5)),
        SimConfig(ode_step=0.05, force=True), 0.1, 9, ZeroSellProbability),
    "two_point_3_states": (
        _two_point_model(StateGrid([0.0, 0.5, 1.0]), GeneratorMatrix.zero(3),
                         TwoPointDiscrete(0.3, 0.3)),
        SimConfig(ode_step=0.05, force=True), 0.1, 3, ZeroBuyProbability),
    # too coarse a step: an RK4 stage leaves the simplex so far that its bid
    # solve finds no sell mass
    "stiff_stage": (STIFF_MODEL, SimConfig(ode_step=0.2), 1.0, 3, ZeroSellProbability),
    # a forced static-only family whose solved bid exceeds its ask
    "crossed_quotes": (
        _two_point_model(GRID, Q, TwoPointDiscrete(0.55, 0.7)),
        SimConfig(ode_step=0.05, force=True), 0.3, 3, ConditionFailed),
}


@pytest.mark.parametrize("name", sorted(FAILING_BATCHES))
def test_failing_batch_raises_like_the_scalar_engine(name):
    """Every path that fails solo fails with the same error, so the batch
    must raise it whichever failure the lockstep engine meets first."""
    model, cfg, horizon, seed, error = FAILING_BATCHES[name]
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    failures = set()
    for offset in range(n):
        try:
            simulate_gmps_path(model, horizon, cfg, seed=seed, offset=offset)
        except GmsimError as exc:
            failures.add(type(exc))
    assert failures == {error}
    with pytest.raises(error):
        simulate_paths(model, horizon, cfg, seed=seed, n_paths=n)


def test_crossed_quotes_are_a_numerical_failure():
    """Crossed solved quotes name t, the ask and the bid; only a crossing
    that a perturbation causes is blamed on the perturbation."""
    model = FAILING_BATCHES["crossed_quotes"][0]
    cfg = SimConfig(ode_step=0.05, force=True)
    crossed = r"^crossed quotes at t=0\.0197\d*: the solved ask 0\.497\d* is below the bid 0\.497"
    with pytest.raises(ConditionFailed, match=crossed):
        simulate_gmps_path(model, 1.0, cfg, seed=3)
    with pytest.raises(ConditionFailed, match=crossed):
        simulate_paths(model, 1.0, cfg, seed=3, n_paths=gmsim.engine.LOCKSTEP_MIN_PATHS)
    with pytest.raises(ConfigError, match="ask perturbation pushed the ask below the bid"):
        simulate_gmps_path(MODEL, 1.0, SimConfig(ode_step=0.05, perturb_ask=-0.5), seed=3)


def test_too_coarse_a_step_is_named():
    """A zero-mass error met while integrating with ode_step beyond RK4's
    stability limit for the chain's rates names the step, in both engines;
    a zero-mass error after a trade keeps its message."""
    stiff = FAILING_BATCHES["stiff_stage"][1]
    named = (r"^no trade mass at price [-.\d]+: ode_step 0\.2 times the largest exit "
             r"rate 40 is 8, beyond RK4's stability limit 2\.785; the largest stable "
             r"step is 0\.06963$")
    with pytest.raises(ZeroSellProbability, match=named):
        simulate_paths(STIFF_MODEL, 1.0, stiff, seed=3, n_paths=gmsim.engine.LOCKSTEP_MIN_PATHS)
    with pytest.raises(ZeroSellProbability, match=named):
        simulate_paths(STIFF_MODEL, 1.0, stiff, seed=3, n_paths=gmsim.engine.LOCKSTEP_MIN_PATHS - 1)
    model, cfg, horizon, seed, error = FAILING_BATCHES["two_point_2_states"]
    with pytest.raises(error, match=r"^no trade mass at price [-.\de]+$"):
        simulate_paths(model, horizon, cfg, seed=seed, n_paths=gmsim.engine.LOCKSTEP_MIN_PATHS)


@pytest.mark.parametrize("n_paths", [1, 40])
def test_runs_refuse_seeds_a_scenario_refuses(n_paths):
    """Both engines hold library callers to the scenario file's seed rule."""
    for seed in (2**64 + 5, 2**63, -1):
        with pytest.raises(ConfigError, match="must fit in 64 bits"):
            simulate_paths(MODEL, 0.5, SimConfig(), seed=seed, n_paths=n_paths)
        with pytest.raises(ConfigError, match="must fit in 64 bits"):
            simulate_gmps_path(MODEL, 0.5, SimConfig(), seed=seed)
    top = simulate_paths(MODEL, 0.2, SimConfig(ode_step=0.1), seed=2**63 - 1,
                         n_paths=n_paths)
    assert top[0].seed == 2**63 - 1


@pytest.mark.parametrize("n_paths", [1, 40])
def test_runs_refuse_fractional_seeds_and_take_numpy_integers(n_paths):
    """A float seed or path count is refused before anything runs, and a
    numpy integer seed runs the same paths as the int."""
    with pytest.raises(ConfigError, match="must fit in 64 bits"):
        simulate_paths(MODEL, 0.5, SimConfig(), seed=7.9, n_paths=n_paths)
    with pytest.raises(ConfigError, match=r"^n_paths: expected an integer, got \d+\.5$"):
        simulate_paths(MODEL, 0.5, SimConfig(), seed=7, n_paths=n_paths + 0.5)
    sim = SimConfig(ode_step=0.1)
    as_int = simulate_paths(MODEL, 0.2, sim, seed=7, n_paths=n_paths)
    as_numpy = simulate_paths(MODEL, 0.2, sim, seed=np.int64(7), n_paths=np.int64(n_paths))
    assert _path_digest(as_numpy) == _path_digest(as_int)


def test_lockstep_arrivals_run_as_rows(monkeypatch):
    """Past the opening solve, a lockstep batch with trades makes no scalar
    quote solve or jump: its arrivals are jumped and re-solved as rows."""
    calls = []
    kernel = gmsim.beliefs._FilterKernel
    for name in ("quotes", "jump"):
        scalar = getattr(kernel, name)

        def spy(self, *args, _name=name, _scalar=scalar):
            calls.append(_name)
            return _scalar(self, *args)

        monkeypatch.setattr(kernel, name, spy)
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    recs = simulate_paths(MODEL, 1.0, SimConfig(ode_step=0.05), seed=3, n_paths=n)
    assert sum(r.n_trades for r in recs) > n
    assert calls == ["quotes"]


def test_unsampled_paths_keep_no_sample_rows(monkeypatch):
    """Only a path with sample_dt keeps the state at each stop, in both
    engines."""
    kept = []
    finish = gmsim.engine._Path.finish

    def spy(self):
        kept.append(len(self.rows))
        return finish(self)

    monkeypatch.setattr(gmsim.engine._Path, "finish", spy)
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    cfg = SimConfig(ode_step=0.05)
    solo = simulate_gmps_path(MODEL, 1.0, cfg, seed=3)
    batch = simulate_paths(MODEL, 1.0, cfg, seed=3, n_paths=n)
    assert solo.events and sum(len(r.events) for r in batch) > n
    assert kept == [0] * (1 + n)
    sampled = simulate_gmps_path(MODEL, 1.0, SimConfig(ode_step=0.05, sample_dt=0.5), seed=3)
    assert kept[-1] == len(sampled.sample_times) > 0


def test_lockstep_paths_with_a_shifted_ask_equal_solo_runs():
    """With an ask shift the drift's tails differ from the solve's first
    iterate and are not reused; a full batch still runs as the solo runs."""
    cfg = SimConfig(ode_step=0.05, perturb_ask=0.01)
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    batch = simulate_paths(MODEL, 1.0, cfg, seed=8, n_paths=n)
    solo = [simulate_gmps_path(MODEL, 1.0, cfg, seed=8, offset=k) for k in range(n)]
    assert sum(r.n_trades for r in solo) > n
    assert _path_digest(batch) == _path_digest(solo)


def test_engine_imports_no_private_equilibrium_names():
    """The engine reaches the quote solver only through the filter kernel."""
    tree = ast.parse(inspect.getsource(gmsim.engine))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rsplit(".", 1)[-1] == "equilibrium"
        for alias in node.names
    ]
    assert imported
    assert not [name for name in imported if name.startswith("_")]


@st.composite
def admissible_runs(draw):
    """A random admissible market, run and batch: 2-8 states, a generator
    whose rows may be absorbing, a continuous family scaled to pass the
    condition, and arrival rates none, small or large."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    xs = [0.0]
    for g in gaps:
        xs.append(xs[-1] + g)
    grid = StateGrid(xs)
    rates = []
    for i in range(n):
        absorbing = draw(st.booleans())
        rates.append([
            0.0 if absorbing or j == i else draw(st.sampled_from([0.0, 0.2, 1.0, 3.0]))
            for j in range(n)
        ])
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    assume(sum(weights) > 0.1)
    family = draw(st.sampled_from([Logistic, Laplace, Gaussian]))
    noise = family(draw(st.floats(1.1, 4.0)) * grid.width)
    assume(check_gm_condition(noise, grid.width).passes)
    model = MarketModel(
        grid=grid, generator=GeneratorMatrix(rates),
        arrival_rate=draw(st.sampled_from([0.0, 0.5, 12.0])), noise=noise,
        initial_belief=Belief(weights),
    )
    cfg = SimConfig(
        ode_step=draw(st.sampled_from([0.02, 0.05, 0.1])),
        sample_dt=draw(st.one_of(st.none(), st.floats(0.03, 0.5))),
        perturb_ask=draw(st.sampled_from([0.0, 0.01])),
    )
    horizon = draw(st.floats(0.1, 1.0))
    seed = draw(st.integers(0, 2**63 - 1))
    return model, horizon, cfg, seed


@settings(max_examples=40)
@given(admissible_runs())
def test_lockstep_paths_equal_solo_runs_on_random_markets(run):
    model, horizon, cfg, seed = run
    solo = [simulate_gmps_path(model, horizon, cfg, seed=seed, offset=k) for k in range(3)]
    batch = gmsim.engine._simulate_lockstep(model, horizon, cfg, seed, 3)
    digest = _path_digest(batch)
    assert digest == _path_digest(solo)
    assert _path_digest(gmsim.engine._simulate_lockstep(model, horizon, cfg, seed, 3)) == digest
    xs = model.grid.values
    for rec in batch:
        for e in rec.events:  # a trade executes at the post-trade mean
            if e.outcome is Outcome.SELL or (e.outcome is Outcome.BUY and not cfg.perturb_ask):
                price = e.ask if e.outcome is Outcome.BUY else e.bid
                assert abs(float(e.belief_after @ xs) - price) <= 1e-8
        beliefs = [e.belief_after for e in rec.events]
        if rec.sample_times is not None:
            beliefs += list(rec.sample_beliefs)
            means = rec.sample_beliefs @ xs
            assert np.all(rec.sample_bids <= means + 1e-9)
            assert np.all(means <= rec.sample_asks + 1e-9)
        for b in beliefs:
            assert np.all(b >= 0.0)
            assert abs(b.sum() - 1.0) <= 1e-12
