"""Tests for the event-driven market simulator."""

import ast
import hashlib
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gmsim.beliefs
import gmsim.engine
from gmsim.beliefs import (
    SimplexDiagnostics,
    hermite,
    integrate_between_events,
    make_filter_state,
    segment,
)
from gmsim.config import ScenarioConfig
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.engine import (
    LOCKSTEP_MIN_PATHS,
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
    NoConvergence,
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

from oracles import expm_reference, hermite_reference, ks_statistic, sample_times_reference

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


def test_arrival_times_do_not_depend_on_the_draw_chunk(monkeypatch):
    """The capped draw chunk moves no arrival: numpy's Generator gives the
    same gaps however many it is asked for at once."""
    whole = sample_arrival_times(50.0, 200.0, np.random.default_rng(4))
    monkeypatch.setattr(gmsim.engine, "ARRIVAL_CHUNK", 16)
    chunked = sample_arrival_times(50.0, 200.0, np.random.default_rng(4))
    assert len(whole) > 9000 and np.array_equal(chunked, whole)


@pytest.mark.parametrize("lam, horizon", [(1e21, 0.3), (2e6, 0.5000001), (1e300, 1e300)])
def test_an_arrival_count_no_path_can_hold_is_refused(lam, horizon):
    """An expected count lam * horizon above MAX_EXPECTED_ARRIVALS is
    refused before any draw, with the count named."""
    with pytest.raises(ConfigError, match=r"^lambda \* horizon = ([\d.e+]+|inf) expected"):
        sample_arrival_times(lam, horizon, np.random.default_rng(0))
    bound = gmsim.engine.MAX_EXPECTED_ARRIVALS
    assert len(sample_arrival_times(bound, 1e-3, np.random.default_rng(0))) > 900


@pytest.mark.parametrize("rate, horizon", [(1e300, 0.3), (2.0**70, 0.3), (2e6, 0.5000001)])
def test_a_value_chain_no_path_can_hold_is_refused(rate, horizon):
    """A chain whose largest exit rate times horizon, which bounds its
    expected jumps, is above MAX_EXPECTED_ARRIVALS is refused before any
    draw; drawn, a two-state chain that fast never ends."""
    q = GeneratorMatrix([[-rate, rate], [rate, -rate]])
    with pytest.raises(ConfigError, match=r"^generator: largest exit rate \* horizon = "):
        sample_value_path(q, PRIOR, horizon, np.random.default_rng(0))
    bound = gmsim.engine.MAX_EXPECTED_ARRIVALS
    q = GeneratorMatrix([[-bound, bound], [bound, -bound]])
    assert len(sample_value_path(q, PRIOR, 1e-3, np.random.default_rng(0))[0]) > 900


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


@pytest.mark.parametrize("seed, offset", [(7.9, 0), (7, 1.5), (7.0, 0), (True, 0), (7, True)])
def test_streams_refuse_fractional_keys(seed, offset):
    """A float or bool key is refused, not truncated to another path's
    streams."""
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


@pytest.mark.parametrize("horizon, ode_step", [(1e300, 0.02), (1e300, 1e-10), (1.0, 0.999999e-6)])
@pytest.mark.parametrize("n_paths", [1, LOCKSTEP_MIN_PATHS])
def test_a_step_count_no_path_can_hold_is_refused(horizon, ode_step, n_paths, monkeypatch):
    """More than MAX_EXPECTED_ARRIVALS RK4 steps (5e301 at 0.02, an infinite
    count at 1e-10) is refused in both engines, naming ode_step, before any
    draw: a silent market passes every arrival and jump bound at any
    horizon, and its one segment would never end or overflow math.ceil."""
    silent = replace(MODEL, generator=GeneratorMatrix.zero(2), arrival_rate=0.0)

    def no_draws(*args):
        raise AssertionError("a refused run drew its streams")

    monkeypatch.setattr(gmsim.engine, "path_streams", no_draws)
    with pytest.raises(ConfigError, match=r"^ode_step: horizon / ode_step = ([\d.e+]+|inf) RK4"):
        simulate_paths(silent, horizon, SimConfig(ode_step=ode_step), n_paths=n_paths)


@pytest.mark.parametrize("sample_dt", [1e-15, 5e-324])
def test_a_sample_grid_no_path_can_hold_is_refused(sample_dt):
    """More than MAX_EXPECTED_ARRIVALS sample rows (petabytes at 1e-15, an
    infinite count at 5e-324) is refused, naming sample_dt, before the grid
    is allocated."""
    with pytest.raises(ConfigError, match=r"^sample_dt: horizon / sample_dt = ([\d.e+]+|inf) "):
        simulate_gmps_path(MODEL, 1.0, SimConfig(sample_dt=sample_dt, ode_step=0.02))


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
    """The sample times merge 0, the arrivals, the horizon and the sample
    points in between; the stops are the arrivals and the horizon alone."""
    arrivals = np.array([0.25 + 1e-14, 0.6])
    # 0.25 sits within 1e-12 of the first arrival and 4 * 0.25 on the horizon
    assert gmsim.engine._sample_times(arrivals, 0.25, 1.0).tolist() == [
        0.0, 0.25 + 1e-14, 0.5, 0.6, 0.75, 1.0,
    ]


@st.composite
def sample_schedules(draw):
    """(arrivals, sample_dt, horizon): arrivals anywhere in (0, horizon),
    on or within a few 1e-13 of a sample point, and repeated; sample_dt
    from a tenth of the horizon to past it, or a whole fraction of it."""
    horizon = draw(st.floats(0.05, 3.0))
    sample_dt = draw(st.one_of(
        st.floats(0.1, 1.5).map(lambda u: u * horizon),
        st.integers(1, 40).map(lambda m: horizon / m),
    ))
    arrivals = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             max_size=6))
    arrivals = [u * horizon for u in arrivals]
    for m, shift in draw(st.lists(st.tuples(
        st.integers(1, 40), st.sampled_from([0.0, 1e-13, -1e-13, 9e-13, -9e-13, 2e-12])
    ), max_size=3)):
        if 0.0 < m * sample_dt + shift < horizon:
            arrivals.append(m * sample_dt + shift)
    if arrivals and draw(st.booleans()):
        arrivals.append(arrivals[0])
    return np.sort(arrivals), sample_dt, horizon


@given(sample_schedules())
@example((np.array([0.3]), 1.5, 1.0))  # sample_dt past the horizon
@example((np.array([0.2, 0.6]), 0.25, 1.0))  # the horizon a whole multiple
@example((np.array([]), 3.0 / 400, 3.0))  # the plot's spacing, no arrivals
@example((np.array([0.25 - 9e-13, 0.5 + 1e-13, 0.75 + 2e-12]), 0.25, 1.0))  # near a point
@example((np.array([0.4, 0.4, 0.7]), 0.1, 1.0))  # two equal arrivals
def test_sample_times_equal_the_stop_by_stop_rule(schedule):
    """The array schedule equals the stop-by-stop loop it replaced."""
    got = gmsim.engine._sample_times(*schedule).tolist()
    assert [t.hex() for t in got] == [t.hex() for t in sample_times_reference(*schedule)]


def _double_the_third_arrival(monkeypatch):
    """Make every path's third arrival two arrivals at one float, so the
    segment between them takes no time."""
    draw = gmsim.engine.sample_arrival_times

    def doubled(lam, horizon, rng):
        times = draw(lam, horizon, rng)
        return np.insert(times, 2, times[2])

    monkeypatch.setattr(gmsim.engine, "sample_arrival_times", doubled)


def test_equal_arrivals_keep_their_time_once_per_stop(monkeypatch):
    """Two arrivals at one float make a segment of no time. Their time is a
    sample row once per stop, each the state after that stop, and the
    segment after them does not read it again; the events are the
    unsampled run's."""
    _double_the_third_arrival(monkeypatch)
    cfg = SimConfig(ode_step=0.02)
    unsampled = simulate_gmps_path(MODEL, 3.0, cfg, seed=42)
    events = unsampled.events
    assert len(events) > 4 and events[2].t == events[3].t
    sampled = simulate_gmps_path(MODEL, 3.0, replace(cfg, sample_dt=1 / 30), seed=42)
    assert _event_digest([sampled]) == _event_digest([unsampled])
    at = np.flatnonzero(sampled.sample_times == events[2].t)
    assert at.tolist() == [at[0], at[0] + 1]
    assert np.array_equal(sampled.sample_beliefs[at[0]], events[2].belief_after)
    assert np.array_equal(sampled.sample_beliefs[at[1]], events[3].belief_after)
    assert np.count_nonzero(np.diff(sampled.sample_times) <= 0) == 1


def test_lockstep_steps_a_segment_of_no_time_as_the_solo_run(monkeypatch):
    """A lockstep batch whose paths each meet two arrivals at one float
    takes the segment of no time between them as one RK4 step of length 0,
    as each solo run does: events, beliefs and SimplexDiagnostics equal the
    solo runs' bit for bit."""
    _double_the_third_arrival(monkeypatch)
    cfg = SimConfig(ode_step=0.02)
    batch = gmsim.engine._simulate_lockstep(MODEL, 3.0, cfg, 42, LOCKSTEP_MIN_PATHS)
    solo = [simulate_gmps_path(MODEL, 3.0, cfg, seed=42, offset=k)
            for k in range(LOCKSTEP_MIN_PATHS)]
    assert all(r.events[2].t == r.events[3].t for r in batch)
    assert _path_digest(batch) == _path_digest(solo)


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
        merged.absorb(r.diagnostics.max_sum_error, r.diagnostics.min_component)
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


EIGHT_STATE_MODEL = MarketModel(  # the benchmark's dense-filter chain
    grid=StateGrid(np.linspace(0.0, 1.0, 8)),
    generator=GeneratorMatrix(np.diag([0.6] * 7, 1) + np.diag([0.6] * 7, -1)),
    arrival_rate=8.0,
    noise=Gaussian(1.5),
    initial_belief=Belief([1.0 / 8] * 8),
)


def test_logistic_paths_are_bitwise_pinned():
    """README scenario, offsets 0-3, sampled: digest recorded when the
    logistic quote solves moved to Newton steps."""
    recs = simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25),
                          seed=42, n_paths=4)
    assert sum(len(r.events) for r in recs) > 20
    assert _path_digest(recs) == (
        "247d35b87d4e807b820d353a99ab368504e8123c0e6129cb2c53dc0138c93cef"
    )


def test_laplace_path_is_bitwise_pinned():
    """A 3-state Laplace path with a shifted ask (the drift sees the posted
    quote, the solves do not), without sampling: digest recorded when the
    Laplace quote solves moved to Newton steps."""
    rec = simulate_gmps_path(LAPLACE_MODEL3, 3.0,
                             SimConfig(ode_step=0.02, perturb_ask=0.02), seed=9)
    assert rec.n_trades > 5
    assert _path_digest([rec]) == (
        "b0cf3374e179530aadc9d2f693ac055eece025675bb33471714a4cca3a381969"
    )


def test_dense_sampled_paths_are_bitwise_pinned():
    """README scenario, offsets 0-3, sampled every 1/30: many sample points
    fall close to arrivals, and 90/30 lands on the horizon and is dropped.
    Digest recorded when the logistic quote solves moved to Newton steps."""
    recs = simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02, sample_dt=1 / 30),
                          seed=42, n_paths=4)
    assert sum(len(r.events) for r in recs) > 40
    assert _path_digest(recs) == (
        "fa9899bb44416ae207e690ae6b78bef6029c90cec8c9639caf37e28799bc2e15"
    )


def test_silent_sampled_paths_are_bitwise_pinned():
    """The README market with lambda = 0, sampled at 0.25: no arrivals, so
    the one segment runs to the horizon. Digest recorded when the quotes
    were re-solved at every RK4 stage for every arrival rate (asks and bids
    moved by at most 1.1e-16, every other field unchanged)."""
    model = MarketModel(
        grid=GRID, generator=Q, arrival_rate=0.0, noise=NOISE, initial_belief=PRIOR
    )
    recs = simulate_paths(model, 3.0, SimConfig(ode_step=0.02, sample_dt=0.25),
                          seed=42, n_paths=4)
    assert all(not r.events and len(r.sample_times) == 13 for r in recs)
    assert _path_digest(recs) == (
        "fa29b367daf7c04117ef8d45fd93abbc960cca4279ed4054e6c9530e6fedd934"
    )


def test_gaussian_dense_filter_path_is_bitwise_pinned():
    """The benchmark's 8-state Gaussian chain, one short sampled path: this
    digest pins the Gaussian solves' secant steps. Re-recorded when they
    replaced Picard steps: the events' quotes moved by at most 1.1e-15,
    the sampled quotes by 2.9e-14 (within the solves' tol of 1e-12),
    beliefs by 8.3e-17, and no trade outcome changed."""
    rec = simulate_gmps_path(EIGHT_STATE_MODEL, 0.5,
                             SimConfig(ode_step=0.01, sample_dt=0.05), seed=42)
    assert rec.n_trades > 5 and len(rec.sample_times) > 10
    assert _path_digest([rec]) == (
        "f1a4c70dba04d1cac2f086041aa1cd8c42bf01ce0d52ad10310ecb4737339b88"
    )


def test_readme_solves_take_fewer_than_three_evaluations(monkeypatch):
    """Newton steps from the logistic tail's own slope: over 8 README
    paths, the engine's quote solves evaluate g fewer than 3 times each on
    average (plain Picard iteration took about 5.4)."""
    counts = []
    picard = gmsim.beliefs._picard

    def spy(*args):
        price, evaluations = picard(*args)
        counts.append(evaluations)
        return price, evaluations

    monkeypatch.setattr(gmsim.beliefs, "_picard", spy)
    for k in range(8):
        simulate_gmps_path(MODEL, 3.0, SimConfig(ode_step=0.02), seed=42, offset=k)
    assert len(counts) > 5000
    assert sum(counts) / len(counts) < 3.0


def test_dense_filter_solves_take_secant_steps(monkeypatch):
    """Secant steps through the last two evaluations: on the benchmark's
    dense-filter path (the 8-state Gaussian chain, seed 1, T = 2), the
    quote solves evaluate g fewer than 2.6 times each on average (Picard
    steps took 3.78)."""
    counts = []
    picard = gmsim.beliefs._picard

    def spy(*args):
        price, evaluations = picard(*args)
        counts.append(evaluations)
        return price, evaluations

    monkeypatch.setattr(gmsim.beliefs, "_picard", spy)
    simulate_gmps_path(EIGHT_STATE_MODEL, 2.0, SimConfig(ode_step=1e-3), seed=1)
    assert len(counts) > 10_000
    assert sum(counts) / len(counts) < 2.6


@pytest.mark.parametrize("n_paths", [1, 40])
def test_a_kernel_binds_each_side_of_the_book_once(monkeypatch, n_paths):
    """Over a README solo path and a 40-path batch, the run's one kernel
    calls _side twice, when it is built, and every scalar quote solve is
    handed one of those two sides, never a side bound afresh."""
    side, picard = gmsim.beliefs._side, gmsim.beliefs._picard
    init = gmsim.beliefs._FilterKernel.__init__
    bound, kernels, handed = [], [], []

    def spy_side(*args):
        bound.append(side(*args))
        return bound[-1]

    def spy_init(self, *args):
        before = len(bound)
        init(self, *args)
        kernels.append(bound[before:])

    def spy_picard(s, *args):
        handed.append(s)
        return picard(s, *args)

    monkeypatch.setattr(gmsim.beliefs, "_side", spy_side)
    monkeypatch.setattr(gmsim.beliefs._FilterKernel, "__init__", spy_init)
    monkeypatch.setattr(gmsim.beliefs, "_picard", spy_picard)
    simulate_paths(MODEL, 3.0, SimConfig(ode_step=0.02), seed=42, n_paths=n_paths)
    assert len(kernels) == 1 and len(kernels[0]) == 2 and len(bound) == 2
    ask_side, bid_side = kernels[0]
    assert len(handed) > 1000
    assert all(s is ask_side or s is bid_side for s in handed)
    assert any(s is ask_side for s in handed) and any(s is bid_side for s in handed)


# --------------------------------------------------------------------------
# Sampling reads the RK4 dense output and leaves the path alone


def _event_digest(records) -> str:
    """_path_digest without the sample rows: value path, events, profits,
    counts and SimplexDiagnostics."""
    return _path_digest([replace(r, sample_times=None) for r in records])


SAMPLED_RUNS = {  # model, the unsampled config, horizon
    "readme": (MODEL, SimConfig(ode_step=0.02), 3.0),
    "gaussian_8_states": (EIGHT_STATE_MODEL, SimConfig(ode_step=0.01), 1.0),
    "shifted_ask": (MODEL, SimConfig(ode_step=0.02, perturb_ask=0.02), 3.0),
    "silent": (replace(MODEL, arrival_rate=0.0), SimConfig(ode_step=0.02), 3.0),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_RUNS))
def test_sampling_does_not_move_the_path(name):
    """Sample points coarser and finer than the step, and one that falls on
    an arrival, leave every event, profit, count and SimplexDiagnostics of
    the unsampled run as they are, bit for bit."""
    model, cfg, horizon = SAMPLED_RUNS[name]
    unsampled = [simulate_gmps_path(model, horizon, cfg, seed=42, offset=k) for k in range(3)]
    assert name == "silent" or sum(r.n_trades for r in unsampled) > 6
    on_arrival = unsampled[0].events[0].t if unsampled[0].events else 0.3
    for sample_dt in (0.25, 1 / 30, 0.004, on_arrival):
        sampled = replace(cfg, sample_dt=sample_dt)
        solo = [simulate_gmps_path(model, horizon, sampled, seed=42, offset=k)
                for k in range(3)]
        assert _event_digest(solo) == _event_digest(unsampled)
        assert len(solo[0].sample_times) > horizon / sample_dt


@pytest.mark.parametrize("lam", [0.0, 4.0])
@pytest.mark.parametrize("perturb_ask", [0.0, 0.02])
def test_sample_rows_quote_the_zero_profit_prices_of_their_beliefs(lam, perturb_ask):
    """Every sample row's quotes, less the ask shift, are the zero-profit
    prices of that row's belief, within 1e-9: at the stops and between them,
    with and without arrivals."""
    model = replace(MODEL, arrival_rate=lam)
    rec = simulate_gmps_path(
        model, 3.0, SimConfig(ode_step=0.02, sample_dt=0.05, perturb_ask=perturb_ask), seed=42
    )
    assert len(rec.sample_times) > 60 and (lam == 0.0 or rec.n_trades > 0)
    shift = perturb_ask * GRID.width
    for belief, ask, bid in zip(rec.sample_beliefs, rec.sample_asks, rec.sample_bids):
        assert ask - shift == pytest.approx(solve_ask(Belief(belief), GRID, NOISE), abs=1e-9)
        assert bid == pytest.approx(solve_bid(Belief(belief), GRID, NOISE), abs=1e-9)


def test_dense_output_follows_the_flow_between_steps():
    """With no arrivals the belief solves the forward equation. The sample
    rows read inside 0.05-long steps lie within 1e-8 of its exact flow (3.3e-9
    when recorded), where a straight line between the step ends strays
    6.7e-5."""
    q = GeneratorMatrix([[-0.7, 0.4, 0.3], [0.2, -0.5, 0.3], [0.1, 0.4, -0.5]])
    prior = Belief([0.5, 0.3, 0.2])
    model = MarketModel(grid=StateGrid([0.0, 0.5, 1.0]), generator=q, arrival_rate=0.0,
                        noise=Logistic(4.0), initial_belief=prior)
    rec = simulate_gmps_path(model, 1.0, SimConfig(ode_step=0.05, sample_dt=0.01), seed=0)
    assert len(rec.sample_times) == 101
    exact = np.array([prior.probs @ expm_reference(q.rates * t) for t in rec.sample_times])
    assert np.abs(rec.sample_beliefs - exact).max() <= 1e-8


def test_hermite_meets_the_step_ends():
    """The dense output starts at the step's start and ends at its end, and
    is exact for a belief that moves on a line."""
    p0, p1 = np.array([[0.5, 0.3, 0.2]] * 3), np.array([[0.4, 0.35, 0.25]] * 3)
    k = (p1 - p0) / 0.1
    start, end, mid = hermite(np.array([0.0, 1.0, 0.5]), 0.1, p0, k, p1, k)
    assert start == pytest.approx(p0[0], abs=1e-15)
    assert end == pytest.approx(p1[0], abs=1e-15)
    assert mid == pytest.approx(0.5 * (p0[0] + p1[0]), abs=1e-15)


@st.composite
def step_ends(draw):
    """(s, h, p0, k0, p1, k1) for 1-6 RK4 steps over 2-6 states: end
    beliefs with entries of 0, drifts that sum to 0 and can take an entry
    below 0 inside the step, and fractions that include the step's ends."""
    n, rows = draw(st.integers(2, 6)), draw(st.integers(1, 6))

    def belief():
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n,
                          max_size=n))
        assume(sum(w) > 0.1)
        return [v / sum(w) for v in w]

    def drift():
        k = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
        return [v - sum(k) / n for v in k]

    s = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                      min_size=rows, max_size=rows))
    ends = [[f() for _ in range(rows)] for f in (belief, drift, belief, drift)]
    return (s, draw(st.floats(1e-3, 0.5)), *ends)


@given(step_ends())
@example(([0.0, 0.25, 1.0], 0.1, [[0.0, 1.0]] * 3, [[-10.0, 10.0]] * 3,
          [[0.0, 1.0]] * 3, [[0.0, 0.0]] * 3))  # dips below 0 inside the step
def test_row_hermite_equals_the_scalar_form(steps):
    """hermite on rows equals the scalar interpolant, clamp and
    renormalisation row by row, bit for bit."""
    s, h, p0, k0, p1, k1 = steps
    got = hermite(np.array(s), h, *map(np.array, (p0, k0, p1, k1)))
    for r in range(len(s)):
        want = hermite_reference(s[r], h, p0[r], k0[r], p1[r], k1[r])
        assert [v.hex() for v in got[r].tolist()] == [v.hex() for v in want]


def _segments(rec, ode_step):
    """(t_prev, t_stop, n_steps) of each segment of a path: its RK4 steps
    run from stop to stop, the arrivals and the horizon."""
    out, t_prev = [], 0.0
    for t in [e.t for e in rec.events] + [rec.horizon]:
        if t > t_prev:
            out.append((t_prev, t, segment(t - t_prev, ode_step)[0]))
        t_prev = t
    return out


@pytest.mark.parametrize("name", sorted(SAMPLED_RUNS))
def test_sample_rows_take_one_row_solve_per_segment(name, monkeypatch):
    """The quotes of the sample rows between two stops are solved in one
    quotes_rows call at the later stop: one call per segment that holds
    sample rows, over exactly those rows."""
    calls = []
    quotes_rows = gmsim.beliefs._FilterKernel.quotes_rows

    def spy(self, probs, ask, bid, tails=None):
        calls.append(len(ask))
        return quotes_rows(self, probs, ask, bid, tails)

    monkeypatch.setattr(gmsim.beliefs._FilterKernel, "quotes_rows", spy)
    model, cfg, horizon = SAMPLED_RUNS[name]
    rec = simulate_gmps_path(model, horizon, replace(cfg, sample_dt=1 / 30), seed=42)
    times = rec.sample_times
    held = [int(np.sum((times > t0) & (times < t1)))
            for t0, t1, _ in _segments(rec, cfg.ode_step)]
    assert calls == [k for k in held if k] and sum(calls) > horizon * 25


@pytest.mark.parametrize("name", sorted(SAMPLED_RUNS))
def test_each_step_end_drift_is_evaluated_once(name, monkeypatch):
    """An unsampled path evaluates the drift four times per RK4 step, once
    per stage; the step-end drift is the next step's first. A sampled path
    adds at most one per segment: its last step's end drift, which only
    the sample rows need."""
    calls = [0]
    drift = gmsim.beliefs._FilterKernel.drift

    def spy(self, *args):
        calls[0] += 1
        return drift(self, *args)

    monkeypatch.setattr(gmsim.beliefs._FilterKernel, "drift", spy)
    model, cfg, horizon = SAMPLED_RUNS[name]
    rec = simulate_gmps_path(model, horizon, cfg, seed=42)
    segments = _segments(rec, cfg.ode_step)
    steps = sum(n for *_, n in segments)
    assert calls == [4 * steps]
    calls[0] = 0
    simulate_gmps_path(model, horizon, replace(cfg, sample_dt=1 / 30), seed=42)
    assert 4 * steps < calls[0] <= 4 * steps + len(segments)


def _zero_tails(side):
    """A Logistic.side_tails_grid with the tails of one side's rows, +1 the
    ask and -1 the bid, all zero."""
    tails = Logistic.side_tails_grid

    def side_tails_grid(self, ys, sign):
        return np.where(sign == side, 0.0, tails(self, ys, sign))

    return side_tails_grid


@pytest.mark.parametrize("error", [NoConvergence, ZeroBuyProbability, ZeroSellProbability])
def test_a_failing_sample_solve_raises_at_its_segments_stop(error, monkeypatch):
    """A sample row's quote solve that fails raises the error a scalar
    solve of the row would: no convergence within the ceiling, or a side
    with no trade mass. It now raises at the segment's stop, once the
    segment's steps are done; the unsampled path, which solves no sample
    row, still runs."""
    if error is NoConvergence:
        picard_rows = gmsim.beliefs._picard_rows
        monkeypatch.setattr(gmsim.beliefs, "_picard_rows",
                            lambda *args: picard_rows(*args[:6], 1, *args[7:]))
    else:
        side = 1.0 if error is ZeroBuyProbability else -1.0
        monkeypatch.setattr(Logistic, "side_tails_grid", _zero_tails(side))
    cfg = SimConfig(ode_step=0.02)
    assert simulate_gmps_path(MODEL, 3.0, cfg, seed=42).n_trades > 5
    with pytest.raises(error) as excinfo:
        simulate_gmps_path(MODEL, 3.0, replace(cfg, sample_dt=1 / 30), seed=42)
    frames = [entry.name for entry in excinfo.traceback]
    assert "stop" in frames and "flush" in frames and "integrate" not in frames


# --------------------------------------------------------------------------
# The lockstep engine against the scalar one


def test_batches_from_the_threshold_run_in_lockstep(monkeypatch):
    """simulate_paths hands an unsampled batch to the lockstep engine from
    LOCKSTEP_MIN_PATHS paths on, and a sampled one of any size to the solo
    engine; either way its paths equal the solo runs."""
    runs = []
    lockstep = gmsim.engine._simulate_lockstep

    def spy(*args):
        runs.append(args[-1])
        return lockstep(*args)

    monkeypatch.setattr(gmsim.engine, "_simulate_lockstep", spy)
    n = gmsim.engine.LOCKSTEP_MIN_PATHS
    cfg = SimConfig(ode_step=0.1)
    below = simulate_paths(MODEL, 0.6, cfg, seed=3, n_paths=n - 1)
    at = simulate_paths(MODEL, 0.6, cfg, seed=3, n_paths=n)
    assert runs == [n]
    assert [r.offset for r in at] == list(range(n))
    assert _path_digest(at[:-1]) == _path_digest(below)
    solo = simulate_gmps_path(MODEL, 0.6, cfg, seed=3, offset=n - 1)
    assert _path_digest(at[-1:]) == _path_digest([solo])
    sampled = replace(cfg, sample_dt=0.2)
    batch = simulate_paths(MODEL, 0.6, sampled, seed=3, n_paths=n)
    assert runs == [n]
    solo = [simulate_gmps_path(MODEL, 0.6, sampled, seed=3, offset=k) for k in range(n)]
    assert sum(len(r.sample_times) for r in batch) > 4 * n
    assert _path_digest(batch) == _path_digest(solo)


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
    (STIFF_MODEL, SimConfig(ode_step=0.1)),
    (NINE_STATE_MODEL, SimConfig(ode_step=0.01, perturb_ask=0.01)),
    (replace(MODEL, arrival_rate=0.0), SimConfig(ode_step=0.02)),
], ids=["clamped_steps", "nine_states", "silent"])
def test_lockstep_paths_equal_solo_runs(model, cfg):
    """Steps that leave the simplex and are clamped, more states than numpy
    sums in order, and a market with no arrivals run bit for bit as the solo
    runs do."""
    solo = [simulate_gmps_path(model, 1.0, cfg, seed=5, offset=k) for k in range(4)]
    batch = gmsim.engine._simulate_lockstep(model, 1.0, cfg, 5, 4)
    assert _path_digest(batch) == _path_digest(solo)
    if model is STIFF_MODEL:
        assert min(r.diagnostics.min_component for r in solo) < 0.0


SCENARIO = ScenarioConfig(grid=GRID, generator=Q, arrival_rate=4.0, noise=NOISE,
                          initial_belief=PRIOR, horizon=1.0, seed=7, ode_step=0.02)


@pytest.mark.parametrize("n_paths", [4, 40], ids=["solo", "lockstep"])
def test_a_scenario_runs_as_its_own_market(n_paths):
    """A ScenarioConfig is a MarketModel: passed where a model goes, its
    paths equal those of the market built from its five fields."""
    assert SCENARIO.model() is SCENARIO and isinstance(SCENARIO, MarketModel)
    market = MarketModel(SCENARIO.grid, SCENARIO.generator, SCENARIO.arrival_rate,
                         SCENARIO.noise, SCENARIO.initial_belief)
    runs = [simulate_paths(m, SCENARIO.horizon, SCENARIO.sim_config(), seed=SCENARIO.seed,
                           n_paths=n_paths) for m in (SCENARIO, market)]
    assert _path_digest(runs[0]) == _path_digest(runs[1])


def test_a_scenario_checks_its_fields_before_the_market_sizes():
    wrong = Belief([0.2, 0.3, 0.5])
    with pytest.raises(ConfigError, match=r"^lambda: must be nonnegative, got -1.0$"):
        replace(SCENARIO, arrival_rate=-1.0, initial_belief=wrong)
    with pytest.raises(ConfigError, match=r"^initial belief length does not match the grid$"):
        replace(SCENARIO, initial_belief=wrong)


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
    """A float or bool seed or path count is refused before anything runs,
    and a numpy integer seed runs the same paths as the int."""
    for seed in (7.9, True):
        with pytest.raises(ConfigError, match="must fit in 64 bits"):
            simulate_paths(MODEL, 0.5, SimConfig(), seed=seed, n_paths=n_paths)
    with pytest.raises(ConfigError, match=r"^n_paths: expected an integer, got \d+\.5$"):
        simulate_paths(MODEL, 0.5, SimConfig(), seed=7, n_paths=n_paths + 0.5)
    with pytest.raises(ConfigError, match=r"^n_paths: expected an integer, got True$"):
        simulate_paths(MODEL, 0.5, SimConfig(), seed=7, n_paths=True)
    sim = SimConfig(ode_step=0.1)
    as_int = simulate_paths(MODEL, 0.2, sim, seed=7, n_paths=n_paths)
    as_numpy = simulate_paths(MODEL, 0.2, sim, seed=np.int64(7), n_paths=np.int64(n_paths))
    assert _path_digest(as_numpy) == _path_digest(as_int)


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
    """The lockstep engine runs the unsampled config as the solo runs, and
    a drawn sample_dt leaves the solo runs' events alone."""
    model, horizon, cfg, seed = run
    unsampled = replace(cfg, sample_dt=None)
    solo = [simulate_gmps_path(model, horizon, unsampled, seed=seed, offset=k)
            for k in range(3)]
    lockstep = gmsim.engine._simulate_lockstep
    batch = lockstep(model, horizon, unsampled, seed, 3)
    digest = _path_digest(batch)
    assert digest == _path_digest(solo)
    assert _path_digest(lockstep(model, horizon, unsampled, seed, 3)) == digest
    sampled = []
    if cfg.sample_dt is not None:  # sampling leaves the path alone
        sampled = [simulate_gmps_path(model, horizon, cfg, seed=seed, offset=k)
                   for k in range(3)]
        assert _event_digest(sampled) == _event_digest(solo)
    xs = model.grid.values
    for rec in batch + sampled:
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
