"""Tests for the reference filter and the statistical checks."""

import bisect
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chi2

import gmsim.verification as verification
from gmsim.beliefs import SimplexDiagnostics
from gmsim.config import ScenarioConfig
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.engine import (
    EventRecord,
    MarketModel,
    Outcome,
    PathRecord,
    SimConfig,
    decide_trade,
    path_streams,
    sample_arrival_times,
    simulate_gmps_path,
    simulate_paths,
)
from gmsim.errors import (
    ConfigError,
    GridMismatch,
    InsufficientData,
)
from gmsim.noise import (
    Gaussian,
    Laplace,
    Logistic,
    NoiseTraderMix,
    TwoPointDiscrete,
    check_gm_condition,
)
from gmsim.verification import (
    OracleFilterConfig,
    compare_filters,
    consistency_check,
    intensity_test,
    oracle_filter,
    transition_matrix,
    zero_profit_test,
    _chi2_sf,
    _poisson_gof,
)

from oracles import expm_reference, sample_times_reference

GRID2 = StateGrid([0.0, 1.0])
NOISE = Logistic(2.0)
MODEL2 = MarketModel(
    grid=GRID2,
    generator=GeneratorMatrix([[-0.5, 0.5], [0.8, -0.8]]),
    arrival_rate=5.0,
    noise=NOISE,
    initial_belief=Belief([0.5, 0.5]),
)

GRID3 = StateGrid([0.0, 0.5, 1.0])
MODEL3 = MarketModel(
    grid=GRID3,
    generator=GeneratorMatrix(
        [[-0.7, 0.4, 0.3], [0.3, -0.6, 0.3], [0.2, 0.5, -0.7]]
    ),
    arrival_rate=5.0,
    noise=NOISE,
    initial_belief=Belief([0.4, 0.2, 0.4]),
)


def test_oracle_and_statistics_never_touch_the_engine_integrator():
    """The reference filter must stay an independent code path."""
    source = inspect.getsource(verification)
    for forbidden in ("integrate_between_events", "belief_drift", "step_rows",
                      "drift_rows", "quotes_rows", "segment",
                      "_FilterKernel", "from .beliefs"):
        assert forbidden not in source


# --------------------------------------------------------------------------
# Matrix exponential


def test_transition_matrix_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = rng.integers(2, 5)
        off = rng.uniform(0.1, 2.0, size=(n, n))
        q = GeneratorMatrix(off - np.diag(np.diag(off))).rates
        for dt in (0.01, 0.5, 3.0):
            got = transition_matrix(q, dt)
            np.testing.assert_allclose(got, expm_reference(q * dt), atol=1e-10)


@pytest.mark.parametrize("dt, message", [
    (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
    (-1.0, "must be nonnegative, got -1.0"),
])
def test_transition_matrix_refuses_a_bad_dt(dt, message):
    with pytest.raises(ConfigError, match=f"^dt: {message}$"):
        transition_matrix(MODEL2.generator.rates, dt)


def _scaling_and_squaring_loop(rates, dt):
    """One matrix at a time, as the reference filter built them before it
    stacked its lengths: the reference for the stacked form."""
    b = np.asarray(rates, dtype=float) * dt
    norm = float(np.max(np.sum(np.abs(b), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = b / (2.0**squarings)
    acc = np.eye(b.shape[0])
    term = np.eye(b.shape[0])
    for k in range(1, verification.MATRIX_EXP_TERMS + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_stacked_transition_matrices_equal_the_one_length_loop(n):
    """37 lengths, from sub-steps of a replay (no squaring) to lengths that
    need 2 to 10 squarings, in one stacked pass: each matrix equals the
    one-length loop and transition_matrix bit for bit."""
    rng = np.random.default_rng(n)
    off = rng.uniform(0.0, 3.0, (n, n))
    rates = GeneratorMatrix(off - np.diag(np.diag(off))).rates
    lengths = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1e-3, 18),
                                        rng.uniform(0.01, 10.0, 18)]))
    assert len(lengths) == 37
    stacked = verification._transition_matrices(rates, lengths)
    for dt, got in zip(lengths.tolist(), stacked):
        np.testing.assert_array_equal(got, _scaling_and_squaring_loop(rates, dt))
        np.testing.assert_array_equal(got, transition_matrix(rates, dt))


def test_transition_matrix_rows_stay_stochastic():
    q = np.array([[-2.0, 1.5, 0.5], [0.3, -0.6, 0.3], [1.0, 2.0, -3.0]])
    p = transition_matrix(q, 2.5)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0.0)


# --------------------------------------------------------------------------
# Reference filter


def _synthetic_record(horizon, events, sample_dt, ask, bid):
    """A hand-built path record with a constant logged quote."""
    times = np.arange(0.0, horizon + sample_dt / 2, sample_dt)
    n = len(times)
    return PathRecord(
        horizon=horizon,
        seed=0,
        offset=0,
        value_times=np.array([0.0]),
        value_states=np.array([0]),
        events=events,
        buy_profit=0.0,
        sell_profit=0.0,
        n_buys=sum(e.outcome is Outcome.BUY for e in events),
        n_sells=sum(e.outcome is Outcome.SELL for e in events),
        diagnostics=SimplexDiagnostics(),
        sample_times=times,
        sample_asks=np.full(n, ask),
        sample_bids=np.full(n, bid),
        sample_values=np.zeros(n),
        sample_beliefs=np.full((n, 2), 0.5),
    )


def test_oracle_reduces_to_matrix_exponential_when_silent():
    model = MarketModel(
        grid=GRID3,
        generator=MODEL3.generator,
        arrival_rate=0.0,
        noise=Logistic(4.0),
        initial_belief=Belief([0.5, 0.3, 0.2]),
    )
    rec = simulate_gmps_path(
        model, 1.0, SimConfig(ode_step=1e-3, sample_dt=1e-3), seed=0
    )
    times, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=1e-3))
    expected = model.initial_belief.probs @ expm_reference(
        model.generator.rates * 1.0
    )
    np.testing.assert_allclose(beliefs[-1], expected, atol=1e-8)
    assert times[0] == 0.0 and times[-1] == 1.0


def test_oracle_single_buy_is_one_exact_bayes_update():
    """Frozen chain, no arrival channel: the only change is the logged buy."""
    ask = 0.6
    event = EventRecord(
        t=0.4, x=0.0, eps=2.0, ask=ask, bid=0.3, outcome=Outcome.BUY,
        belief_before=np.array([0.5, 0.5]), belief_after=np.array([0.5, 0.5]),
        profit=ask,
    )
    rec = _synthetic_record(1.0, [event], 1e-3, ask, 0.3)
    model = MarketModel(
        grid=GRID2,
        generator=GeneratorMatrix.zero(2),
        arrival_rate=0.0,
        noise=NOISE,
        initial_belief=Belief([0.5, 0.5]),
    )
    _, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=1e-3))
    w0 = 0.5 / (1.0 + math.exp(0.6 / 2.0))
    w1 = 0.5 / (1.0 + math.exp(-0.4 / 2.0))
    expected = np.array([w0, w1]) / (w0 + w1)
    np.testing.assert_allclose(beliefs[-1], expected, atol=1e-14)
    # before the event nothing moves
    np.testing.assert_array_equal(beliefs[0], [0.5, 0.5])
    np.testing.assert_allclose(beliefs[200], [0.5, 0.5], atol=1e-15)


def test_oracle_requires_a_fine_quote_log():
    rec_none = simulate_gmps_path(MODEL2, 1.0, SimConfig(ode_step=0.01), seed=1)
    with pytest.raises(GridMismatch, match="no sampled quote path"):
        oracle_filter(rec_none, MODEL2)
    rec_coarse = simulate_gmps_path(
        MODEL2, 1.0, SimConfig(ode_step=0.01, sample_dt=0.25), seed=1
    )
    with pytest.raises(GridMismatch, match="coarser"):
        oracle_filter(rec_coarse, MODEL2, OracleFilterConfig(h=1e-3))


def test_oracle_config_validation():
    with pytest.raises(ConfigError):
        OracleFilterConfig(h=0.0)


def test_oracle_self_convergence_is_first_order():
    """Halving h should roughly halve the step-to-step gap."""
    h = 1e-3
    rec = simulate_gmps_path(
        MODEL3, 2.0, SimConfig(ode_step=h / 4, sample_dt=h / 4), seed=2024
    )
    assert rec.n_trades >= 4
    terminals = {}
    for step in (h, h / 2, h / 4):
        _, beliefs = oracle_filter(rec, MODEL3, OracleFilterConfig(h=step))
        terminals[step] = beliefs[-1]
    gap_coarse = np.abs(terminals[h] - terminals[h / 2]).sum()
    gap_fine = np.abs(terminals[h / 2] - terminals[h / 4]).sum()
    assert gap_fine > 0.0
    ratio = gap_coarse / gap_fine
    assert 1.5 <= ratio <= 2.5


def test_engine_and_oracle_agree_on_two_state_scenario():
    h = 1e-3
    rec = simulate_gmps_path(
        MODEL2, 2.0, SimConfig(ode_step=h / 4, sample_dt=h / 4), seed=7
    )
    assert rec.n_trades >= 4
    times, beliefs = oracle_filter(rec, MODEL2, OracleFilterConfig(h=h))
    cmp = compare_filters(rec.sample_times, rec.sample_beliefs, times, beliefs)
    assert cmp.n_matched == len(times)
    assert cmp.max_l1 <= 0.01


def test_engine_oracle_gap_shrinks_with_h():
    h = 1e-3
    rec = simulate_gmps_path(
        MODEL2, 1.0, SimConfig(ode_step=h / 4, sample_dt=h / 4), seed=7
    )
    gaps = []
    for step in (4 * h, h):
        times, beliefs = oracle_filter(rec, MODEL2, OracleFilterConfig(h=step))
        cmp = compare_filters(rec.sample_times, rec.sample_beliefs, times, beliefs)
        gaps.append(cmp.max_l1)
    assert gaps[1] < gaps[0]


def test_filter_check_sees_the_engine_step():
    """verify's filter check samples the engine's dense output at h/4 and
    leaves its steps at ode_step, so on the README market over T = 2 its
    max_l1 rises with ode_step (1.28e-7, 6.5e-6 and 7.6e-4 when recorded)
    and still passes the 0.01 bar. The entry names the step."""
    cfg = ScenarioConfig(
        grid=GRID2, generator=GeneratorMatrix([[0.0, 0.5], [0.8, 0.0]]), arrival_rate=4.0,
        noise=NOISE, initial_belief=Belief([0.5, 0.5]), horizon=2.0, seed=42,
    )
    max_l1 = []
    for ode_step in (0.02, 0.25, 1.0):
        run = replace(cfg, ode_step=ode_step)
        entry = verification._filter_check(run, 0.0, False)
        assert entry["ode_step"] == ode_step
        assert entry["status"] == "pass"
        max_l1.append(entry["max_l1"])
    assert max_l1[0] < max_l1[1] < max_l1[2] <= entry["threshold"] == 0.01


def test_compare_filters_identical_and_mismatched():
    t = np.linspace(0, 1, 11)
    b = np.tile([0.3, 0.7], (11, 1))
    cmp = compare_filters(t, b, t, b)
    assert cmp.max_l1 == 0.0 and cmp.n_matched == 11
    with pytest.raises(GridMismatch, match="grids differ"):
        compare_filters(t, b, t, np.tile([0.2, 0.3, 0.5], (11, 1)))
    with pytest.raises(GridMismatch, match="fewer than two"):
        compare_filters(t, b, t + 5.0, b)


def test_compare_filters_refuses_a_belief_that_is_not_finite():
    """A NaN or infinite belief fails closed, naming the first such time,
    where a strict > against the running maximum would skip it."""
    t = np.linspace(0, 1, 11)
    b = np.tile([0.3, 0.7], (11, 1))
    for bad in (math.nan, math.inf):
        b_bad = b.copy()
        b_bad[4, 1] = bad
        b_bad[7, 0] = math.nan
        with pytest.raises(GridMismatch, match=r"could not be compared.*t=0\.4 "):
            compare_filters(t, b, t, b_bad)
        with pytest.raises(GridMismatch, match=r"t=0\.4 "):
            compare_filters(t, b_bad, t, b)


def test_compare_filters_refuses_rows_that_do_not_fit_the_times():
    t = np.array([0.0, 1.0, 2.0])
    b = np.tile([0.3, 0.7], (3, 1))
    for rows in (2, 4):
        other = np.tile([0.4, 0.6], (rows, 1))
        with pytest.raises(GridMismatch, match=f"{rows} rows"):
            compare_filters(t, b, t, other)
        with pytest.raises(GridMismatch, match=f"{rows} rows"):
            compare_filters(t, other, t, b)


def test_oracle_refuses_a_model_with_another_state_count():
    rec = simulate_gmps_path(
        MODEL2, 0.25, SimConfig(ode_step=0.01, sample_dt=2.5e-4), seed=1
    )
    with pytest.raises(GridMismatch, match="2 states, the model 3"):
        oracle_filter(rec, MODEL3)


# The oracle as it was first written, one checkpoint at a time: the quote
# lookup, the scalar tails, the factor and the jump all inside the loop, and
# one matrix per step length from a dict. Its checkpoints come from the
# scalar sample-row rule, oracles.sample_times_reference, every trade
# logged at a checkpoint jumps there, one at 0 from the prior, and each
# sub-step's quote is the last logged row within 1e-12 * max(1, |t0|) of
# its start t0, found by bisect. oracle_filter
# takes everything but the recursion as arrays, folds each trade's
# likelihood into the factors and normalises once at the end, so its
# products round in another order: its times must equal the loop's, and its
# beliefs lie within REPLAY_TOL of the loop's, 512 ulps of 1.0, fixed from
# the dtype.
REPLAY_TOL = 512 * np.finfo(float).eps


def _reference_replay(record, model, h):
    logged_t = record.sample_times.tolist()
    event_times = sorted(e.t for e in record.events)
    checkpoints = np.unique(sample_times_reference(event_times, h, record.horizon))
    trades = [e for e in record.events if e.outcome is not Outcome.NO_TRADE]
    xs = model.grid.values
    noise = model.noise
    lam = model.arrival_rate

    def jump(belief, t):
        """Every trade logged at t, one Bayes update each."""
        for event in trades:
            if event.t == t:
                if event.outcome is Outcome.BUY:
                    weights = np.array([noise.survival(event.ask - x) for x in xs])
                else:
                    weights = np.array([noise.cdf(event.bid - x) for x in xs])
                belief = belief * weights
                belief = belief / belief.sum()
        return belief

    cache = {}
    belief = jump(model.initial_belief.probs.copy(), 0.0)
    out_times = [0.0]
    out_beliefs = [belief.copy()]
    for k in range(1, len(checkpoints)):
        t0 = float(checkpoints[k - 1])
        t1 = float(checkpoints[k])
        dt = t1 - t0
        if dt not in cache:
            cache[dt] = transition_matrix(model.generator.rates, dt)
        belief = belief @ cache[dt]
        if lam > 0.0:
            idx = max(bisect.bisect_right(logged_t, t0 + 1e-12 * max(1.0, abs(t0))) - 1, 0)
            ask = float(record.sample_asks[idx])
            bid = float(record.sample_bids[idx])
            rate = np.array([noise.cdf(bid - x) + noise.survival(ask - x) for x in xs])
            belief = belief * np.exp(-lam * rate * dt)
        belief = jump(belief / belief.sum(), t1)
        out_times.append(t1)
        out_beliefs.append(belief.copy())
    return np.array(out_times), np.array(out_beliefs)


def _reference_compare(times_a, beliefs_a, times_b, beliefs_b):
    pos = np.searchsorted(times_a, times_b)
    max_l1, argmax_t, n_matched = -1.0, math.nan, 0
    for j, t in enumerate(times_b):
        for i in (pos[j] - 1, pos[j]):
            if 0 <= i < len(times_a) and abs(times_a[i] - t) <= verification.TIME_TOL:
                n_matched += 1
                l1 = float(np.sum(np.abs(beliefs_a[i] - beliefs_b[j])))
                if l1 > max_l1:
                    max_l1, argmax_t = l1, float(t)
                break
    return n_matched, max_l1, argmax_t


def _assert_replays_match_reference(rec, model, h):
    for step in (h, h / 2, h / 4):
        times, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=step))
        ref_times, ref_beliefs = _reference_replay(rec, model, step)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_allclose(beliefs, ref_beliefs, rtol=0.0, atol=REPLAY_TOL)
    cmp = compare_filters(rec.sample_times, rec.sample_beliefs, times, beliefs)
    ref = _reference_compare(rec.sample_times, rec.sample_beliefs, times, beliefs)
    assert (cmp.n_matched, cmp.max_l1, cmp.argmax_time) == ref


def _chain8():
    """The 8-state birth-death chain on [0, 1] with Gaussian(1.5) noise."""
    rates = np.zeros((8, 8))
    for i in range(7):
        rates[i, i + 1] = rates[i + 1, i] = 0.6
    return MarketModel(
        grid=StateGrid(np.linspace(0.0, 1.0, 8)), generator=GeneratorMatrix(rates),
        arrival_rate=8.0, noise=Gaussian(1.5), initial_belief=Belief(np.full(8, 0.125)),
    )


README_MODEL = MarketModel(
    grid=GRID2, generator=GeneratorMatrix([[0.0, 0.5], [0.8, 0.0]]), arrival_rate=4.0,
    noise=NOISE, initial_belief=Belief([0.5, 0.5]),
)


@pytest.mark.parametrize(
    "model, cfg, seed",
    [
        (README_MODEL, SimConfig(ode_step=0.02, sample_dt=2.5e-4), 42),
        (_chain8(), SimConfig(ode_step=1e-3, sample_dt=2.5e-4), 1),
        (replace(MODEL3, noise=Laplace(1.5)), SimConfig(ode_step=0.01, sample_dt=2.5e-4), 3),
        (replace(MODEL3, arrival_rate=0.0), SimConfig(ode_step=0.01, sample_dt=2.5e-4), 0),
        (README_MODEL, SimConfig(ode_step=0.02, sample_dt=2.5e-4, perturb_ask=0.01), 5),
    ],
    ids=["readme", "chain8_gaussian", "laplace", "no_arrivals", "perturbed_ask"],
)
def test_oracle_replay_equals_the_per_checkpoint_loop(model, cfg, seed):
    rec = simulate_gmps_path(model, 1.0, cfg, seed=seed)
    assert rec.n_trades >= (2 if model.arrival_rate else 0)
    _assert_replays_match_reference(rec, model, 1e-3)


def test_oracle_replay_equals_the_loop_where_an_event_meets_a_grid_time():
    """Events within 1e-12 of a multiple of h take its place, the last one
    included, 0 aside: 0 stays, and the trade at 5e-13 jumps after it. One
    event sits exactly on a multiple of h/4 only."""
    times = (5e-13, 0.25 + 4e-13, 0.5 - 9e-13, 0.6 + 2.5e-4, 0.75 + 2e-12, 1.0 - 3e-13)
    outcomes = (Outcome.SELL, Outcome.BUY, Outcome.SELL, Outcome.NO_TRADE, Outcome.BUY,
                Outcome.SELL)
    events = [
        EventRecord(
            t=t, x=0.0, eps=0.0, ask=0.6, bid=0.3, outcome=o,
            belief_before=np.array([0.5, 0.5]), belief_after=np.array([0.5, 0.5]),
            profit=0.0,
        )
        for t, o in zip(times, outcomes)
    ]
    rec = _synthetic_record(1.0, events, 2.5e-4, 0.6, 0.3)
    _assert_replays_match_reference(rec, MODEL2, 1e-3)
    times, _ = oracle_filter(rec, MODEL2, OracleFilterConfig(h=1e-3))
    assert 0.25 not in times and times[251] == 0.25 + 4e-13


def _buys(*times):
    return [
        EventRecord(
            t=t, x=0.0, eps=0.0, ask=0.6, bid=0.3, outcome=Outcome.BUY,
            belief_before=np.array([0.5, 0.5]), belief_after=np.array([0.5, 0.5]),
            profit=0.0,
        )
        for t in times
    ]


def _logged_record(horizon, events, sample_dt):
    """A synthetic record on the rows an engine record sampled at sample_dt
    logs: 0, every event, the horizon and the multiples of sample_dt between."""
    times = np.array(sample_times_reference(sorted(e.t for e in events), sample_dt, horizon))
    n = len(times)
    return replace(
        _synthetic_record(horizon, events, sample_dt, 0.6, 0.3), sample_times=times,
        sample_asks=np.full(n, 0.6), sample_bids=np.full(n, 0.3),
        sample_values=np.zeros(n), sample_beliefs=np.full((n, 2), 0.5),
    )


@pytest.mark.parametrize("horizon, times, fewer", [
    (2.0, (5e-13,), ()),
    (1.0, (0.0,), ()),
    (1.0, (0.3, 0.3), (0.3,)),
], ids=["near_zero", "at_zero", "twice_at_one_time"])
def test_oracle_applies_every_logged_trade(horizon, times, fewer):
    """The engine logs each trade's jump in belief_after, so the replay
    applies every one: a BUY at 0 or within 1e-12 of it jumps from the
    prior, and two BUYs at one float both jump. The terminal belief moves
    by about 1e-2 (near 0), 3.5e-2 (at 0) and 5e-2 (the second BUY) from
    the record with fewer trades."""
    h = 1e-3
    rec = _logged_record(horizon, _buys(*times), h / 4)
    _assert_replays_match_reference(rec, MODEL2, h)
    _, beliefs = oracle_filter(rec, MODEL2, OracleFilterConfig(h=h))
    _, fewer_beliefs = oracle_filter(_logged_record(horizon, _buys(*fewer), h / 4), MODEL2,
                                     OracleFilterConfig(h=h))
    assert np.abs(beliefs[-1] - fewer_beliefs[-1]).sum() > 5e-3


def test_oracle_takes_the_quote_a_trade_logged_past_t_16384():
    """From t = 16,384 on a float's spacing is above 2e-12, so t + 1e-12
    rounds to t; the sub-step after a BUY on a multiple of h still takes
    the quote logged at the trade, not the row before it. The ask moves
    from 0.6 to 0.7 at the trade, so a replay on the earlier row's quote
    ends away from the reference's."""
    h = 1.0
    rec = _logged_record(16386.0, _buys(16385.0), h)
    rec = replace(rec, sample_asks=np.where(rec.sample_times < 16385.0, 0.6, 0.7))
    times, beliefs = oracle_filter(rec, MODEL2, OracleFilterConfig(h=h))
    ref_times, ref_beliefs = _reference_replay(rec, MODEL2, h)
    np.testing.assert_array_equal(times, ref_times)
    np.testing.assert_allclose(beliefs, ref_beliefs, rtol=0.0, atol=REPLAY_TOL)


def test_oracle_times_are_the_rows_a_record_sampled_at_h_logs():
    """A BUY at 1.5 + 1.2e-12 lies within 1e-12 * 1.5 of the multiple 1.5
    of h, so a record sampled at h / 8 logs no row at 1.5, and the oracle
    takes no checkpoint there: every oracle time is one of the record's."""
    h = 1e-3
    rec = _logged_record(2.0, _buys(1.5 + 1.2e-12), h / 8)
    _assert_replays_match_reference(rec, MODEL2, h)
    for step in (h, h / 2, h / 4):
        times, _ = oracle_filter(rec, MODEL2, OracleFilterConfig(h=step))
        assert np.isin(times, rec.sample_times).all()


def test_oracle_replays_a_record_at_the_step_it_was_sampled_at():
    """On h / 4 rows, the BUY at 1.5 + 1.2e-12 takes the place of the row
    at 1.5, so the gap before it is h / 4 + 1.2e-12: within the sample-row
    rule's tolerance of 1e-12 * max(1, |t|), which the spacing check allows.
    The record replays at h / 4 on its own rows, as the reference loop
    does; a record sampled at 2 h is still refused at h."""
    h = 1e-3
    rec = _logged_record(2.0, _buys(1.5 + 1.2e-12), h / 4)
    assert np.max(np.diff(rec.sample_times)) > h / 4 + 1e-12
    _assert_replays_match_reference(rec, MODEL2, h)
    times, _ = oracle_filter(rec, MODEL2, OracleFilterConfig(h=h / 4))
    np.testing.assert_array_equal(times, rec.sample_times)
    coarse = _logged_record(2.0, _buys(1.5 + 1.2e-12), 2 * h)
    with pytest.raises(GridMismatch, match=r"^logged quotes are spaced 2\.000e-03 apart, "
                                           r"coarser than the oracle step 1\.000e-03$"):
        oracle_filter(coarse, MODEL2, OracleFilterConfig(h=h))


def test_oracle_refuses_an_event_outside_the_horizon():
    for t in (-1e-3, 1.0 + 1e-3, math.nan):
        rec = _synthetic_record(1.0, _buys(t), 1e-3, 0.6, 0.3)
        with pytest.raises(GridMismatch, match=r"^logged event at t=.* lies outside \[0, 1\.0\]$"):
            oracle_filter(rec, MODEL2, OracleFilterConfig(h=1e-3))


def test_oracle_replay_renormalises_before_the_mass_underflows():
    """At lambda = 5000 each 1e-3 sub-step keeps about exp(-5) of the mass,
    so an unnormalised belief would underflow to zero after about 150
    sub-steps; the replay stays finite and equal to the loop."""
    events = [
        EventRecord(
            t=t, x=0.0, eps=0.0, ask=0.6, bid=0.3, outcome=o,
            belief_before=np.array([0.5, 0.5]), belief_after=np.array([0.5, 0.5]),
            profit=0.0,
        )
        for t, o in ((0.3, Outcome.BUY), (0.55, Outcome.SELL), (0.8, Outcome.NO_TRADE))
    ]
    rec = _synthetic_record(1.0, events, 2.5e-4, 0.6, 0.3)
    model = replace(MODEL2, arrival_rate=5000.0)
    _assert_replays_match_reference(rec, model, 1e-3)
    _, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=2.5e-4))
    assert np.all(np.isfinite(beliefs))
    np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, rtol=0.0, atol=REPLAY_TOL)


def test_oracle_refuses_a_trade_of_zero_likelihood():
    """Gaussian(0.01) noise and a buy logged at ask 10 on a grid in [0, 1]:
    every state's tail underflows to 0, so the replayed belief cannot take
    the trade, and the error names it."""
    event = EventRecord(
        t=0.4, x=0.0, eps=0.0, ask=10.0, bid=-10.0, outcome=Outcome.BUY,
        belief_before=np.array([0.5, 0.5]), belief_after=np.array([0.5, 0.5]),
        profit=10.0,
    )
    rec = _synthetic_record(1.0, [event], 1e-3, 10.0, -10.0)
    model = replace(MODEL2, noise=Gaussian(0.01))
    with pytest.raises(GridMismatch, match=r"^logged buy at t=0\.400000 has zero likelihood "
                       r"under the replayed belief$"):
        oracle_filter(rec, model, OracleFilterConfig(h=1e-3))


def test_oracle_renormalises_before_a_step_that_would_underflow():
    """At lam = 4e5 and h = 1e-3 each sub-step's no-trade factors are about
    1e-167: normal floats, but the product of two underflows to 0. The
    replay renormalises the row a step starts from when the step would take
    its mass under the floor, so every belief is finite and on the
    simplex, and equal to the per-checkpoint loop's."""
    rec = _synthetic_record(1.0, [], 2.5e-4, 0.6, 0.3)
    model = replace(MODEL2, arrival_rate=4e5)
    _assert_replays_match_reference(rec, model, 1e-3)
    _, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=1e-3))
    assert np.all(np.isfinite(beliefs))
    np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, rtol=0.0, atol=REPLAY_TOL)


def test_oracle_refuses_a_step_whose_no_trade_likelihood_underflows():
    """At lam = 1e6 and h = 1e-3 every no-trade factor of a sub-step,
    exp(-lam * rate * h) with rate about 0.96, underflows to 0, so no belief
    survives the first sub-step, which holds no trade: the error names its
    time."""
    rec = _synthetic_record(1.0, [], 1e-3, 0.6, 0.3)
    model = replace(MODEL2, arrival_rate=1e6)
    with pytest.raises(GridMismatch, match=r"^the no-trade likelihood underflowed to zero "
                       r"at t=0\.001000: "):
        oracle_filter(rec, model, OracleFilterConfig(h=1e-3))


@st.composite
def _small_markets(draw):
    """A random admissible 2-5 state market with arrivals and a sampled run."""
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    grid = StateGrid(np.concatenate([[0.0], np.cumsum(gaps)]))
    rates = [[0.0 if i == j else draw(st.sampled_from([0.0, 0.3, 2.0])) for j in range(n)]
             for i in range(n)]
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    family = draw(st.sampled_from([Logistic, Laplace, Gaussian]))
    noise = family(draw(st.floats(1.1, 4.0)) * grid.width)
    assume(check_gm_condition(noise, grid.width).passes)
    model = MarketModel(
        grid=grid, generator=GeneratorMatrix(rates),
        arrival_rate=draw(st.sampled_from([0.5, 6.0, 20.0])), noise=noise,
        initial_belief=Belief(weights),
    )
    h = draw(st.sampled_from([0.01, 0.02]))
    return model, h, draw(st.floats(0.1, 0.4)), draw(st.integers(0, 2**31))


@settings(max_examples=40)
@given(_small_markets())
def test_oracle_replay_equals_the_loop_on_random_markets(run):
    model, h, horizon, seed = run
    rec = simulate_gmps_path(
        model, horizon, SimConfig(ode_step=0.02, sample_dt=h / 4), seed=seed
    )
    _assert_replays_match_reference(rec, model, h)


@settings(max_examples=40)
@given(_small_markets())
def test_oracle_times_lie_among_an_engine_records_rows(run):
    """For a record sampled at h / 4, the oracle at h, h / 2 and h / 4 takes
    its checkpoints among the record's times, and compare_filters matches
    every one."""
    model, h, horizon, seed = run
    rec = simulate_gmps_path(
        model, horizon, SimConfig(ode_step=0.02, sample_dt=h / 4), seed=seed
    )
    for step in (h, h / 2, h / 4):
        times, beliefs = oracle_filter(rec, model, OracleFilterConfig(h=step))
        assert np.isin(times, rec.sample_times).all()
        cmp = compare_filters(rec.sample_times, rec.sample_beliefs, times, beliefs)
        assert cmp.n_matched == len(times)


def test_compare_filters_equals_the_loop_on_partly_shared_times():
    """Partly overlapping grids, offsets on both sides of TIME_TOL, and a
    maximum reached twice (the first one is reported)."""
    rng = np.random.default_rng(11)
    times_a = np.linspace(0.0, 1.0, 41)
    beliefs_a = rng.dirichlet([1.0, 1.0, 1.0], size=41)
    tol = verification.TIME_TOL
    shifts = np.array([0.0, tol, -tol, 0.999 * tol, -1.001 * tol, 2 * tol, 0.5 * tol])
    times_b = np.sort(np.concatenate([
        times_a[5:30] + np.resize(shifts, 25), np.linspace(0.0101, 0.99, 17), [1.5, 2.0]
    ]))
    beliefs_b = rng.dirichlet([1.0, 1.0, 1.0], size=len(times_b))
    got = compare_filters(times_a, beliefs_a, times_b, beliefs_b)
    ref = _reference_compare(times_a, beliefs_a, times_b, beliefs_b)
    assert (got.n_matched, got.max_l1, got.argmax_time) == ref
    assert 2 <= got.n_matched < 25

    # two times of a lie within TIME_TOL of one time of b: the earlier is used
    close_a = np.array([0.0, 0.5, 0.5 + 0.8 * tol, 1.0])
    close_b = np.array([0.0, 0.5 + 0.4 * tol, 1.0])
    rows_a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    rows_b = np.tile([1.0, 0.0], (3, 1))
    got = compare_filters(close_a, rows_a, close_b, rows_b)
    ref = _reference_compare(close_a, rows_a, close_b, rows_b)
    assert (got.n_matched, got.max_l1, got.argmax_time) == ref == (3, 2.0, close_b[1])

    b_twice = np.tile([0.5, 0.5, 0.0], (41, 1))
    b_twice[[7, 19]] = [0.0, 0.5, 0.5]
    got = compare_filters(times_a, np.tile([0.5, 0.5, 0.0], (41, 1)), times_a, b_twice)
    assert (got.n_matched, got.max_l1, got.argmax_time) == (41, 1.0, times_a[7])


# --------------------------------------------------------------------------
# Zero profit


def test_zero_profit_passes_for_uninformative_noise():
    model = MarketModel(
        grid=GRID2,
        generator=GeneratorMatrix.zero(2),
        arrival_rate=3.0,
        noise=NoiseTraderMix(0.75),
        initial_belief=Belief([0.25, 0.75]),
    )
    recs = simulate_paths(
        model, 2.0, SimConfig(force=True, ode_step=0.5), seed=3, n_paths=500
    )
    for r in recs:
        for e in r.events:
            price = e.ask if e.outcome is Outcome.BUY else e.bid
            assert e.profit == price - e.x
            assert price == 0.75
    report = zero_profit_test(recs)
    assert report.n_paths == 500
    assert report.n_buys + report.n_sells == sum(r.n_trades for r in recs)
    assert abs(report.z_buy) <= 3.0 and abs(report.z_sell) <= 3.0
    assert report.passed


def test_zero_profit_detects_widened_asks():
    cfg = SimConfig(ode_step=0.02, perturb_ask=0.15)
    recs = simulate_paths(MODEL2, 3.0, cfg, seed=4, n_paths=150)
    report = zero_profit_test(recs)
    assert report.z_buy > 3.0
    assert not report.passed
    assert report.buy_mean > 0.0


def test_zero_profit_insufficient_data():
    silent = MarketModel(
        grid=GRID2,
        generator=MODEL2.generator,
        arrival_rate=0.0,
        noise=NOISE,
        initial_belief=Belief([0.5, 0.5]),
    )
    recs = simulate_paths(silent, 1.0, SimConfig(ode_step=0.1), seed=0, n_paths=3)
    with pytest.raises(InsufficientData, match="no trades"):
        zero_profit_test(recs)
    one = simulate_paths(MODEL2, 1.0, SimConfig(ode_step=0.05), seed=0, n_paths=1)
    with pytest.raises(InsufficientData, match="two paths"):
        zero_profit_test(one)


# --------------------------------------------------------------------------
# Intensity


def test_intensity_flat_mix_matches_poisson():
    model = MarketModel(
        grid=GRID2,
        generator=GeneratorMatrix.zero(2),
        arrival_rate=10.0,
        noise=NoiseTraderMix(0.3),
        initial_belief=Belief([0.5, 0.5]),
    )
    report = intensity_test(
        model, Quote(ask=0.6, bid=0.4), state_value=0.0, horizon=100.0,
        n_trials=200, seed=11,
    )
    assert report.buy.expected_rate == pytest.approx(300.0)
    assert report.sell.expected_rate == pytest.approx(700.0)
    assert report.buy.passed and report.sell.passed
    assert report.passed


def test_intensity_logistic_symmetry_point():
    report = intensity_test(
        MODEL2, Quote(ask=0.0, bid=-0.5), state_value=0.0, horizon=60.0,
        n_trials=250, seed=12,
    )
    assert report.buy.expected_rate == MODEL2.arrival_rate * 60.0 * 0.5
    assert report.passed


def test_intensity_logistic_offset_ask():
    phi_1 = 1.0 / (1.0 + math.exp(0.5))
    report = intensity_test(
        MODEL2, Quote(ask=1.0, bid=-0.6), state_value=0.0, horizon=60.0,
        n_trials=250, seed=13,
    )
    assert report.buy.expected_rate == pytest.approx(
        MODEL2.arrival_rate * 60.0 * phi_1, rel=1e-12
    )
    assert report.passed


@pytest.mark.parametrize("noise, quote", [
    (NOISE, Quote(ask=0.6, bid=0.4)),
    (TwoPointDiscrete(1.0, 0.5), Quote(ask=1.0, bid=1.0)),
    (NoiseTraderMix(0.3), Quote(ask=0.5, bid=0.5)),
], ids=["logistic", "two_point_at_ask_equal_bid", "noise_traders"])
def test_intensity_counts_equal_the_decide_trade_loop(noise, quote, monkeypatch):
    """Each trial's counts are decide_trade's on its arrivals, one by one.
    With two-point noise half the valuations land exactly on an ask == bid
    quote, and decide_trade counts them as buys, never as sells too."""
    model = replace(MODEL2, noise=noise)
    counts = []

    def recording_gof(observed, mu, alpha):
        counts.append(observed.copy())
        return _poisson_gof(observed, mu, alpha)

    monkeypatch.setattr(verification, "_poisson_gof", recording_gof)
    intensity_test(model, quote, 0.0, horizon=30.0, n_trials=40, seed=17)
    buys, sells = [], []
    for trial in range(40):
        _, arrival_rng, noise_rng = path_streams(17, trial)
        arrivals = sample_arrival_times(model.arrival_rate, 30.0, arrival_rng)
        outcomes = [decide_trade(0.0 + float(e), quote)
                    for e in noise.sample(noise_rng, len(arrivals))]
        buys.append(outcomes.count(Outcome.BUY))
        sells.append(outcomes.count(Outcome.SELL))
    np.testing.assert_array_equal(counts[0], buys)
    np.testing.assert_array_equal(counts[1], sells)
    assert sum(buys) > 0 and sum(sells) > 0


def test_intensity_refuses_underpowered_setup():
    with pytest.raises(InsufficientData, match="below 20"):
        intensity_test(
            MODEL2, Quote(ask=0.5, bid=0.4), state_value=0.0, horizon=0.5,
            n_trials=50,
        )


def test_intensity_check_skips_trials_no_path_can_hold():
    """A frozen quote whose thinner side trades with probability 1.4e-11
    needs about 2e12 arrivals per trial for 30 trades: past
    MAX_EXPECTED_ARRIVALS, so verify's intensity check is skipped, as it is
    for a side that cannot trade at all."""
    thin = ScenarioConfig(MODEL2.grid, MODEL2.generator, MODEL2.arrival_rate, Logistic(0.01),
                          MODEL2.initial_belief, horizon=1.0, seed=0)
    with pytest.raises(InsufficientData, match=r"^30 trades on the thinner side need "
                       r"[\d.e+]+ expected arrivals per trial, above 1e\+06$"):
        verification._intensity_check(thin)


def test_intensity_refuses_a_fractional_seed():
    """A float seed is refused, not truncated to the integer seed's trials."""
    with pytest.raises(ConfigError, match="must be integers"):
        intensity_test(
            MODEL2, Quote(ask=0.0, bid=-0.5), state_value=0.0, horizon=60.0,
            n_trials=50, seed=7.9,
        )


def test_intensity_refuses_a_fractional_trial_count():
    """n_trials must be an integer; a numpy integer gives the int's report."""
    quote = Quote(ask=0.0, bid=-0.5)
    for n_trials in (50.5, 150.0):
        with pytest.raises(ConfigError, match="^n_trials must be an integer, got"):
            intensity_test(MODEL2, quote, state_value=0.0, horizon=60.0,
                           n_trials=n_trials, seed=7)
    as_int = intensity_test(MODEL2, quote, 0.0, 60.0, n_trials=150, seed=7)
    as_numpy = intensity_test(MODEL2, quote, 0.0, 60.0, n_trials=np.int64(150), seed=7)
    assert as_numpy == as_int


def test_poisson_gof_calibration():
    rng = np.random.default_rng(9)
    counts = rng.poisson(30.0, size=400)
    good = _poisson_gof(counts, 30.0, alpha=0.01)
    assert good.passed and good.df >= 5
    bad = _poisson_gof(counts, 36.0, alpha=0.01)
    assert not bad.passed


def test_chi2_tail_matches_scipy():
    """The tail is 1.0 at x = 0 and 1e-300, stays in [0, 1], falls as x
    grows, and is within 1e-12 of scipy's relative to it wherever scipy's
    tail is at least 1e-300, on df 1-60 from around the mean out to 3000."""
    grid = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-6, 3000.0, 200)])
    for df in range(1, 61):
        xs = np.unique(np.concatenate([grid, np.linspace(0.25 * df, 3.0 * df, 56)]))
        ours = np.array([_chi2_sf(float(x), df) for x in xs])
        ref = chi2.sf(xs, df)
        assert ours[0] == _chi2_sf(1e-300, df) == 1.0
        assert np.all((ours >= 0.0) & (ours <= 1.0))
        assert np.all(np.diff(ours) <= 0.0)
        normal = ref >= 1e-300
        assert not normal.all()  # the grid reaches past the smallest normal tail
        assert np.all(np.abs(ours - ref)[normal] <= 1e-12 * ref[normal])


# --------------------------------------------------------------------------
# Batch consistency


def test_consistency_check_clean_batch():
    recs = simulate_paths(
        MODEL2, 2.0, SimConfig(ode_step=0.01, sample_dt=0.1), seed=14, n_paths=5
    )
    report = consistency_check(recs, GRID2)
    assert report.n_events > 0
    assert report.max_quote_gap <= 1e-8
    assert report.max_sum_error <= 1e-9
    assert report.min_component >= -1e-12
    assert report.ordering_violations == 0
    assert report.passed


def test_consistency_check_flags_perturbed_quotes():
    recs = simulate_paths(
        MODEL2, 2.0, SimConfig(ode_step=0.01, perturb_ask=0.1), seed=14, n_paths=5
    )
    report = consistency_check(recs, GRID2)
    assert report.max_quote_gap > 1e-3
    assert not report.passed
