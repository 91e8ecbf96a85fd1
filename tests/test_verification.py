"""Tests for the reference filter and the statistical checks."""

import inspect
import math

import numpy as np
import pytest
from scipy.stats import chi2

import gmsim.verification as verification
from gmsim.beliefs import SimplexDiagnostics
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.engine import (
    EventRecord,
    MarketModel,
    Outcome,
    PathRecord,
    SimConfig,
    simulate_gmps_path,
    simulate_paths,
)
from gmsim.errors import (
    ConditionFailed,
    ConfigError,
    GridMismatch,
    InsufficientData,
)
from gmsim.noise import Logistic, NoiseTraderMix
from gmsim.verification import (
    OracleFilterConfig,
    compare_filters,
    consistency_check,
    intensity_test,
    oracle_filter,
    transition_matrix,
    uniqueness_diagnostic,
    zero_profit_test,
    _chi2_sf,
    _poisson_gof,
)

from oracles import expm_reference

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
    for forbidden in ("integrate_between_events", "belief_drift", "_drift_raw",
                      "_integrate_raw", "_FilterKernel", "from .beliefs"):
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
    with pytest.raises(ConfigError):
        OracleFilterConfig(matrix_exp_terms=4)


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


def test_compare_filters_identical_and_mismatched():
    t = np.linspace(0, 1, 11)
    b = np.tile([0.3, 0.7], (11, 1))
    cmp = compare_filters(t, b, t, b)
    assert cmp.max_l1 == 0.0 and cmp.n_matched == 11
    with pytest.raises(GridMismatch, match="grids differ"):
        compare_filters(t, b, t, np.tile([0.2, 0.3, 0.5], (11, 1)))
    with pytest.raises(GridMismatch, match="fewer than two"):
        compare_filters(t, b, t + 5.0, b)


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


def test_intensity_refuses_underpowered_setup():
    with pytest.raises(InsufficientData, match="below 20"):
        intensity_test(
            MODEL2, Quote(ask=0.5, bid=0.4), state_value=0.0, horizon=0.5,
            n_trials=50,
        )


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
# Uniqueness diagnostic


def test_uniqueness_constants_cross_check():
    report = uniqueness_diagnostic(MODEL2, horizon=1.0, belief_spread=0.0, seed=0)
    c = report.constants
    assert c.t_star == pytest.approx((1.0 - c.K) / (2.0 * c.K1), rel=1e-12)
    assert c.K == pytest.approx(0.5, abs=1e-6)


def test_uniqueness_identical_beliefs_zero_gap():
    report = uniqueness_diagnostic(MODEL2, horizon=1.5, belief_spread=0.0, seed=6)
    assert len(report.quote_gaps) > 10
    assert np.all(report.quote_gaps == 0.0)
    assert report.max_gap == 0.0 and report.final_gap == 0.0


def test_uniqueness_perturbed_beliefs_converge():
    from dataclasses import replace

    skewed = replace(MODEL2, initial_belief=Belief([0.85, 0.15]))
    report = uniqueness_diagnostic(
        skewed, horizon=2.0, belief_spread=0.2, seed=3,
        config=SimConfig(ode_step=0.01),
    )
    # the twin runs saw the same trade sequence, so the gap illustrates
    # filter merging
    assert report.n_outcome_mismatches == 0
    assert report.n_events >= 5
    assert report.quote_gaps[0] > 0.1
    assert report.final_gap < 0.1 * report.quote_gaps[0]
    assert report.max_gap >= report.quote_gaps[0]


def test_uniqueness_reports_forked_histories():
    """Once an arrival falls between the two posted asks the runs disagree
    on an outcome and the report must say so."""
    from dataclasses import replace

    skewed = replace(MODEL2, initial_belief=Belief([0.85, 0.15]))
    report = uniqueness_diagnostic(
        skewed, horizon=2.0, belief_spread=0.2, seed=6,
        config=SimConfig(ode_step=0.01),
    )
    assert report.n_outcome_mismatches >= 1


def test_uniqueness_requires_the_condition():
    model = MarketModel(
        grid=GRID2,
        generator=MODEL2.generator,
        arrival_rate=1.0,
        noise=Logistic(0.5),
        initial_belief=Belief([0.5, 0.5]),
    )
    with pytest.raises(ConditionFailed):
        uniqueness_diagnostic(model, horizon=1.0)


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
