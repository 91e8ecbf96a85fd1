"""Belief jumps, the no-trade drift, and the RK4 integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmsim.beliefs import (
    FilterState,
    SimplexDiagnostics,
    belief_drift,
    buy_jump,
    integrate_between_events,
    make_filter_state,
    segment,
    sell_jump,
)
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.equilibrium import solve_ask, solve_bid
from gmsim.errors import ConfigError, ZeroBuyProbability, ZeroSellProbability
from gmsim.noise import Logistic, NoiseTraderMix, TwoPointDiscrete
from oracles import expm_reference

UNIT_GRID = StateGrid([0.0, 1.0])
HALF = Belief([0.5, 0.5])
LOGI = Logistic(2.0)


def random_belief(rng, n):
    raw = rng.random(n) + 1e-3
    return Belief(raw / raw.sum())


# --------------------------------------------------------------------------
# Jumps


def test_buy_jump_matches_hand_bayes():
    ask = 0.6
    phi0 = 1.0 / (1.0 + math.exp(0.6 / 2.0))
    phi1 = 1.0 / (1.0 + math.exp(-0.4 / 2.0))
    w0, w1 = 0.5 * phi0, 0.5 * phi1
    expected = np.array([w0, w1]) / (w0 + w1)
    got = buy_jump(HALF, ask, UNIT_GRID, LOGI)
    assert np.all(np.abs(got.probs - expected) <= 1e-14)


def test_sell_jump_matches_hand_bayes():
    bid = 0.35
    psi0 = 1.0 / (1.0 + math.exp(-0.35 / 2.0))
    psi1 = 1.0 / (1.0 + math.exp(0.65 / 2.0))
    w0, w1 = 0.5 * psi0, 0.5 * psi1
    expected = np.array([w0, w1]) / (w0 + w1)
    got = sell_jump(HALF, bid, UNIT_GRID, LOGI)
    assert np.all(np.abs(got.probs - expected) <= 1e-14)


def test_flat_tails_make_jumps_identity():
    noise = NoiseTraderMix(0.3)
    belief = Belief([0.2, 0.5, 0.3])
    grid = StateGrid([0.0, 1.0, 2.0])
    assert np.all(np.abs(buy_jump(belief, 1.0, grid, noise).probs - belief.probs) <= 1e-15)
    assert np.all(np.abs(sell_jump(belief, 1.0, grid, noise).probs - belief.probs) <= 1e-15)


def test_degenerate_belief_is_jump_invariant():
    belief = Belief([0.0, 1.0])
    after = buy_jump(belief, 0.7, UNIT_GRID, LOGI)
    assert np.array_equal(after.probs, belief.probs)


def test_buy_jump_moves_mean_up_sell_down():
    rng = np.random.default_rng(5)
    grid = StateGrid([-0.5, 0.3, 1.2])
    noise = Logistic(3.0)
    for _ in range(50):
        belief = random_belief(rng, 3)
        s = rng.uniform(grid.x_min, grid.x_max)
        mean = belief.mean(grid)
        assert buy_jump(belief, s, grid, noise).mean(grid) >= mean - 1e-12
        assert sell_jump(belief, s, grid, noise).mean(grid) <= mean + 1e-12


def test_posted_quote_equals_post_trade_mean():
    """A buy at the solved ask leaves the posterior mean exactly there."""
    rng = np.random.default_rng(21)
    grid = StateGrid([0.0, 0.6, 1.0])
    noise = Logistic(2.0)
    for _ in range(50):
        belief = random_belief(rng, 3)
        ask = solve_ask(belief, grid, noise)
        bid = solve_bid(belief, grid, noise)
        assert buy_jump(belief, ask, grid, noise).mean(grid) == pytest.approx(
            ask, abs=1e-10
        )
        assert sell_jump(belief, bid, grid, noise).mean(grid) == pytest.approx(
            bid, abs=1e-10
        )


def test_vacuous_conditioning_raises():
    noise = TwoPointDiscrete(1.0, 0.5)
    grid = StateGrid([1.0, 3.0])
    with pytest.raises(ZeroBuyProbability, match=r"^buy at 2\.5 has zero probability$"):
        buy_jump(Belief([1.0, 0.0]), 2.5, grid, noise)
    with pytest.raises(ZeroSellProbability, match=r"^sell at 1\.5 has zero probability$"):
        sell_jump(Belief([0.0, 1.0]), 1.5, grid, noise)


# --------------------------------------------------------------------------
# Drift


def test_drift_zero_without_arrivals_or_transitions():
    drift = belief_drift(
        HALF, Quote(0.7, 0.3), 0.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI
    )
    assert drift == [0.0, 0.0]


def test_drift_zero_at_degenerate_belief_with_frozen_chain():
    belief = Belief([1.0, 0.0])
    drift = belief_drift(
        belief, Quote(0.7, 0.3), 3.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI
    )
    assert np.all(np.abs(drift) <= 1e-15)


def test_drift_flat_tails_reduce_to_kolmogorov():
    """With a noise-trader mix, no-trade carries no information."""
    noise = NoiseTraderMix(0.4)
    q = GeneratorMatrix([[0.0, 0.8], [0.2, 0.0]])
    belief = Belief([0.3, 0.7])
    with_arrivals = belief_drift(belief, Quote(0.7, 0.3), 5.0, q, UNIT_GRID, noise)
    without = belief_drift(belief, Quote(0.7, 0.3), 0.0, q, UNIT_GRID, noise)
    assert np.all(np.abs(np.array(with_arrivals) - without) <= 1e-15)


def test_drift_matches_two_state_kolmogorov_formula():
    alpha, beta = 0.8, 0.2
    q = GeneratorMatrix([[0.0, alpha], [beta, 0.0]])
    p = 0.3
    belief = Belief([p, 1.0 - p])
    drift = belief_drift(belief, Quote(0.7, 0.3), 0.0, q, UNIT_GRID, LOGI)
    assert drift[0] == pytest.approx(-alpha * p + beta * (1 - p), abs=1e-15)
    assert drift[1] == pytest.approx(alpha * p - beta * (1 - p), abs=1e-15)


def test_drift_components_sum_to_zero():
    rng = np.random.default_rng(31)
    grid = StateGrid([0.0, 0.5, 1.0])
    q = GeneratorMatrix([[0.0, 0.4, 0.1], [0.3, 0.0, 0.2], [0.5, 0.1, 0.0]])
    for _ in range(200):
        belief = random_belief(rng, 3)
        ask = rng.uniform(0.5, 1.0)
        bid = rng.uniform(0.0, 0.5)
        drift = belief_drift(belief, Quote(ask, bid), 4.0, q, grid, LOGI)
        assert abs(sum(drift)) <= 1e-12


@given(
    p=st.floats(0.01, 0.99),
    ask_off=st.floats(0.5, 1.0),
    bid_off=st.floats(0.0, 0.5),
    lam=st.floats(0.0, 10.0),
)
def test_drift_sum_zero_property(p, ask_off, bid_off, lam):
    belief = Belief([p, 1.0 - p])
    q = GeneratorMatrix([[0.0, 0.7], [0.4, 0.0]])
    drift = belief_drift(belief, Quote(ask_off, bid_off), lam, q, UNIT_GRID, LOGI)
    assert abs(sum(drift)) <= 1e-12


def test_drift_no_trade_raises_mass_of_middle_states():
    """Not trading is evidence for values inside the spread."""
    grid = StateGrid([0.0, 0.5, 1.0])
    belief = Belief([1 / 3, 1 / 3, 1 / 3])
    state = make_filter_state(belief, grid, Logistic(2.5))
    drift = belief_drift(
        belief, state.quote, 5.0, GeneratorMatrix.zero(3), grid, Logistic(2.5)
    )
    assert drift[1] > 0.0
    assert drift[0] < 0.0 or drift[2] < 0.0


def test_drift_size_mismatch_raises():
    with pytest.raises(ConfigError):
        belief_drift(HALF, Quote(0.7, 0.3), 1.0, GeneratorMatrix.zero(3), UNIT_GRID, LOGI)


# --------------------------------------------------------------------------
# Integration


def test_integrate_zero_dt_returns_state():
    state = make_filter_state(HALF, UNIT_GRID, LOGI)
    after = integrate_between_events(
        state, 0.0, 4.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI
    )
    assert after is state


def test_integrate_caches_are_fixed_points():
    q = GeneratorMatrix([[0.0, 0.5], [0.3, 0.0]])
    state = make_filter_state(Belief([0.7, 0.3]), UNIT_GRID, LOGI)
    after = integrate_between_events(state, 0.8, 4.0, q, UNIT_GRID, LOGI)
    assert after.time == pytest.approx(0.8)
    assert after.ask == pytest.approx(
        solve_ask(after.belief, UNIT_GRID, LOGI), abs=1e-10
    )
    assert after.bid == pytest.approx(
        solve_bid(after.belief, UNIT_GRID, LOGI), abs=1e-10
    )


def test_integrate_without_arrivals_matches_matrix_exponential():
    """lam = 0 turns the filter into the forward Kolmogorov equation."""
    rates = [[0.0, 0.7, 0.3], [0.2, 0.0, 0.3], [0.1, 0.4, 0.0]]
    q = GeneratorMatrix(rates)
    grid = StateGrid([0.0, 0.5, 1.0])
    noise = Logistic(2.5)
    start = Belief([0.5, 0.3, 0.2])
    state = make_filter_state(start, grid, noise)
    after = integrate_between_events(state, 1.0, 0.0, q, grid, noise, ode_step=1e-3)
    expected = start.probs @ expm_reference(q.rates * 1.0)
    assert np.all(np.abs(after.belief.probs - expected) <= 1e-8)


def test_integrate_converges_at_fourth_order():
    """Halving the step shrinks the error by about 2^4."""
    q = GeneratorMatrix([[0.0, 0.5], [0.8, 0.0]])
    state = make_filter_state(Belief([0.3, 0.7]), UNIT_GRID, LOGI)

    def terminal(step):
        out = integrate_between_events(
            state, 1.0, 5.0, q, UNIT_GRID, LOGI, ode_step=step, fp_tol=1e-13
        )
        return out.belief.probs

    reference = terminal(1.0 / 1024.0)
    err_coarse = np.abs(terminal(1.0 / 8.0) - reference).max()
    err_fine = np.abs(terminal(1.0 / 16.0) - reference).max()
    ratio = err_coarse / err_fine
    assert err_coarse > 1e-13, "errors too close to roundoff to measure order"
    assert 10.0 <= ratio <= 22.0, f"RK4 order ratio {ratio:.2f}"


def test_integrate_tracks_simplex_diagnostics():
    q = GeneratorMatrix([[0.0, 0.9], [0.7, 0.0]])
    state = make_filter_state(Belief([0.05, 0.95]), UNIT_GRID, LOGI)
    diag = SimplexDiagnostics()
    out = integrate_between_events(
        state, 2.0, 6.0, q, UNIT_GRID, LOGI, ode_step=0.01, diagnostics=diag
    )
    assert diag.max_sum_error <= 1e-9
    assert diag.min_component >= -1e-12
    assert out.belief.probs.min() >= 0.0
    assert abs(out.belief.probs.sum() - 1.0) <= 1e-9


def test_jump_integrate_sequences_stay_on_simplex():
    rng = np.random.default_rng(17)
    grid = StateGrid([0.0, 0.4, 1.0])
    noise = Logistic(2.0)
    q = GeneratorMatrix([[0.0, 0.3, 0.1], [0.2, 0.0, 0.4], [0.1, 0.3, 0.0]])
    diag = SimplexDiagnostics()
    state = make_filter_state(Belief([1 / 3, 1 / 3, 1 / 3]), grid, noise)
    for _ in range(60):
        move = rng.integers(0, 3)
        if move == 0:
            state = FilterState(
                belief=buy_jump(state.belief, state.ask, grid, noise),
                time=state.time,
                ask=state.ask,
                bid=state.bid,
            )
            state = make_filter_state(state.belief, grid, noise, time=state.time)
        elif move == 1:
            state = FilterState(
                belief=sell_jump(state.belief, state.bid, grid, noise),
                time=state.time,
                ask=state.ask,
                bid=state.bid,
            )
            state = make_filter_state(state.belief, grid, noise, time=state.time)
        else:
            state = integrate_between_events(
                state, float(rng.uniform(0.01, 0.4)), 5.0, q, grid, noise,
                ode_step=0.02, diagnostics=diag,
            )
        probs = state.belief.probs
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) <= 1e-9
    assert diag.max_sum_error <= 1e-9
    assert diag.min_component >= -1e-12


def test_segment_takes_the_fewest_steps_within_ode_step():
    """The one rule that both engines split a trade-free segment by."""
    assert segment(0.75, 0.25) == (3, 0.25)  # an exact multiple
    assert segment(0.3, 0.1) == (3, 0.3 / 3)  # a multiple in decimal only
    assert segment(0.003, 0.02) == (1, 0.003)  # shorter than one step
    for ode_step in (1e-3, 0.02, 0.25):
        assert segment(1e6 * ode_step, ode_step) == (10**6, ode_step)


@pytest.mark.parametrize("dt, ode_step", [(1e300, 0.02), (1e300, 1e-10), (1.0, 0.999999e-6)])
def test_integrate_refuses_a_step_count_no_path_can_hold(dt, ode_step):
    """dt / ode_step above MAX_EXPECTED_ARRIVALS RK4 steps is refused,
    naming ode_step, where it would never end or overflow math.ceil."""
    state = make_filter_state(HALF, UNIT_GRID, LOGI)
    with pytest.raises(ConfigError, match=r"^ode_step: dt / ode_step = ([\d.e+]+|inf) RK4"):
        integrate_between_events(
            state, dt, 0.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI, ode_step=ode_step
        )


def test_integrate_rejects_bad_arguments():
    state = make_filter_state(HALF, UNIT_GRID, LOGI)
    with pytest.raises(ConfigError):
        integrate_between_events(
            state, -1.0, 1.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI
        )
    with pytest.raises(ConfigError):
        integrate_between_events(
            state, 1.0, 1.0, GeneratorMatrix.zero(2), UNIT_GRID, LOGI, ode_step=0.0
        )
    with pytest.raises(ConfigError):
        integrate_between_events(
            state, 1.0, 1.0, GeneratorMatrix.zero(3), UNIT_GRID, LOGI
        )
