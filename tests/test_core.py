"""Construction and validation of the shared value types."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmsim.beliefs import belief_drift, integrate_between_events, make_filter_state
from gmsim.config import ScenarioConfig
from gmsim.core import Belief, GeneratorMatrix, Quote, StateGrid
from gmsim.engine import (
    MarketModel,
    SimConfig,
    sample_arrival_times,
    sample_value_path,
    simulate_gmps_path,
)
from gmsim.equilibrium import contraction_constants, solve_ask, solve_bid
from gmsim.errors import ConfigError
from gmsim.noise import Logistic, check_gm_condition
from gmsim.verification import OracleFilterConfig, intensity_test


def test_state_grid_basics():
    grid = StateGrid([0.0, 0.5, 2.0])
    assert grid.n == 3
    assert grid.x_min == 0.0
    assert grid.x_max == 2.0
    assert grid.width == 2.0
    assert not grid.values.flags.writeable


def test_state_grid_validation():
    with pytest.raises(ConfigError):
        StateGrid([1.0])
    with pytest.raises(ConfigError):
        StateGrid([1.0, 1.0])
    with pytest.raises(ConfigError):
        StateGrid([2.0, 1.0])
    with pytest.raises(ConfigError):
        StateGrid([0.0, np.inf])


@pytest.mark.parametrize("values", [[-1e308, 1e308], [-1e308, 0.0, 1e308]])
def test_state_grid_refuses_a_width_beyond_the_largest_float(values):
    """Finite values whose width x_n - x_1 overflows are refused as a
    ConfigError, with no numpy overflow warning before it."""
    with pytest.raises(ConfigError, match="width"):
        StateGrid(values)


def test_belief_renormalizes_exactly():
    belief = Belief([2.0, 6.0])
    assert np.allclose(belief.probs, [0.25, 0.75])
    assert belief.probs.sum() == 1.0


def test_belief_clamps_roundoff_negatives():
    belief = Belief([1.0, -1e-12])
    assert belief.probs[1] == 0.0
    assert belief.probs[0] == 1.0


def test_belief_rejects_real_negatives_and_zero_mass():
    with pytest.raises(ConfigError):
        Belief([1.0, -1e-6])
    with pytest.raises(ConfigError):
        Belief([0.0, 0.0])
    with pytest.raises(ConfigError):
        Belief([np.nan, 1.0])


def test_belief_refuses_a_total_mass_that_overflows():
    """Entries whose sum overflows are refused, without a numpy warning;
    summed as before, they would divide to a zero vector."""
    with pytest.raises(ConfigError, match="^belief total mass overflows"):
        Belief([1e308, 1e308])
    big = np.array([1e308, 1e307])
    np.testing.assert_array_equal(Belief(big).probs, big / big.sum())


def test_belief_mean():
    grid = StateGrid([0.0, 1.0, 4.0])
    belief = Belief([0.25, 0.5, 0.25])
    assert belief.mean(grid) == pytest.approx(1.5)


def test_quote_ordering_enforced():
    quote = Quote(ask=1.0, bid=0.5)
    assert quote.spread == 0.5
    with pytest.raises(ConfigError):
        Quote(ask=0.5, bid=1.0)


def test_generator_diagonal_rebuilt_exactly():
    q = GeneratorMatrix([[0.0, 0.3], [0.7, 0.0]])
    assert np.array_equal(q.rates, [[-0.3, 0.3], [0.7, -0.7]])
    assert np.all(q.rates.sum(axis=1) == 0.0)


def test_generator_accepts_consistent_diagonals():
    q = GeneratorMatrix([[-0.3, 0.3], [0.7, -0.7]])
    assert np.array_equal(q.rates, [[-0.3, 0.3], [0.7, -0.7]])


def test_generator_rejects_bad_row_sums():
    with pytest.raises(ConfigError, match="row"):
        GeneratorMatrix([[-0.5, 0.3], [0.7, -0.7]])


@pytest.mark.parametrize("rates, row", [
    ([[0.0, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0),
    ([[-1e308, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0),
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5e308, 1.5e308, 0.0]], 2),
], ids=["zero_diagonal", "given_diagonal", "last_row"])
def test_generator_refuses_an_exit_rate_beyond_the_largest_float(rates, row):
    """Finite rates whose off-diagonal row sum overflows are refused as a
    ConfigError naming the row, with no numpy overflow warning before it."""
    with pytest.raises(ConfigError, match=f"row {row}: its exit rate"):
        GeneratorMatrix(rates)


def test_generator_rejects_negative_rates():
    with pytest.raises(ConfigError):
        GeneratorMatrix([[0.0, -0.1], [0.2, 0.0]])
    with pytest.raises(ConfigError):
        GeneratorMatrix([[0.0, 0.1, 0.2], [0.3, 0.0, 0.4]])


# --------------------------------------------------------------------------
# The rule of the real-valued inputs

GRID = StateGrid([0.0, 1.0])
Q = GeneratorMatrix([[0.0, 0.5], [0.8, 0.0]])
NOISE = Logistic(2.0)
PRIOR = Belief([0.5, 0.5])
MODEL = MarketModel(grid=GRID, generator=Q, arrival_rate=4.0, noise=NOISE,
                    initial_belief=PRIOR)
SCENARIO = ScenarioConfig(grid=GRID, generator=Q, arrival_rate=4.0, noise=NOISE,
                          initial_belief=PRIOR, horizon=1.0, seed=0)
STATE = make_filter_state(PRIOR, GRID, NOISE)
QUOTE = Quote(ask=STATE.ask, bid=STATE.bid)

# Every entry point that checks a real-valued input: (id, call with the
# value, the name the message gives, the sign the value must have).
NUMBER_INPUTS = [
    ("MarketModel.arrival_rate", lambda v: replace(MODEL, arrival_rate=v),
     "arrival_rate", "nonnegative"),
    ("SimConfig.ode_step", lambda v: SimConfig(ode_step=v), "ode_step", "positive"),
    ("SimConfig.fp_tol", lambda v: SimConfig(fp_tol=v), "fp_tol", "positive"),
    ("SimConfig.sample_dt", lambda v: SimConfig(sample_dt=v), "sample_dt", "positive"),
    ("SimConfig.perturb_ask", lambda v: SimConfig(perturb_ask=v), "perturb_ask", None),
    ("sample_value_path", lambda v: sample_value_path(Q, PRIOR, v, np.random.default_rng(0)),
     "horizon", "positive"),
    ("simulate_gmps_path", lambda v: simulate_gmps_path(MODEL, v), "horizon", "positive"),
    ("sample_arrival_times", lambda v: sample_arrival_times(v, 1.0, np.random.default_rng(0)),
     "lam", "nonnegative"),
    ("sample_arrival_times.horizon",
     lambda v: sample_arrival_times(1.0, v, np.random.default_rng(0)), "horizon", "positive"),
    ("intensity_test.horizon", lambda v: intensity_test(MODEL, QUOTE, 0.0, v, 10),
     "horizon", "positive"),
    ("intensity_test.state_value", lambda v: intensity_test(MODEL, QUOTE, v, 1.0, 10),
     "state_value", None),
    ("belief_drift", lambda v: belief_drift(PRIOR, QUOTE, v, Q, GRID, NOISE),
     "lam", "nonnegative"),
    ("contraction_constants", lambda v: contraction_constants(GRID, NOISE, v),
     "lam", "nonnegative"),
    ("integrate_between_events.dt",
     lambda v: integrate_between_events(STATE, v, 1.0, Q, GRID, NOISE), "dt", "nonnegative"),
    ("integrate_between_events.ode_step",
     lambda v: integrate_between_events(STATE, 0.1, 1.0, Q, GRID, NOISE, ode_step=v),
     "ode_step", "positive"),
    ("integrate_between_events.lam",
     lambda v: integrate_between_events(STATE, 0.1, v, Q, GRID, NOISE), "lam", "nonnegative"),
    ("solve_ask.tol", lambda v: solve_ask(PRIOR, GRID, NOISE, tol=v), "tol", "positive"),
    ("solve_ask.start", lambda v: solve_ask(PRIOR, GRID, NOISE, start=v), "start", None),
    ("solve_bid.start", lambda v: solve_bid(PRIOR, GRID, NOISE, start=v), "start", None),
    ("OracleFilterConfig.h", lambda v: OracleFilterConfig(h=v), "h", "positive"),
    ("check_gm_condition.width", lambda v: check_gm_condition(NOISE, v), "width", "positive"),
    ("ScenarioConfig.lambda", lambda v: replace(SCENARIO, arrival_rate=v),
     "lambda", "nonnegative"),
    ("ScenarioConfig.horizon", lambda v: replace(SCENARIO, horizon=v), "horizon", "positive"),
    ("ScenarioConfig.ode_step", lambda v: replace(SCENARIO, ode_step=v), "ode_step", "positive"),
    ("ScenarioConfig.fp_tol", lambda v: replace(SCENARIO, fp_tol=v), "fp_tol", "positive"),
]
BAD_NUMBERS = {"positive": (0.0, -1.0, math.inf, math.nan),
               "nonnegative": (-1.0, math.inf, math.nan),
               None: (math.inf, math.nan)}


@pytest.mark.parametrize("call, name, sign, value", [
    pytest.param(call, name, sign, value, id=f"{entry}={value}")
    for entry, call, name, sign in NUMBER_INPUTS for value in BAD_NUMBERS[sign]
])
def test_real_inputs_share_one_rule(call, name, sign, value):
    """Each entry point refuses a bad value with the message a scenario
    file gets for it."""
    if math.isfinite(value):
        message = f"{name}: must be {sign}, got {value}"
    else:
        message = f"{name}: must be finite, got {value!r}"
    with pytest.raises(ConfigError) as exc:
        call(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("value, shown", [
    (np.float64("inf"), "inf"), (np.float64("-inf"), "-inf"), (np.float64("nan"), "nan"),
    (np.float32("inf"), "inf"), (np.float32("nan"), "nan"),
], ids=["float64_inf", "float64_-inf", "float64_nan", "float32_inf", "float32_nan"])
def test_numpy_scalars_read_as_python_floats(value, shown):
    """A numpy scalar that is not finite gets the message a Python float
    gets, not its numpy repr."""
    with pytest.raises(ConfigError) as exc:
        SimConfig(ode_step=value)
    assert str(exc.value) == f"ode_step: must be finite, got {shown}"
