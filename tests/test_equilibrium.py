"""Static price functions, Picard solvers, root scan, uniqueness constants."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given
from hypothesis import strategies as st

import gmsim.equilibrium
from gmsim.beliefs import buy_jump, sell_jump
from gmsim.core import Belief, StateGrid
from gmsim.equilibrium import (
    contraction_constants,
    find_fixed_points,
    mean_given_buy,
    mean_given_sell,
    solve_ask,
    solve_bid,
    solve_static_quotes,
    _picard,
    _side,
)
from gmsim.errors import (
    ConditionFailed,
    ConfigError,
    NoConvergence,
    ZeroBuyProbability,
    ZeroSellProbability,
)
from gmsim.noise import (
    Gaussian,
    Laplace,
    Logistic,
    NoiseModel,
    NoiseTraderMix,
    TwoPointDiscrete,
    check_gm_condition,
)
from oracles import bisect_root, scipy_noise

TWO_POINT_GRID = StateGrid([1.0, 3.0])
TWO_POINT_BELIEF = Belief([0.75, 0.25])
TWO_POINT_NOISE = TwoPointDiscrete(1.0, 0.5)

UNIT_GRID = StateGrid([0.0, 1.0])
HALF = Belief([0.5, 0.5])
LOGI = Logistic(2.0)


def random_belief(rng, n):
    raw = rng.random(n) + 1e-3
    return Belief(raw / raw.sum())


# --------------------------------------------------------------------------
# Point evaluations


def test_two_point_lattice_fixed_point_values():
    """The classic non-uniqueness example: both 9/5 and 3 are fixed points."""
    g_at = lambda s: mean_given_buy(s, TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE)
    assert g_at(1.8) == pytest.approx(1.8, abs=1e-15)
    assert g_at(3.0) == pytest.approx(3.0, abs=1e-15)
    # Between the two the map sits above s, pinned at the top state.
    assert g_at(2.5) == 3.0


def test_degenerate_belief_returns_its_state():
    grid = StateGrid([-1.0, 0.5, 2.0])
    for i, x in enumerate(grid.values):
        point = np.zeros(3)
        point[i] = 1.0
        belief = Belief(point)
        for s in (-1.0, 0.2, 2.0):
            assert mean_given_buy(s, belief, grid, LOGI) == pytest.approx(x, abs=1e-14)
            assert mean_given_sell(s, belief, grid, LOGI) == pytest.approx(x, abs=1e-14)


def test_noise_trader_mix_prices_are_prior_mean():
    noise = NoiseTraderMix(0.3)
    grid = StateGrid([0.0, 1.0, 4.0])
    belief = Belief([0.2, 0.5, 0.3])
    mean = belief.mean(grid)
    for s in (0.0, 1.7, 4.0):
        assert mean_given_buy(s, belief, grid, noise) == pytest.approx(mean, abs=1e-14)
        assert mean_given_sell(s, belief, grid, noise) == pytest.approx(mean, abs=1e-14)


def test_sell_mean_matches_quadrature_oracle():
    """h(0.4) on the unit grid, with Psi rebuilt by integrating scipy's
    logistic density."""

    def psi_quadrature(y):
        val, err = scipy.integrate.quad(
            scipy_noise(LOGI).pdf, -np.inf, y, epsabs=1e-14, epsrel=1e-13
        )
        assert err < 1e-12
        return val

    w0 = 0.5 * psi_quadrature(0.4 - 0.0)
    w1 = 0.5 * psi_quadrature(0.4 - 1.0)
    expected = (0.0 * w0 + 1.0 * w1) / (w0 + w1)
    got = mean_given_sell(0.4, HALF, UNIT_GRID, LOGI)
    assert got == pytest.approx(expected, abs=1e-12)


def test_zero_mass_conditioning_raises():
    with pytest.raises(ZeroBuyProbability):
        mean_given_buy(2.5, Belief([1.0, 0.0]), TWO_POINT_GRID, TWO_POINT_NOISE)
    with pytest.raises(ZeroSellProbability):
        mean_given_sell(1.5, Belief([0.0, 1.0]), TWO_POINT_GRID, TWO_POINT_NOISE)


# --------------------------------------------------------------------------
# Solvers


def test_solve_ask_matches_bisection_oracle():
    """Picard against an independent bisection with its own g formula."""

    def g_inline(s):
        phi0 = 1.0 / (1.0 + math.exp(s / 2.0))
        phi1 = 1.0 / (1.0 + math.exp((s - 1.0) / 2.0))
        return (0.5 * phi1) / (0.5 * phi0 + 0.5 * phi1)

    oracle = bisect_root(lambda s: s - g_inline(s), 0.0, 1.0, tol=1e-13)
    got = solve_ask(HALF, UNIT_GRID, LOGI)
    assert 0.5 < got < 1.0
    assert got == pytest.approx(oracle, abs=1e-10)


def test_solve_bid_matches_bisection_oracle():
    def h_inline(s):
        psi0 = 1.0 / (1.0 + math.exp(-s / 2.0))
        psi1 = 1.0 / (1.0 + math.exp(-(s - 1.0) / 2.0))
        return (0.5 * psi1) / (0.5 * psi0 + 0.5 * psi1)

    oracle = bisect_root(lambda s: s - h_inline(s), 0.0, 1.0, tol=1e-13)
    got = solve_bid(HALF, UNIT_GRID, LOGI)
    assert 0.0 < got < 0.5
    assert got == pytest.approx(oracle, abs=1e-10)


def test_solver_residual_is_below_tol():
    rng = np.random.default_rng(4)
    grid = StateGrid([-0.5, 0.2, 1.1])
    noise = Logistic(3.0)
    for _ in range(25):
        belief = random_belief(rng, 3)
        ask = solve_ask(belief, grid, noise)
        bid = solve_bid(belief, grid, noise)
        assert abs(mean_given_buy(ask, belief, grid, noise) - ask) <= 1e-12
        assert abs(mean_given_sell(bid, belief, grid, noise) - bid) <= 1e-12


def test_warm_start_agrees_with_cold_start():
    belief = Belief([0.3, 0.7])
    cold = solve_ask(belief, UNIT_GRID, LOGI)
    warm = solve_ask(belief, UNIT_GRID, LOGI, start=cold + 0.05)
    assert warm == pytest.approx(cold, abs=1e-11)


def test_degenerate_belief_solves_to_state():
    assert solve_ask(Belief([1.0, 0.0]), UNIT_GRID, LOGI) == pytest.approx(0.0, abs=1e-12)
    assert solve_bid(Belief([0.0, 1.0]), UNIT_GRID, LOGI) == pytest.approx(1.0, abs=1e-12)


def test_spread_brackets_prior_mean():
    rng = np.random.default_rng(12)
    grid = StateGrid([0.0, 0.4, 1.0])
    noise = Logistic(2.5)
    for _ in range(200):
        belief = random_belief(rng, 3)
        mean = belief.mean(grid)
        ask = solve_ask(belief, grid, noise)
        bid = solve_bid(belief, grid, noise)
        assert bid <= mean + 1e-12 and mean <= ask + 1e-12


def test_spread_strictly_positive_when_informative():
    belief = Belief([0.4, 0.6])
    mean = belief.mean(UNIT_GRID)
    ask = solve_ask(belief, UNIT_GRID, LOGI)
    bid = solve_bid(belief, UNIT_GRID, LOGI)
    assert ask > mean + 1e-6
    assert bid < mean - 1e-6


def test_picard_iterates_contract_at_rate_k(monkeypatch):
    """A continuous family without a slope (the Gaussian) takes one Picard
    step and then secant steps: the solver evaluates g at s_0, then at
    s_1 = g(s_0), and each later iterate is the root of the secant through
    the last two evaluations, s - (s - g) / (1 - dg) with
    dg = (g - g_prev) / (s - s_prev). The residual |g(s) - s| falls faster
    than K per step, and the solve takes fewer evaluations than Picard
    iteration from the same start."""
    noise = Gaussian(2.0)
    belief = Belief([0.3, 0.7])
    report = check_gm_condition(noise, UNIT_GRID.width)
    assert noise.slope is None and report.passes
    seen = []
    mean = gmsim.equilibrium._conditional_mean

    def spy(s, *args):
        seen.append(s)
        return mean(s, *args)

    monkeypatch.setattr(gmsim.equilibrium, "_conditional_mean", spy)
    price = solve_ask(belief, UNIT_GRID, noise, start=0.0)
    monkeypatch.undo()
    g = [mean_given_buy(s, belief, UNIT_GRID, noise) for s in seen]
    assert len(seen) >= 4 and seen[0] == 0.0 and seen[1] == g[0]
    for k in range(2, len(seen)):
        s, s_prev = seen[k - 1], seen[k - 2]
        dg = (g[k - 1] - g[k - 2]) / (s - s_prev)
        assert seen[k] == s - (s - g[k - 1]) / (1.0 - dg)
    assert price == g[-1] and abs(g[-1] - seen[-1]) <= 1e-12
    residuals = [abs(gk - s) for s, gk in zip(seen, g)]
    for prev, res in zip(residuals, residuals[1:]):
        assert res < report.K * prev
    picard_evaluations, s = 1, 0.0
    while abs(mean_given_buy(s, belief, UNIT_GRID, noise) - s) > 1e-12:
        s = mean_given_buy(s, belief, UNIT_GRID, noise)
        picard_evaluations += 1
    assert len(seen) < picard_evaluations


def test_contraction_property_of_price_map():
    rng = np.random.default_rng(77)
    report = check_gm_condition(LOGI, UNIT_GRID.width)
    for _ in range(200):
        belief = random_belief(rng, 2)
        s, t = rng.uniform(0.0, 1.0, 2)
        gap = abs(
            mean_given_buy(s, belief, UNIT_GRID, LOGI)
            - mean_given_buy(t, belief, UNIT_GRID, LOGI)
        )
        assert gap <= (report.K + 1e-9) * abs(s - t)


def test_belief_sensitivity_bounded_by_l():
    rng = np.random.default_rng(99)
    for grid, noise in ((UNIT_GRID, LOGI), (StateGrid([-1.0, 0.5, 2.0]), Logistic(4.0))):
        n = grid.n
        big_l = contraction_constants(grid, noise, 1.0).L
        for _ in range(200):
            b1 = random_belief(rng, n)
            b2 = random_belief(rng, n)
            s = rng.uniform(grid.x_min, grid.x_max)
            gap = abs(
                mean_given_buy(s, b1, grid, noise) - mean_given_buy(s, b2, grid, noise)
            )
            l1 = float(np.abs(b1.probs - b2.probs).sum())
            assert gap <= big_l * l1 + 1e-9


def test_solver_refuses_static_only_without_force():
    with pytest.raises(ConditionFailed):
        solve_ask(TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE)
    forced = solve_ask(TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE, force=True)
    # Picard from the prior mean 1.5 lands on the lattice fixed point 9/5.
    assert forced == pytest.approx(1.8, abs=1e-12)


def test_solver_refuses_failed_condition_without_force():
    with pytest.raises(ConditionFailed):
        solve_ask(HALF, UNIT_GRID, Logistic(0.5))


def test_mix_solves_to_prior_mean_under_force():
    noise = NoiseTraderMix(0.4)
    belief = Belief([0.2, 0.8])
    assert solve_ask(belief, UNIT_GRID, noise, force=True) == pytest.approx(
        belief.mean(UNIT_GRID), abs=1e-14
    )


def test_static_quotes_bundle():
    quotes = solve_static_quotes(HALF, UNIT_GRID, LOGI)
    assert quotes.ask == pytest.approx(solve_ask(HALF, UNIT_GRID, LOGI), abs=1e-14)
    assert quotes.bid == pytest.approx(solve_bid(HALF, UNIT_GRID, LOGI), abs=1e-14)
    assert quotes.ask_iterations >= 1 and quotes.bid_iterations >= 1
    assert quotes.spread > 0.0


# Recorded (float.hex, iterations) before solve_static_quotes shared one gate
# between its two sides. The logistic and Laplace rows were re-recorded when
# their solves moved to Newton steps (prices by at most 2.2e-14, iterations
# then counting evaluations of g). The Gaussian row was re-recorded when its
# solves moved to secant steps: 7 evaluations per side became 4, the ask
# moved by 4.4e-16 and the bid by 1.3e-15.
STATIC_PINS = [
    (HALF, UNIT_GRID, LOGI,
     ("0x1.205436ccadcf9p-1", "0x1.bf579266a460dp-2", 3, 3)),
    (Belief([0.2, 0.3, 0.5]), StateGrid([-1.0, 0.5, 2.0]), Laplace(4.0),
     ("0x1.3eeeab35e8ba1p+0", "0x1.48fc2989ecac6p-1", 4, 4)),
    (Belief([0.1, 0.2, 0.3, 0.4]), StateGrid([0.0, 1.0, 2.0, 3.0]), Gaussian(8.0),
     ("0x1.0ccfc6bfe1569p+1", "0x1.e6583f13530adp+0", 4, 4)),
]


@pytest.mark.parametrize("belief, grid, noise, pinned", STATIC_PINS)
def test_static_quotes_are_bitwise_pinned(belief, grid, noise, pinned):
    q = solve_static_quotes(belief, grid, noise)
    assert (q.ask.hex(), q.bid.hex(), q.ask_iterations, q.bid_iterations) == pinned


# Forced solves of the static-only families, recorded (float.hex,
# iterations) while every family without a slope took Picard steps. Their
# maps jump, so they keep those steps; secant steps would keep these prices
# but take one more evaluation on the side marked * of three cases.
STATIC_ONLY_PINS = [
    (TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE,
     ("0x1.ccccccccccccdp+0", "0x1.0000000000000p+0", 2, 2)),
    (Belief([0.1, 0.2, 0.3, 0.4]), StateGrid([0.0, 1.0, 2.0, 3.0]),  # * the bid
     TwoPointDiscrete(0.7, 0.3), ("0x1.8000000000000p+1", "0x1.5555555555556p-1", 3, 4)),
    (Belief([0.4, 0.1, 0.2, 0.3]), StateGrid([-1.0, 0.0, 0.5, 2.0]), TwoPointDiscrete(0.4, 0.6),
     ("0x1.0000000000000p+1", "-0x1.0000000000000p+0", 3, 3)),
    (Belief([0.37, 0.19, 0.44]), StateGrid([-1.17, 0.64, 1.73]),  # * the ask
     TwoPointDiscrete(1.11, 0.33), ("0x1.66b99ecd20053p+0", "-0x1.2b851eb851eb8p+0", 3, 3)),
    (Belief([0.22, 0.36, 0.42]), StateGrid([0.63, 0.73, 1.28]),  # * the bid
     TwoPointDiscrete(0.24, 0.71), ("0x1.47ae147ae147bp+0", "0x1.6256dd0af23aap-1", 3, 3)),
    (Belief([0.2, 0.8]), UNIT_GRID, NoiseTraderMix(0.4),
     ("0x1.999999999999ap-1", "0x1.999999999999ap-1", 1, 1)),
    (Belief([0.1, 0.2, 0.3, 0.4]), StateGrid([0.0, 1.0, 2.0, 3.0]), NoiseTraderMix(0.7),
     ("0x1.0000000000000p+1", "0x1.0000000000000p+1", 1, 1)),
]


@pytest.mark.parametrize("belief, grid, noise, pinned", STATIC_ONLY_PINS)
def test_forced_static_only_quotes_are_pinned(belief, grid, noise, pinned):
    q = solve_static_quotes(belief, grid, noise, force=True)
    assert (q.ask.hex(), q.bid.hex(), q.ask_iterations, q.bid_iterations) == pinned


def test_static_quotes_run_the_gate_once(monkeypatch):
    calls = []
    ceiling = gmsim.equilibrium._iteration_ceiling

    def counted(*args):
        calls.append(args)
        return ceiling(*args)

    monkeypatch.setattr(gmsim.equilibrium, "_iteration_ceiling", counted)
    solve_static_quotes(HALF, UNIT_GRID, LOGI)
    assert len(calls) == 1


THREE_STATES = Belief([0.2, 0.3, 0.5])
SIZE_MISMATCHES = {
    "buy_jump": lambda: buy_jump(THREE_STATES, 0.5, UNIT_GRID, LOGI),
    "sell_jump": lambda: sell_jump(THREE_STATES, 0.5, UNIT_GRID, LOGI),
    "mean_given_buy": lambda: mean_given_buy(0.5, THREE_STATES, UNIT_GRID, LOGI),
    "mean_given_sell": lambda: mean_given_sell(0.5, THREE_STATES, UNIT_GRID, LOGI),
    "solve_ask": lambda: solve_ask(THREE_STATES, UNIT_GRID, LOGI),
    "solve_bid": lambda: solve_bid(THREE_STATES, UNIT_GRID, LOGI),
    "solve_static_quotes": lambda: solve_static_quotes(THREE_STATES, UNIT_GRID, LOGI),
    "find_fixed_points": lambda: find_fixed_points(THREE_STATES, UNIT_GRID, LOGI),
}


@pytest.mark.parametrize("name", SIZE_MISMATCHES)
def test_belief_grid_size_mismatch_is_a_config_error(name):
    with pytest.raises(ConfigError, match="sizes disagree"):
        SIZE_MISMATCHES[name]()


def test_fixed_point_iteration_cap_raises():
    """A ceiling of one step, from a start whose first step moves far more
    than tol."""
    with pytest.raises(NoConvergence):
        _picard(_side(LOGI, True), (0.0, 1.0), [0.5, 0.5], 0.0, 1e-12, 1)


def test_column_sum_equals_the_scalar_loop():
    """Each row's sum equals `total = 0.0; total += v` over the row, bit for
    bit, on 1 to 9 columns with signed zeros and roundoff-size entries,
    a row of -0.0 (which sums to +0.0) included."""
    rng = np.random.default_rng(91)
    specials = np.array([0.0, -0.0, -1e-18, 1e-18])
    for n in range(1, 10):
        m = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-3, 4, (40, n))
        picks = rng.random((40, n)) < 0.3
        m[picks] = rng.choice(specials, picks.sum())
        m[0] = -0.0
        m[1] = np.resize(specials, n)
        got = gmsim.equilibrium._column_sum(m)
        for r, row in enumerate(m.tolist()):
            total = 0.0
            for v in row:
                total += v
            assert float(got[r]).hex() == total.hex(), (n, row)


def _both_sides(noise, xs, probs, ask, bid, tol, max_iter, first=None):
    """_picard_rows on the ask rows stacked over the bid rows."""
    sign = np.repeat([1.0, -1.0], len(probs))[:, None]
    prices = gmsim.equilibrium._picard_rows(
        noise, xs, np.concatenate((probs, probs)), sign, np.concatenate((ask, bid)), tol,
        max_iter, first,
    )
    return prices[:len(probs)], prices[len(probs):]


@pytest.mark.parametrize(
    "noise",
    [Logistic(2.0), Laplace(1.5), Logistic(0.1), Gaussian(1.3), TwoPointDiscrete(0.6, 0.4),
     NoiseTraderMix(0.3)],
    ids=["logistic", "laplace", "logistic_forced", "gaussian", "two_point",
         "noise_trader_mix"],
)
def test_row_picard_equals_scalar_picard_per_row(noise):
    """Each ask row takes _picard's survival iterates and each bid row its
    cdf iterates: same price, bit for bit, from rows that converge after
    different counts, with zero and roundoff-negative entries among them,
    whether the loop evaluates the first iterate's tails or is given them.
    The logistic and Laplace rows take Newton steps with the family's
    slope (the forced logistic, K = 10, also its Picard fallbacks), the
    Gaussian rows secant steps and the static-only ones Picard steps. Rows
    that fail solo (the forced lattice leaves some without trade mass) are
    left out."""
    xs = np.array([0.0, 0.25, 1.0])
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5],
                      [0.6, -1e-18, 0.4], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5]])
    ask = np.array([0.5, 0.9, 0.0, 0.4, 1.0, 0.3])
    bid = np.array([0.4, 0.1, 0.7, 0.4, 0.0, 0.6])
    want = []
    for r in range(len(probs)):
        try:
            want.append([
                _picard(_side(noise, buy), xs.tolist(), probs[r].tolist(), float(s), 1e-12, 200)[0]
                for buy, s in ((True, ask[r]), (False, bid[r]))
            ])
        except (ZeroBuyProbability, ZeroSellProbability, NoConvergence):
            want.append(None)
    kept = [r for r in range(len(probs)) if want[r] is not None]
    assert len(kept) >= 3
    probs, ask, bid = probs[kept], ask[kept], bid[kept]
    sign = np.repeat([1.0, -1.0], len(kept))[:, None]
    first = noise.side_tails_grid(np.concatenate((ask, bid))[:, None] - xs, sign)
    for given in (None, first):
        got_ask, got_bid = _both_sides(noise, xs, probs, ask, bid, 1e-12, 200, given)
        for i, r in enumerate(kept):
            assert [got_ask[i].hex(), got_bid[i].hex()] == [p.hex() for p in want[r]]


def test_row_picard_raises_the_scalar_errors():
    """Either side's zero mass and a step ceiling raise as _picard does;
    the ask side's error wins, even when a bid row fails at an earlier
    iteration, as if the ask rows were solved first and the bid rows
    after them."""
    xs = np.array([0.0, 1.0])
    probs = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(NoConvergence):
        _both_sides(LOGI, xs, probs, np.zeros(2), np.zeros(2), 1e-12, 1)
    lattice = TwoPointDiscrete(0.3, 0.5)  # no buyer above x + 0.3, no seller below x - 0.3
    with pytest.raises(ZeroBuyProbability, match=r"^no trade mass at price 0\.5$"):
        _both_sides(lattice, xs, probs, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1e-12, 50)
    # the bid row holding x = 1 finds no seller at 0.5 on its first iterate
    at_one = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ZeroSellProbability, match=r"^no trade mass at price 0\.5$"):
        _both_sides(lattice, xs, at_one, np.array([0.5, 1.0]), np.array([0.5, 0.5]), 1e-12, 50)
    # the ask side's error wins: with a ceiling of 2 the ask row from 0.0
    # is still moving (0.0, 2/3, 1.0), after that bid row failed on step 1
    with pytest.raises(NoConvergence):
        _both_sides(lattice, xs, at_one, np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1e-12, 2)
    # a bid row still moving at the ceiling fails once both asks converged
    asks, bids = _both_sides(lattice, xs, at_one, np.ones(2), np.array([0.5, 1.0]), 1e-12, 2)
    assert asks.tolist() == [1.0, 1.0] and bids.tolist() == [0.0, 1.0]
    with pytest.raises(NoConvergence):
        _both_sides(lattice, xs, at_one, np.ones(2), np.array([0.5, 1.0]), 1e-12, 1)


def test_forced_newton_falls_back_to_picard_steps(monkeypatch):
    """With K = 10 (forced), a Newton step meets 1 - g' <= 0 and then one
    leaves [x_1, x_n]; each falls back to the Picard step g(s), the solve
    still converges to a fixed point, and a ceiling below its evaluation
    count raises NoConvergence."""
    noise = Logistic(0.1)
    assert not check_gm_condition(noise, UNIT_GRID.width).passes
    steps = []
    newton = gmsim.equilibrium._newton

    def spy(s, g, dg, lo, hi):
        steps.append((s, g, dg, newton(s, g, dg, lo, hi)))
        return steps[-1][3]

    monkeypatch.setattr(gmsim.equilibrium, "_newton", spy)
    price = solve_ask(HALF, UNIT_GRID, noise, start=0.0, force=True)
    assert abs(mean_given_buy(price, HALF, UNIT_GRID, noise) - price) <= 1e-12
    (s, g, dg, taken), (s2, g2, dg2, taken2) = steps[:2]
    assert 1.0 - dg <= 0.0 and taken == g
    assert 1.0 - dg2 > 0.0 and not 0.0 <= s2 - (s2 - g2) / (1.0 - dg2) <= 1.0
    assert taken2 == g2
    evaluations = len(steps) + 1
    xs, probs = (0.0, 1.0), [0.5, 0.5]
    assert _picard(_side(noise, True), xs, probs, 0.0, 1e-12, evaluations) == (price, evaluations)
    with pytest.raises(NoConvergence):
        _picard(_side(noise, True), xs, probs, 0.0, 1e-12, evaluations - 1)


@pytest.mark.parametrize(
    "belief, grid, noise, rule",
    [(*STATIC_PINS[0][:3], "newton"), (*STATIC_PINS[1][:3], "newton"),
     (*STATIC_PINS[2][:3], "secant"), (*STATIC_ONLY_PINS[0][:3], "picard"),
     (*STATIC_ONLY_PINS[6][:3], "picard")],
    ids=["logistic", "laplace", "gaussian", "two_point", "noise_trader_mix"],
)
def test_the_family_picks_the_step_rule(belief, grid, noise, rule, monkeypatch):
    """Every step goes through _newton, and the family picks the dg it is
    given: the logistic and Laplace a finite Newton slope from the first
    step, the Gaussian nan on its first step and then the secant slope
    through its last two evaluations, the static-only families nan (the
    Picard step) on every step. Spied on a cold solve_static_quotes and, so
    that the noise traders' flat map takes a step, on solves from x_1 and
    x_n."""
    solves = []
    picard, newton = gmsim.equilibrium._picard, gmsim.equilibrium._newton

    def picard_spy(*args):
        solves.append([])
        return picard(*args)

    def newton_spy(s, g, dg, lo, hi):
        solves[-1].append((s, g, dg))
        return newton(s, g, dg, lo, hi)

    monkeypatch.setattr(gmsim.equilibrium, "_picard", picard_spy)
    monkeypatch.setattr(gmsim.equilibrium, "_newton", newton_spy)
    solve_static_quotes(belief, grid, noise, force=True)
    for start in (grid.x_min, grid.x_max):
        solve_ask(belief, grid, noise, start=start, force=True)
        solve_bid(belief, grid, noise, start=start, force=True)
    monkeypatch.undo()
    assert len(solves) == 6 and any(solves)
    if rule != "picard":  # each cold side takes a first and a later step
        assert len(solves[0]) >= 2 and len(solves[1]) >= 2
    for steps in solves:
        slopes = [dg for _, _, dg in steps]
        if rule == "newton":
            assert all(math.isfinite(dg) for dg in slopes)
        elif rule == "picard":
            assert all(math.isnan(dg) for dg in slopes)
        elif steps:
            assert math.isnan(slopes[0])
            for (s_prev, g_prev, _), (s, g, dg) in zip(steps, steps[1:]):
                assert dg == (g - g_prev) / (s - s_prev)


class _Traced(NoiseModel):
    """A continuous family without a slope, so its solves take secant
    steps, whose survival is tail and cdf tail(-y). survival_grid records
    the first price of each call in points: s itself where xs[0] is 0.0."""

    def __init__(self, tail):
        self.tail = tail
        self.points = []

    def survival(self, y):
        return self.tail(y)

    def cdf(self, y):
        return self.tail(-y)

    def survival_grid(self, ys):
        self.points.append(float(ys[0, 0]))
        return super().survival_grid(ys)


def _one_row_evaluations(tail, xs, probs, start, tol, max_iter):
    """_picard_rows on one ask row of _Traced(tail), and the points s where
    it evaluated g. Returns (the price or the error raised, the points)."""
    noise = _Traced(tail)
    try:
        price = gmsim.equilibrium._picard_rows(
            noise, np.array(xs), np.array([probs]), np.array([[1.0]]), np.array([start]), tol,
            max_iter)[0]
    except NoConvergence as error:
        return error, noise.points
    return price, noise.points


def test_secant_steps_outside_the_grid_take_picard_steps(monkeypatch):
    """Forced Gaussian(0.5) on [0, 1], K = 4.7: the ask's second step from
    0 meets a secant root above 1 and the bid's from 1 one below 0, and each
    takes the Picard step g(s) there. The row solver evaluates g at the
    ask's points and returns both prices bit for bit."""
    noise = Gaussian(0.5)
    assert not check_gm_condition(noise, UNIT_GRID.width).passes
    steps = []
    newton = gmsim.equilibrium._newton

    def spy(s, g, dg, lo, hi):
        steps.append((s, g, dg, newton(s, g, dg, lo, hi)))
        return steps[-1][3]

    monkeypatch.setattr(gmsim.equilibrium, "_newton", spy)
    seen = []
    mean = gmsim.equilibrium._conditional_mean
    monkeypatch.setattr(gmsim.equilibrium, "_conditional_mean",
                        lambda s, *args: seen.append(s) or mean(s, *args))
    ask = solve_ask(HALF, UNIT_GRID, noise, start=0.0, force=True)
    ask_points, ask_steps = list(seen), list(steps)
    bid = solve_bid(HALF, UNIT_GRID, noise, start=1.0, force=True)
    monkeypatch.undo()
    for side_steps in (ask_steps, steps[len(ask_steps):]):
        s, g, dg, taken = side_steps[1]
        assert 1.0 - dg > 0.0 and not 0.0 <= s - (s - g) / (1.0 - dg) <= 1.0
        assert taken == g
    assert _one_row_evaluations(noise.survival, (0.0, 1.0), [0.5, 0.5], 0.0, 1e-12,
                                500) == (ask, ask_points)
    asks, bids = _both_sides(noise, np.array([0.0, 1.0]), np.array([[0.5, 0.5]]),
                             np.zeros(1), np.ones(1), 1e-12, 500)
    assert [asks[0].hex(), bids[0].hex()] == [ask.hex(), bid.hex()]


def test_coincident_iterates_take_a_picard_step(monkeypatch):
    """A step that lands on its own start leaves the secant no slope
    (s == s_prev), and both solvers take the Picard step g(s) there. On
    [0, 1] a synthetic tail makes g(s) = 1 / (1 + exp(1000 (s - 0.3))),
    whose slope is about -210 at its fixed point 0.3008: with tol 1e-15 the
    secant root rounds back onto s, and the solve cycles between two floats
    until its ceiling. The scalar and row solvers evaluate g at the same
    points and both raise NoConvergence."""

    def tail(y):
        return 1.0 if y < 0.0 else math.exp(1000.0 * (y - 0.3))

    xs, probs = (0.0, 1.0), [0.5, 0.5]
    seen = []
    mean = gmsim.equilibrium._conditional_mean
    monkeypatch.setattr(gmsim.equilibrium, "_conditional_mean",
                        lambda s, *args: seen.append(s) or mean(s, *args))
    with pytest.raises(NoConvergence):
        _picard(_side(_Traced(tail), True), xs, probs, 0.5, 1e-15, 30)
    monkeypatch.undo()
    coincident = [k for k in range(1, len(seen) - 1) if seen[k] == seen[k - 1]]
    assert len(coincident) >= 3
    for k in coincident:
        assert seen[k + 1] == mean(seen[k], xs, probs, tail, ZeroBuyProbability)
    error, points = _one_row_evaluations(tail, xs, probs, 0.5, 1e-15, 30)
    assert isinstance(error, NoConvergence) and points == seen


@st.composite
def gaussian_solves(draw):
    """A random admissible Gaussian market on 2-8 states, a belief, a side
    and a start anywhere on the grid."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    grid = StateGrid(np.cumsum([0.0] + gaps))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    assume(sum(weights) > 0.1)
    noise = Gaussian(draw(st.floats(1.5, 6.0)) * grid.width)
    assume(check_gm_condition(noise, grid.width).passes)
    start = grid.x_min + draw(st.floats(0.0, 1.0)) * grid.width
    return Belief(weights), grid, noise, draw(st.booleans()), start


@given(gaussian_solves())
def test_secant_solves_agree_with_picard_iteration(solve):
    """A Gaussian solve ends at a price p with |g(p) - p| <= K * tol, and
    within 2 * tol of plain Picard iteration from the same start."""
    belief, grid, noise, buy, start = solve
    tol = 1e-12
    solver, g = (solve_ask, mean_given_buy) if buy else (solve_bid, mean_given_sell)
    price = solver(belief, grid, noise, tol=tol, start=start)
    report = check_gm_condition(noise, grid.width)
    assert abs(g(price, belief, grid, noise) - price) <= report.K * tol
    s = start
    for _ in range(500):
        step = g(s, belief, grid, noise)
        if abs(step - s) <= tol:
            break
        s = step
    assert abs(price - step) <= 2.0 * tol


@pytest.mark.parametrize(
    "noise", [Logistic(2.0), Logistic(5.0), Laplace(2.5), Gaussian(4.0)], ids=repr)
def test_every_solved_price_is_a_fixed_point_within_tol(noise):
    """Scalar and row solves, cold and from warm starts on either side of
    the fixed point, return a price p with |g(p) - p| <= tol."""
    rng = np.random.default_rng(23)
    grid = StateGrid([-0.5, 0.2, 1.1])
    tol = 1e-12
    beliefs = [random_belief(rng, 3) for _ in range(30)]
    starts = rng.uniform(-0.5, 1.1, (30, 2))
    for belief, (a, b) in zip(beliefs, starts):
        for start in (None, a, b):
            ask = solve_ask(belief, grid, noise, tol=tol, start=start)
            bid = solve_bid(belief, grid, noise, tol=tol, start=start)
            assert abs(mean_given_buy(ask, belief, grid, noise) - ask) <= tol
            assert abs(mean_given_sell(bid, belief, grid, noise) - bid) <= tol
    probs = np.array([b.probs for b in beliefs])
    asks, bids = _both_sides(noise, grid.values, probs, starts[:, 0], starts[:, 1], tol, 60)
    for belief, ask, bid in zip(beliefs, asks.tolist(), bids.tolist()):
        assert abs(mean_given_buy(ask, belief, grid, noise) - ask) <= tol
        assert abs(mean_given_sell(bid, belief, grid, noise) - bid) <= tol


def test_bad_tol_rejected():
    with pytest.raises(ConfigError):
        solve_ask(HALF, UNIT_GRID, LOGI, tol=0.0)


# --------------------------------------------------------------------------
# Root listing


def test_scan_finds_both_lattice_roots():
    roots = find_fixed_points(TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.8, abs=1e-10)
    assert roots[1] == pytest.approx(3.0, abs=1e-10)


def test_scan_rejects_jump_discontinuities():
    """The residual jumps sign at s = 2 without a root there."""
    roots = find_fixed_points(TWO_POINT_BELIEF, TWO_POINT_GRID, TWO_POINT_NOISE)
    assert all(abs(r - 2.0) > 0.1 for r in roots)


def test_scan_agrees_with_picard_for_contractive_map():
    roots = find_fixed_points(HALF, UNIT_GRID, LOGI)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(solve_ask(HALF, UNIT_GRID, LOGI), abs=1e-10)
    bid_roots = find_fixed_points(HALF, UNIT_GRID, LOGI, buy_side=False)
    assert len(bid_roots) == 1
    assert bid_roots[0] == pytest.approx(solve_bid(HALF, UNIT_GRID, LOGI), abs=1e-10)


@pytest.mark.parametrize("grid, noise", [
    (UNIT_GRID, LOGI),
    (StateGrid([-1.0, 0.5, 2.0]), Gaussian(1.0)),
], ids=["logistic", "gaussian"])
def test_scan_finds_roots_on_its_first_and_last_points(grid, noise):
    """A point-mass belief on x_1 (or x_n) has g(s) = x_1 (or x_n) on both
    sides, so its one root is the scan's first (or last) point."""
    for k in (0, grid.n - 1):
        belief = Belief(np.eye(grid.n)[k])
        for buy_side in (True, False):
            roots = find_fixed_points(belief, grid, noise, buy_side=buy_side)
            assert roots == [grid.values[k]]


# --------------------------------------------------------------------------
# Uniqueness constants


def test_contraction_constants_arithmetic():
    constants = contraction_constants(UNIT_GRID, LOGI, 1.0)
    phi_c = 1.0 / (1.0 + math.exp(0.5))
    assert constants.K == pytest.approx(0.5, abs=1e-9)
    assert constants.M == pytest.approx(0.125, abs=1e-9)
    assert constants.L == pytest.approx(2.0 / phi_c**2, rel=1e-9)
    assert constants.K1 == pytest.approx(12.0 * constants.L * 2 * 1.0 * 0.125, rel=1e-12)
    assert constants.t_star == pytest.approx(
        (1.0 - 0.5) / (2.0 * constants.K1), rel=1e-12
    )
    assert constants.t_star > 0.0


def test_constants_scale_linearly_in_lambda():
    one = contraction_constants(UNIT_GRID, LOGI, 1.0)
    two = contraction_constants(UNIT_GRID, LOGI, 2.0)
    assert two.K1 == pytest.approx(2.0 * one.K1, rel=1e-14)
    assert two.t_star == pytest.approx(0.5 * one.t_star, rel=1e-14)


def test_constants_use_largest_absolute_state():
    signed = contraction_constants(StateGrid([-2.0, -1.0]), Logistic(4.0), 1.0)
    report = check_gm_condition(Logistic(4.0), 1.0)
    assert signed.L == pytest.approx(2.0 * 2.0 / report.phi_at_c**2, rel=1e-12)


def test_constants_refuse_failed_condition():
    with pytest.raises(ConditionFailed):
        contraction_constants(UNIT_GRID, Logistic(0.5), 1.0)
    with pytest.raises(ConfigError):
        contraction_constants(UNIT_GRID, LOGI, -1.0)
