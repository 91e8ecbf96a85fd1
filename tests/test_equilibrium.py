"""Static price functions, Picard solvers, root scan, uniqueness constants."""

import math

import numpy as np
import pytest
import scipy.integrate

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
    NoiseTraderMix,
    TwoPointDiscrete,
    check_gm_condition,
)
from oracles import bisect_root

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
    """h(0.4) on the unit grid, with Psi rebuilt by integrating the density."""

    def psi_quadrature(y):
        val, err = scipy.integrate.quad(
            lambda t: LOGI.density(t), -np.inf, y, epsabs=1e-14, epsrel=1e-13
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


def test_picard_iterates_contract_at_rate_k():
    report = check_gm_condition(LOGI, UNIT_GRID.width)
    s = HALF.mean(UNIT_GRID)
    prev_diff = None
    for _ in range(60):
        s_next = mean_given_buy(s, HALF, UNIT_GRID, LOGI)
        diff = abs(s_next - s)
        if prev_diff is not None and prev_diff > 1e-10:
            assert diff <= (report.K + 1e-6) * prev_diff
        prev_diff = diff
        s = s_next
        if diff == 0.0:
            break


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
# between its two sides.
STATIC_PINS = [
    (HALF, UNIT_GRID, LOGI,
     ("0x1.205436ccadc8ap-1", "0x1.bf579266a46ebp-2", 7, 7)),
    (Belief([0.2, 0.3, 0.5]), StateGrid([-1.0, 0.5, 2.0]), Laplace(4.0),
     ("0x1.3eeeab35e8b40p+0", "0x1.48fc2989ecb33p-1", 9, 11)),
    (Belief([0.1, 0.2, 0.3, 0.4]), StateGrid([0.0, 1.0, 2.0, 3.0]), Gaussian(8.0),
     ("0x1.0ccfc6bfe1568p+1", "0x1.e6583f13530b3p+0", 7, 7)),
]


@pytest.mark.parametrize("belief, grid, noise, pinned", STATIC_PINS)
def test_static_quotes_are_bitwise_pinned(belief, grid, noise, pinned):
    q = solve_static_quotes(belief, grid, noise)
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
        _picard(LOGI.survival, ZeroBuyProbability, (0.0, 1.0), [0.5, 0.5],
                0.0, 1e-12, 1)


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
        noise.side_tails_grid, xs, np.concatenate((probs, probs)), sign,
        np.concatenate((ask, bid)), tol, max_iter, first,
    )
    return prices[:len(probs)], prices[len(probs):]


@pytest.mark.parametrize(
    "noise",
    [Logistic(2.0), Laplace(1.5), Gaussian(1.3), TwoPointDiscrete(0.6, 0.4),
     NoiseTraderMix(0.3)],
    ids=["logistic", "laplace", "gaussian", "two_point", "noise_trader_mix"],
)
def test_row_picard_equals_scalar_picard_per_row(noise):
    """Each ask row takes _picard's survival iterates and each bid row its
    cdf iterates: same price, bit for bit, from rows that converge after
    different counts, with zero and roundoff-negative entries among them,
    whether the loop evaluates the first iterate's tails or is given them.
    Rows that fail solo (the forced lattice leaves some without trade mass)
    are left out."""
    xs = np.array([0.0, 0.25, 1.0])
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5],
                      [0.6, -1e-18, 0.4], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5]])
    ask = np.array([0.5, 0.9, 0.0, 0.4, 1.0, 0.3])
    bid = np.array([0.4, 0.1, 0.7, 0.4, 0.0, 0.6])
    want = []
    for r in range(len(probs)):
        try:
            want.append([
                _picard(tail, no_mass, xs.tolist(), probs[r].tolist(), float(s), 1e-12, 200)[0]
                for tail, no_mass, s in ((noise.survival, ZeroBuyProbability, ask[r]),
                                         (noise.cdf, ZeroSellProbability, bid[r]))
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
