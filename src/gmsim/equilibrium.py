"""Static zero-profit prices for one belief.

Given a belief pi over the value grid and a price s, the posted side earns
zero in expectation exactly when s equals the value conditioned on the trade
happening:

    ask side:  g(s, pi) = sum_i x_i pi_i Phi(s - x_i) / sum_i pi_i Phi(s - x_i)
    bid side:  h(s, pi) = sum_i x_i pi_i Psi(s - x_i) / sum_i pi_i Psi(s - x_i)

The ask is a fixed point s = g(s, pi) and the bid a fixed point of h. Under
the admissibility condition (check_gm_condition, K < 1) both maps contract
with modulus K on [x_1, x_n], so plain fixed-point iteration from the prior
mean converges and the fixed points are unique. Without the condition there
may be several fixed points or none in the interior; find_fixed_points lists
whatever a scan of s - g(s, pi) finds, which is the honest answer for
families like the two-point lattice.

Prices live in [x_1, x_n]; outside, conditioning can be vacuous and the
sums raise ZeroBuyProbability / ZeroSellProbability.

This module holds the package's only quote-solving path: _iteration_ceiling
(the admissibility gate and the certified iteration ceiling) and _picard
(one Picard loop for either side, given its tail), with _picard_rows, the
same loop over many beliefs and both sides at once for the lockstep engine:
the ask rows and the bid rows stacked, each row with its side's tail. The
public solvers here and the belief filter's per-model kernel call them.
Each sum over the states in the row code is a _column_sum, which keeps a
row equal to the scalar loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Belief, ContractionConstants, StateGrid, check_sizes
from .errors import (
    ConditionFailed,
    ConfigError,
    NoConvergence,
    ZeroBuyProbability,
    ZeroSellProbability,
)
from .noise import NoiseModel, check_gm_condition

DEFAULT_TOL = 1e-12
# Iteration ceiling when no contraction certificate is available (forced
# static-only runs); certified solves derive a ceiling from K instead.
FALLBACK_MAX_ITER = 500


# --------------------------------------------------------------------------
# Scalar kernels. The simulator calls these thousands of times per path with
# 2-10 states, where a plain loop beats array dispatch by a wide margin.


def _conditional_mean(s, xs, probs, tail, no_mass):
    """g(s) with tail = noise.survival, h(s) with tail = noise.cdf: the
    value's mean given a trade at price s. Raises no_mass (the side's
    ZeroBuyProbability or ZeroSellProbability) when that trade has no
    probability."""
    num = 0.0
    den = 0.0
    for x, p in zip(xs, probs):
        if p != 0.0:
            w = p * tail(s - x)
            num += w * x
            den += w
    if den <= 0.0:
        raise no_mass(f"no trade mass at price {s}")
    return num / den


def _no_convergence(max_iter):
    return NoConvergence(
        f"fixed-point iteration still moving after {max_iter} steps; "
        "a violated admissibility precondition is the usual cause"
    )


def _picard(tail, no_mass, xs, probs, start, tol, max_iter):
    """Iterate s <- _conditional_mean(s) until successive values agree
    within tol.

    Returns (price, iterations). Under a contraction with modulus K the
    returned price satisfies |g(price) - price| <= K * tol <= tol.
    """
    s = start
    for i in range(1, max_iter + 1):
        s_next = _conditional_mean(s, xs, probs, tail, no_mass)
        if abs(s_next - s) <= tol:
            return s_next, i
        s = s_next
    raise _no_convergence(max_iter)


def _column_sum(m):
    """Sum each row of m over its columns (its second axis) in state order,
    starting from +0.0. This is the row form of the scalar loops'
    `total = 0.0; total += v`, and it equals them bit for bit. Where a
    scalar loop skips a zero-probability state, the row adds that state's
    zero term, which leaves the sum unchanged: +0.0 plus -0.0 is +0.0, so a
    sum of zeros stays +0.0, as in the scalar loop."""
    total = 0.0 + m[:, 0]
    for i in range(1, m.shape[1]):
        total = total + m[:, i]
    return total


def _picard_rows(tails, xs, probs, sign, start, tol, max_iter, first=None):
    """_picard on every row of probs at once, for both sides of the book:
    one belief and one warm price per row, sign a column that is +1 on the
    ask rows (the survival tail, ZeroBuyProbability) and -1 on the bid rows
    (the cdf, ZeroSellProbability), tails the noise's side_tails_grid and xs
    the grid values as an array. first, when given, is the tails at start,
    which the first iterate then uses instead of evaluating them.

    A row leaves the loop when its successive values agree within tol, so
    each row takes exactly the iterates _picard would take alone. Returns
    the prices. Raises what solving all ask rows and then all bid rows
    would: an ask row's ZeroBuyProbability or NoConvergence first, and a
    bid row's ZeroSellProbability or NoConvergence only once every ask row
    has converged.
    """
    prices = np.array(start, dtype=float)
    rows = np.arange(len(prices))  # the rows still moving
    s = prices
    bid_error = None  # a bid row's zero mass, held until the ask rows finish
    for _ in range(max_iter):
        weights = probs * (tails(s[:, None] - xs, sign) if first is None else first)
        first = None
        num = _column_sum(weights * xs)
        den = _column_sum(weights)
        empty = den <= 0.0
        if empty.any():
            ask_rows = sign[:, 0] > 0
            if (empty & ask_rows).any():
                raise ZeroBuyProbability(f"no trade mass at price {s[empty & ask_rows][0]}")
            if bid_error is None:
                bid_error = ZeroSellProbability(f"no trade mass at price {s[empty][0]}")
            # the bid rows' prices no longer matter; the ask rows go on
            rows, s, num, den, probs, sign = (
                v[ask_rows] for v in (rows, s, num, den, probs, sign)
            )
        s_next = num / den
        done = np.abs(s_next - s) <= tol
        if done.all():
            if bid_error is not None:
                raise bid_error
            prices[rows] = s_next
            return prices
        if done.any():
            prices[rows[done]] = s_next[done]
            moving = ~done
            rows, s_next, probs, sign = (v[moving] for v in (rows, s_next, probs, sign))
        s = s_next
    raise _no_convergence(max_iter)


def _iteration_ceiling(noise, grid, tol, force):
    """Admission check and iteration ceiling shared by every Picard solve.

    Refuses static-only families and failed admissibility checks unless
    force=True. A certified contraction modulus K gives the steps until
    K^n * C falls below tol, plus slack for roundoff; a forced run gets
    FALLBACK_MAX_ITER.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError("tol must be positive and finite")
    if noise.static_only:
        if not force:
            raise ConditionFailed(
                f"{type(noise).__name__} is static-only; the fixed point may "
                "not be unique. Pass force=True to iterate anyway."
            )
        return FALLBACK_MAX_ITER
    report = check_gm_condition(noise, grid.width)
    if not report.passes:
        if not force:
            raise ConditionFailed(
                f"admissibility condition fails (K = {report.K:.6g} >= 1); "
                "pass force=True to iterate anyway"
            )
        return FALLBACK_MAX_ITER
    if report.K <= 0.0:
        return FALLBACK_MAX_ITER
    if grid.width <= tol:
        return 10
    return int(math.ceil(math.log(tol / grid.width) / math.log(report.K))) + 20


def _side(noise, buy_side):
    """The tail and the zero-mass error of one side of the book."""
    if buy_side:
        return noise.survival, ZeroBuyProbability
    return noise.cdf, ZeroSellProbability


# --------------------------------------------------------------------------
# Public evaluation


def mean_given_buy(s: float, belief: Belief, grid: StateGrid, noise: NoiseModel) -> float:
    """g(s, pi): expected value given a customer buys at price s."""
    check_sizes(belief, grid)
    return float(_conditional_mean(s, grid.values, belief.probs, *_side(noise, True)))


def mean_given_sell(s: float, belief: Belief, grid: StateGrid, noise: NoiseModel) -> float:
    """h(s, pi): expected value given a customer sells at price s."""
    check_sizes(belief, grid)
    return float(_conditional_mean(s, grid.values, belief.probs, *_side(noise, False)))


def solve_ask(
    belief: Belief,
    grid: StateGrid,
    noise: NoiseModel,
    tol: float = DEFAULT_TOL,
    start: float | None = None,
    force: bool = False,
) -> float:
    """Zero-profit ask G(pi): the fixed point of s = g(s, pi).

    Iterates from the prior mean (or `start`, e.g. a warm quote) until
    successive iterates agree within tol. Refuses static-only families and
    failed admissibility checks unless force=True.
    """
    [(price, _)] = _solve(belief, grid, noise, tol, start, force, (True,))
    return price


def solve_bid(
    belief: Belief,
    grid: StateGrid,
    noise: NoiseModel,
    tol: float = DEFAULT_TOL,
    start: float | None = None,
    force: bool = False,
) -> float:
    """Zero-profit bid H(pi): the fixed point of s = h(s, pi)."""
    [(price, _)] = _solve(belief, grid, noise, tol, start, force, (False,))
    return price


def _solve(belief, grid, noise, tol, start, force, sides):
    """Run the gate once, then one Picard solve per entry of sides (True for
    the ask, False for the bid); returns their (price, iterations) pairs."""
    check_sizes(belief, grid)
    max_iter = _iteration_ceiling(noise, grid, tol, force)
    if start is None:
        start = belief.mean(grid)
    xs = tuple(float(v) for v in grid.values)
    probs = [float(v) for v in belief.probs]
    return [
        _picard(*_side(noise, buy), xs, probs, start, tol, max_iter) for buy in sides
    ]


@dataclass(frozen=True)
class StaticQuotes:
    """Both zero-profit prices for one belief, with solver effort."""

    ask: float
    bid: float
    ask_iterations: int
    bid_iterations: int

    @property
    def spread(self) -> float:
        return self.ask - self.bid


def solve_static_quotes(
    belief: Belief,
    grid: StateGrid,
    noise: NoiseModel,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> StaticQuotes:
    (ask, ask_iters), (bid, bid_iters) = _solve(
        belief, grid, noise, tol, None, force, (True, False)
    )
    return StaticQuotes(ask=ask, bid=bid, ask_iterations=ask_iters, bid_iterations=bid_iters)


# --------------------------------------------------------------------------
# Root listing


def find_fixed_points(
    belief: Belief,
    grid: StateGrid,
    noise: NoiseModel,
    buy_side: bool = True,
    scan_points: int = 20_001,
    tol: float = 1e-10,
) -> list[float]:
    """All fixed points of s = g(s, pi) (or h) found by scanning [x_1, x_n].

    Works for any family, including static-only ones where the map is
    discontinuous and several fixed points (or none) can coexist. Sign
    changes of the residual r(s) = s - g(s, pi) are refined by bisection;
    a refined point is accepted only if the residual actually vanishes
    there, which discards jump discontinuities of r.
    """
    check_sizes(belief, grid)
    xs = tuple(float(v) for v in grid.values)
    probs = [float(v) for v in belief.probs]
    tail, no_mass = _side(noise, buy_side)

    def residual(s):
        try:
            return s - _conditional_mean(s, xs, probs, tail, no_mass)
        except no_mass:
            return math.nan

    lo, hi = grid.x_min, grid.x_max
    step = (hi - lo) / (scan_points - 1)
    scale = max(1.0, abs(lo), abs(hi))
    roots: list[float] = []

    def push(candidate):
        for r in roots:
            if abs(r - candidate) <= max(10 * tol, 1e-9 * scale):
                return
        roots.append(candidate)

    prev_s = lo
    prev_r = residual(lo)
    if prev_r == 0.0:
        push(lo)
    for i in range(1, scan_points):
        s = lo + i * step if i < scan_points - 1 else hi
        r = residual(s)
        if r == 0.0:
            push(s)
        elif not (math.isnan(r) or math.isnan(prev_r)) and prev_r * r < 0.0:
            a, b = prev_s, s
            ra = prev_r
            while b - a > 1e-3 * tol:
                mid = 0.5 * (a + b)
                rm = residual(mid)
                if rm == 0.0:
                    a = b = mid
                    break
                if ra * rm < 0.0:
                    b = mid
                else:
                    a, ra = mid, rm
            candidate = 0.5 * (a + b)
            # A jump discontinuity of r bisects to a point with a finite
            # residual; a genuine root leaves essentially none.
            if abs(residual(candidate)) <= 100.0 * (1e-3 * tol) * scale + 1e-13:
                push(candidate)
        prev_s, prev_r = s, r
    return sorted(roots)


# --------------------------------------------------------------------------
# Uniqueness constants


def contraction_constants(grid: StateGrid, noise: NoiseModel, lam: float) -> ContractionConstants:
    """Constants of the local-uniqueness estimate for quote paths.

    K is the contraction modulus of the price maps, L the Lipschitz constant
    of the static prices in the belief (L = 2 * max|x| / Phi(C)^2), M the
    density peak, K1 = 12 * L * n * lam * M the drift-mismatch rate, and any
    two solutions of the filter/quote system started together agree on
    [0, t_star] with t_star = (1 - K) / (2 * K1).
    """
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ConfigError("arrival rate must be nonnegative and finite")
    report = check_gm_condition(noise, grid.width)
    if not report.passes:
        raise ConditionFailed(
            f"admissibility condition fails (K = {report.K:.6g}); the "
            "uniqueness constants are not defined"
        )
    x_abs = max(abs(grid.x_min), abs(grid.x_max))
    big_l = 2.0 * x_abs / report.phi_at_c**2
    k_one = 12.0 * big_l * grid.n * lam * report.M
    t_star = math.inf if k_one == 0.0 else (1.0 - report.K) / (2.0 * k_one)
    return ContractionConstants(K=report.K, L=big_l, M=report.M, K1=k_one, t_star=t_star)
