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

Picard iteration gains about two digits per step on the logistic market,
where the map's slope at the fixed point is 0.004-0.015. Newton's method on
s - g(s) = 0 converges quadratically, and for the families whose density is
a function of the tail value (NoiseModel.slope: the logistic and the
Laplace) its slope g'(s) costs no further tail evaluation:

    g'(s) = -sum_i (x_i - g) pi_i phi_i / sum_i pi_i Phi(s - x_i)

on the ask side, with phi_i = slope(Phi(s - x_i)), and the same with a plus
sign and Psi on the bid side. The Gaussian density would cost one more exp
per state, so its solves take the secant slope through the last two
evaluations instead, (g(s) - g(s_prev)) / (s - s_prev), which costs
nothing: one Picard step, then secant steps (3.78 evaluations of g per
solve fell to 2.45 on an 8-state Gaussian path). The static-only families,
whose maps jump, take Picard steps only. The noise family picks its rule:
_side reads it off the family with the side's tail, and no caller names
it. Every step is one _newton step, and a step that would leave
[x_1, x_n], meets 1 - g' <= 0 or has no slope (nan: a static-only family's,
a secant's first step and a secant from s == s_prev) is replaced by the
Picard step g(s). Either way a solve stops on |g(s) - s| <= tol and
returns g(s), so the K * tol residual bound holds, and its iteration count
is the number of evaluations of g.

Prices live in [x_1, x_n]; outside, conditioning can be vacuous and the
sums raise ZeroBuyProbability / ZeroSellProbability.

This module holds the package's only quote-solving path: _iteration_ceiling
(the admissibility gate and the certified iteration ceiling), _side (what a
solve needs of one side of the book), _picard (one fixed-point loop, given
a side) and _picard_rows, the same loop over many beliefs and both sides
for the lockstep engine, the ask rows stacked over the bid rows. The public
solvers and the filter kernel call them, each binding a side once. Each sum
over the states in the row code is a _column_sum, which keeps a row equal
to the scalar loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Belief, ContractionConstants, StateGrid, check_number, check_sizes
from .errors import ConditionFailed, NoConvergence, ZeroBuyProbability, ZeroSellProbability
from .noise import NoiseModel, check_gm_condition

DEFAULT_TOL = 1e-12
# Iteration ceiling when no contraction certificate is available (forced
# static-only runs); certified solves derive a ceiling from K instead.
FALLBACK_MAX_ITER = 500
# find_fixed_points: residual samples on [x_1, x_n], and the root tolerance
# (bisection stops at ROOT_TOL / 1000, and roots within 10 * ROOT_TOL merge)
ROOT_SCAN_POINTS = 20_001
ROOT_TOL = 1e-10


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
        w = p * tail(s - x)
        num += w * x
        den += w
    if den <= 0.0:
        raise no_mass(f"no trade mass at price {s}")
    return num / den


def _no_convergence(max_iter, tol, price):
    """NoConvergence for a solve still moving at price after max_iter steps.
    The stop test |g(s) - s| <= tol is absolute, and g(s) rounds by a few
    float spacings of the price, so a tol under four spacings may never be
    met: at tol 1e-12 on states [x0, x0 + 1], x0 from 1e3 to 1e6, the
    solves failed for every x0 above about 3,300 (tol 2.2 spacings or
    fewer) and never where tol was 4.4 spacings. The message then names tol
    and the spacing."""
    steps = f"fixed-point iteration still moving after {max_iter} steps; "
    spacing = math.ulp(abs(price))
    if tol < 4.0 * spacing:
        return NoConvergence(
            f"{steps}fp_tol {tol:g} is absolute, and prices near {price:.10g} are "
            f"{spacing:.2g} apart as floats: raise fp_tol above a few such spacings"
        )
    return NoConvergence(f"{steps}a violated admissibility precondition is the usual cause")


def _side(noise, buy):
    """(tail, no_mass, sign, slope, secant): all a solve needs of one side
    of the book. The ask (buy) has the survival, ZeroBuyProbability and +1,
    the bid the cdf, ZeroSellProbability and -1; slope is the family's, and
    secant marks a continuous family without one: the family's step rule."""
    slope = noise.slope
    secant = slope is None and not noise.static_only
    if buy:
        return noise.survival, ZeroBuyProbability, 1.0, slope, secant
    return noise.cdf, ZeroSellProbability, -1.0, slope, secant


def _picard(side, xs, probs, start, tol, max_iter):
    """Solve s = g(s) from start on one side of the book, side being what
    _side returned for it: g is _conditional_mean on the side's tail (the
    noise's survival for the ask, its cdf for the bid).

    Each iteration evaluates g once, at s, and stops when |g(s) - s| <= tol
    by returning g(s); under a contraction with modulus K that price
    satisfies |g(price) - price| <= K * tol <= tol. Otherwise the next s is
    _newton's step on s - g(s) = 0, and the side's slope and secant flag
    pick the slope dg:

    - a slope (the family's density as a function of the tail value) gives
      g'(s) = -sign * sum_i (x_i - g) p_i slope(tail(s - x_i)) / den from
      the tails already taken: Newton steps;
    - the secant flag gives the secant slope
      (g(s) - g(s_prev)) / (s - s_prev) through the last two evaluations,
      nan on the first step and at s == s_prev: secant steps;
    - neither (a static-only family, whose map jumps so that no slope tells
      where the root lies) gives nan on every step: Picard steps, s = g(s).

    Returns (price, evaluations of g).
    """
    tail, no_mass, sign, slope, secant = side
    lo, hi = xs[0], xs[-1]
    s = start
    # no evaluation yet, so the first step is g(s); a static-only family's dg
    # stays nan
    s_prev = g_prev = dg = math.nan
    for i in range(1, max_iter + 1):
        if slope is None:
            g = _conditional_mean(s, xs, probs, tail, no_mass)
        else:
            g, den, terms = _conditional_mean_terms(s, xs, probs, tail, no_mass)
        if abs(g - s) <= tol:
            return g, i
        if slope is not None:
            dsum = 0.0
            for x, p, f in terms:
                dsum += (x - g) * (p * slope(f))
            dg = -sign * dsum / den
        elif secant:
            dg = (g - g_prev) / (s - s_prev) if s != s_prev else math.nan
            s_prev, g_prev = s, g
        s = _newton(s, g, dg, lo, hi)
    raise _no_convergence(max_iter, tol, s)


def _conditional_mean_terms(s, xs, probs, tail, no_mass):
    """_conditional_mean, bit for bit, with its denominator and the terms
    (x, p, tail(s - x)) of every state."""
    num = 0.0
    den = 0.0
    terms = []
    for x, p in zip(xs, probs):
        f = tail(s - x)
        w = p * f
        num += w * x
        den += w
        terms.append((x, p, f))
    if den <= 0.0:
        raise no_mass(f"no trade mass at price {s}")
    return num / den, den, terms


def _newton(s, g, dg, lo, hi):
    """The Newton step s - (s - g) / (1 - dg) on s - g(s) = 0, from s with
    g = g(s) and dg = g'(s) or an estimate of it; the Picard step g where
    1 - dg <= 0, dg is nan, or the Newton step leaves [lo, hi]."""
    d = 1.0 - dg
    if d > 0.0:
        step = s - (s - g) / d
        if lo <= step <= hi:
            return step
    return g


def _column_sum(m):
    """Sum each row of m over its columns (its second axis) in state order,
    starting from +0.0. This is the row form of the scalar loops'
    `total = 0.0; total += v`, and it equals them bit for bit."""
    total = 0.0 + m[:, 0]
    for i in range(1, m.shape[1]):
        total = total + m[:, i]
    return total


def _picard_rows(noise, xs, probs, sign, start, tol, max_iter, first=None):
    """_picard on every row of probs at once, for both sides of the book:
    one belief and one warm price per row, sign a column that is +1 on the
    ask rows (the survival tail, ZeroBuyProbability) and -1 on the bid rows
    (the cdf, ZeroSellProbability), and xs the grid values as an array.
    The tails come from the noise's side_tails_grid; first, when given, is
    the tails at start, which the first iterate then uses instead of
    evaluating them. Each row takes the step _picard takes for the family:
    Newton steps from its slope_grid, secant steps each with the row's own
    last two evaluations (the tails at start count as the first), or
    Picard steps.

    A row leaves the loop when |g(s) - s| <= tol, so each row takes exactly
    the iterates _picard would take alone. Returns the prices. Raises what
    solving all ask rows and then all bid rows would: an ask row's
    ZeroBuyProbability or NoConvergence first, and a bid row's
    ZeroSellProbability or NoConvergence only once every ask row has
    converged.
    """
    tails, slopes = noise.side_tails_grid, noise.slope_grid
    secant = slopes is None and not noise.static_only
    prices = np.array(start, dtype=float)
    rows = np.arange(len(prices))  # the rows still moving
    s = prices
    dg = math.nan  # a static-only family's, on every step
    if secant:  # each row's last evaluation (s, g), nan before the first
        s_prev = g_prev = np.full(len(prices), np.nan)
    lo, hi = xs[0], xs[-1]
    bid_error = None  # a bid row's zero mass, held until the ask rows finish
    for _ in range(max_iter):
        f = tails(s[:, None] - xs, sign) if first is None else first
        first = None
        weights = probs * f
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
            rows, s, f, num, den, probs, sign = (
                v[ask_rows] for v in (rows, s, f, num, den, probs, sign)
            )
            if secant:
                s_prev, g_prev = s_prev[ask_rows], g_prev[ask_rows]
        g = num / den
        done = np.abs(g - s) <= tol
        if done.all():
            if bid_error is not None:
                raise bid_error
            prices[rows] = g
            return prices
        if done.any():
            prices[rows[done]] = g[done]
            moving = ~done
            rows, s, g, f, den, probs, sign = (
                v[moving] for v in (rows, s, g, f, den, probs, sign)
            )
            if secant:
                s_prev, g_prev = s_prev[moving], g_prev[moving]
        # _newton on every row; an inf or nan step takes the Picard step
        with np.errstate(all="ignore"):
            if slopes is not None:
                dsum = _column_sum((xs - g[:, None]) * (probs * slopes(f)))
                dg = -sign[:, 0] * dsum / den
            elif secant:  # nan on a first step, and 0 / 0 where s == s_prev
                dg = (g - g_prev) / (s - s_prev)
                s_prev, g_prev = s, g
            d = 1.0 - dg
            step = s - (s - g) / d
        s = np.where((d > 0.0) & (lo <= step) & (step <= hi), step, g)
    raise _no_convergence(max_iter, tol, float(np.max(np.abs(s))))


def _iteration_ceiling(noise, grid, tol, force):
    """Admission check and iteration ceiling shared by every quote solve.

    Refuses static-only families and failed admissibility checks unless
    force=True. A certified contraction modulus K gives the steps until
    K^n * C falls below tol, plus slack for roundoff; a forced run gets
    FALLBACK_MAX_ITER.
    """
    check_number("tol", tol, "positive")
    if noise.static_only:
        if not force:
            raise ConditionFailed(
                f"{type(noise).__name__} is static-only; the fixed point may "
                "not be unique. Pass force=True (--force) to iterate anyway."
            )
        return FALLBACK_MAX_ITER
    report = check_gm_condition(noise, grid.width)
    if not report.passes:
        if not force:
            raise ConditionFailed(
                f"admissibility condition fails (K = {report.K:.6g} >= 1); "
                "pass force=True (--force) to iterate anyway"
            )
        return FALLBACK_MAX_ITER
    if report.K <= 0.0:
        return FALLBACK_MAX_ITER
    if grid.width <= tol:
        return 10
    return int(math.ceil(math.log(tol / grid.width) / math.log(report.K))) + 20


# --------------------------------------------------------------------------
# Public evaluation


def mean_given_buy(s: float, belief: Belief, grid: StateGrid, noise: NoiseModel) -> float:
    """g(s, pi): expected value given a customer buys at price s."""
    check_sizes(belief, grid)
    return float(_conditional_mean(s, grid.values, belief.probs, *_side(noise, True)[:2]))


def mean_given_sell(s: float, belief: Belief, grid: StateGrid, noise: NoiseModel) -> float:
    """h(s, pi): expected value given a customer sells at price s."""
    check_sizes(belief, grid)
    return float(_conditional_mean(s, grid.values, belief.probs, *_side(noise, False)[:2]))


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
    """Run the gate once, then one _picard solve per entry of sides (True
    for the ask, False for the bid); returns their (price, iterations)
    pairs."""
    check_sizes(belief, grid)
    if start is None:
        start = belief.mean(grid)
    check_number("start", start)
    max_iter = _iteration_ceiling(noise, grid, tol, force)
    xs = tuple(float(v) for v in grid.values)
    probs = [float(v) for v in belief.probs]
    return [_picard(_side(noise, buy), xs, probs, start, tol, max_iter) for buy in sides]


@dataclass(frozen=True)
class StaticQuotes:
    """Both zero-profit prices for one belief, with solver effort: each
    side's iterations count its evaluations of g (or h)."""

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
    tail, no_mass = _side(noise, buy_side)[:2]

    def residual(s):
        try:
            return s - _conditional_mean(s, xs, probs, tail, no_mass)
        except no_mass:
            return math.nan

    lo, hi = grid.x_min, grid.x_max
    step = (hi - lo) / (ROOT_SCAN_POINTS - 1)
    scale = max(1.0, abs(lo), abs(hi))
    roots: list[float] = []

    def push(candidate):
        if all(abs(r - candidate) > max(10 * ROOT_TOL, 1e-9 * scale) for r in roots):
            roots.append(candidate)

    prev_s, prev_r = lo, math.nan  # a nan residual brackets nothing: nan * r < 0 is False
    for i in range(ROOT_SCAN_POINTS):
        s = lo + i * step if i < ROOT_SCAN_POINTS - 1 else hi
        r = residual(s)
        if r == 0.0:
            push(s)
        elif prev_r * r < 0.0:
            a, b = prev_s, s
            ra = prev_r
            while b - a > 1e-3 * ROOT_TOL:
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
            if abs(residual(candidate)) <= 100.0 * (1e-3 * ROOT_TOL) * scale + 1e-13:
                push(candidate)
        prev_s, prev_r = s, r
    return sorted(roots)


# --------------------------------------------------------------------------
# Uniqueness constants


def contraction_constants(grid: StateGrid, noise: NoiseModel, lam: float) -> ContractionConstants:
    """Constants of the local-uniqueness estimate for quote paths.

    K is the contraction modulus of the price maps, L the Lipschitz constant
    of the static prices in the belief (L = 2 * max|x| / Phi(C)^2), M the
    density at 0, K1 = 12 * L * n * lam * M the drift-mismatch rate, and any
    two solutions of the filter/quote system started together agree on
    [0, t_star] with t_star = (1 - K) / (2 * K1).
    """
    check_number("lam", lam, "nonnegative")
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
