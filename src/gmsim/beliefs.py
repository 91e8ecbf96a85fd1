"""Market maker's belief dynamics.

The belief pi_t = P[X_t = x_i | trades so far] moves in two ways. A trade is
a Bayes update: a buy at the ask reweights by Phi(ask - x_i), a sell at the
bid by Psi(bid - x_i). Between trades the belief drifts continuously, both
because the hidden chain moves (forward Kolmogorov term) and because not
trading is itself informative (the lambda term):

    dpi_i/dt = -lam * pi_i * a_i + lam * pi_i * sum_j pi_j a_j
               + sum_j pi_j q(j, i),
    a_i = Psi(bid - x_i) + Phi(ask - x_i),

where the quotes are the zero-profit fixed points at the current belief.
integrate_between_events advances that ODE with classical fixed-step RK4,
re-solving both fixed points at every stage evaluation (warm-started from
the previous stage). After each full step, negative roundoff is clamped and
the vector renormalized; the pre-clamp deviations are tracked so a caller
can prove they stayed at roundoff scale. The kernel's integrate can leave
a trail of a segment's step ends (belief, drift, quotes); the solo engine
reads a segment's sample rows off it at once with hermite, RK4's dense
output as rows, so observing the belief between trades never changes the
steps that move it.

All of this arithmetic lives in one private per-model kernel: the public
functions here build it once per call, the engine once per path or batch.
Building it runs the admissibility gate once and binds each side of the
book once (equilibrium._side), with the step its family picks: Newton
steps for the logistic and Laplace families, secant steps for the
Gaussian, Picard steps for a forced static-only family. Its *_rows methods
do the RK4 steps and their quote solves on many beliefs at once, one numpy
row each, in the same operation order (each sum over the states a
_column_sum), so a row equals the scalar result bit for bit; a trade's jump
and re-solve stay scalar in both engines. They take both sides of the book
as one array, the ask rows stacked over the bid rows: a drift evaluates the
tails at (ask, bid) once, the quote solve that follows it starts from those
quotes and, without an ask shift, reuses those tails (and the slopes they
give) as its first iterate, and the two sides share one row solve loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Belief, GeneratorMatrix, Quote, StateGrid, check_count, check_number, check_sizes,
)
from .equilibrium import (
    DEFAULT_TOL,
    _column_sum,
    _iteration_ceiling,
    _picard,
    _picard_rows,
    _side,
    solve_static_quotes,
)
from .errors import ZeroBuyProbability, ZeroSellProbability
from .noise import NoiseModel

DEFAULT_ODE_STEP = 1e-3


@dataclass(frozen=True)
class FilterState:
    """Belief at a point in time, with the zero-profit quotes solved for it."""

    belief: Belief
    time: float
    ask: float
    bid: float

    @property
    def quote(self) -> Quote:
        return Quote(ask=self.ask, bid=self.bid)


@dataclass
class SimplexDiagnostics:
    """Worst pre-clamp excursions seen while integrating: how far the raw
    RK4 output strayed from the simplex before the clamp/renormalize."""

    max_sum_error: float = 0.0
    min_component: float = 0.0

    def absorb(self, sum_error: float, min_component: float) -> None:
        if sum_error > self.max_sum_error:
            self.max_sum_error = sum_error
        if min_component < self.min_component:
            self.min_component = min_component


def segment(dt, ode_step):
    """(n_steps, h) for dt >= 0 of trade-free time, in both engines: the
    fewest equal RK4 steps h = dt / n_steps no longer than ode_step, at
    least one, so dt = 0 gives one step of length 0."""
    n_steps = max(1, math.ceil(dt / ode_step))
    return n_steps, dt / n_steps


def _clamp(p):
    """p with its negative entries set to 0, and its sum: both engines' clamp."""
    p = [v if v > 0.0 else 0.0 for v in p]
    return p, sum(p)


def _onto_simplex(p):
    """p with negative entries clamped to 0 and renormalised, with what
    SimplexDiagnostics.absorb takes of p as it came: the distance of its
    sum from 1 and its least entry."""
    total = 0.0
    low = p[0]
    for v in p:
        total += v
        if v < low:
            low = v
    sum_error = abs(total - 1.0)
    if low < 0.0:
        p, total = _clamp(p)
    return [v / total for v in p], sum_error, low


def _onto_simplex_rows(p):
    """_onto_simplex for every row of p, bit for bit."""
    total = _column_sum(p)
    low = p.min(axis=1)
    sum_error = np.abs(total - 1.0)
    for r in np.flatnonzero(low < 0.0).tolist():
        p[r], total[r] = _clamp(p[r].tolist())
    return p / total[:, None], sum_error, low


def hermite(s, h, p0, k0, p1, k1):
    """The beliefs at fractions s (an array) of RK4 steps of length h, row r
    within the step from p0[r] to p1[r] with drifts k0[r] at p0[r] and k1[r]
    at p1[r]: the cubic Hermite interpolant of the step's end points (RK4's
    dense output), clamped and renormalised as a step's end is."""
    s2 = s * s
    s3 = s2 * s
    c1 = 3.0 * s2 - 2.0 * s3
    c0 = 1.0 - c1
    d0 = h * (s3 - 2.0 * s2 + s)
    d1 = h * (s3 - s2)
    return _onto_simplex_rows(
        c0[:, None] * p0 + d0[:, None] * k0 + c1[:, None] * p1 + d1[:, None] * k1
    )[0]


# --------------------------------------------------------------------------
# The per-model kernel (hot path; no validation)


class _FilterKernel:
    """Quote and filter arithmetic for one model, built once and reused.

    Holds the grid values, the generator's columns, the arrival rate, the
    noise (the row solves take it whole) and both sides of the book, bound
    once here by _side: the scalar quote solves take them whole, and jump
    and the drifts their tails. Given fp_tol it also runs the admissibility
    gate once and keeps the iteration ceiling, so that quotes() can solve;
    without fp_tol it only jumps and drifts, which need no certificate.
    Beliefs are plain sequences of floats, and nothing is validated here.
    """

    def __init__(self, grid, noise, generator=None, lam=0.0, fp_tol=None, force=False):
        if fp_tol is not None:
            self.max_iter = _iteration_ceiling(noise, grid, fp_tol, force)
        self.fp_tol = fp_tol
        self.xs = tuple(float(v) for v in grid.values)
        self.xs_row = np.array(self.xs)
        if generator is not None:
            rates, n = generator.rates, generator.n
            # each column's nonzero (j, q_ji) in state order: a zero term adds
            # +-0.0, which leaves a sum started at +0.0 as it was
            self.q_cols = tuple(
                tuple((j, float(rates[j, i])) for j in range(n) if rates[j, i] != 0.0)
                for i in range(n)
            )
            self.q_rows = np.array(rates, dtype=float)
        self.lam = lam
        self.noise = noise
        self.ask_side = _side(noise, True)
        self.bid_side = _side(noise, False)
        self.survival = self.ask_side[0]
        self.cdf = self.bid_side[0]
        self.side_tails_grid = noise.side_tails_grid

    def quotes(self, probs, ask, bid):
        """Both zero-profit quotes at probs, warm-started from ask and bid."""
        xs, tol, max_iter = self.xs, self.fp_tol, self.max_iter
        ask, _ = _picard(self.ask_side, xs, probs, ask, tol, max_iter)
        bid, _ = _picard(self.bid_side, xs, probs, bid, tol, max_iter)
        return ask, bid

    def jump(self, probs, price, buy):
        """Posterior after a buy at the ask price (buy=True) or a sell at the
        bid price."""
        tail = self.survival if buy else self.cdf
        weights = []
        total = 0.0
        for x, p in zip(self.xs, probs):
            w = p * tail(price - x)
            weights.append(w)
            total += w
        if total <= 0.0:
            if buy:
                raise ZeroBuyProbability(f"buy at {price} has zero probability")
            raise ZeroSellProbability(f"sell at {price} has zero probability")
        return [w / total for w in weights]

    def drift(self, probs, ask, bid):
        """Right-hand side of the no-trade filter ODE at the given quotes."""
        lam = self.lam
        a = [self.cdf(bid - x) + self.survival(ask - x) for x in self.xs]
        a_bar = 0.0
        for p, ai in zip(probs, a):
            a_bar += p * ai
        out = []
        for pi, ai, col in zip(probs, a, self.q_cols):
            kol = 0.0
            for j, qji in col:
                kol += probs[j] * qji
            out.append(lam * pi * (a_bar - ai) + kol)
        return out

    def integrate(self, probs, dt, ask, bid, ode_step, diag, ask_shift=0.0, trail=None):
        """Advance the filter ODE by dt >= 0 in segment(dt, ode_step)'s
        steps, one step of length 0 when dt = 0. probs is consumed and a new
        list is returned along with the fixed-point quotes at the terminal
        belief. ask/bid must be the fixed points at the initial belief.
        ask_shift is added to the ask inside the drift only (a maker posting
        off-equilibrium asks still conditions on the prices actually
        quoted); the solved and returned quotes stay unshifted.

        trail, when given, is a list that gets (belief, drift, ask, bid) at
        the segment's start and after each step: the clamped belief, the
        drift at it and the quotes solved there. Each step-end drift is the
        next step's first; only the last step's is extra, and only with a
        trail."""
        n_steps, h = segment(dt, ode_step)
        n = len(probs)
        p = probs
        drift, quotes = self.drift, self.quotes
        sixth = h / 6.0
        steps = (0.5 * h, 0.5 * h, h)
        k1 = drift(p, ask + ask_shift, bid)
        if trail is not None:
            trail.append((p, k1, ask, bid))
        for j in range(n_steps):
            k = k1
            ks = []
            for step in steps:
                stage = [p[i] + step * k[i] for i in range(n)]
                ask, bid = quotes(stage, ask, bid)
                k = drift(stage, ask + ask_shift, bid)
                ks.append(k)
            k2, k3, k4 = ks
            p = [p[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)]

            p, sum_error, low = _onto_simplex(p)
            diag.absorb(sum_error, low)

            ask, bid = quotes(p, ask, bid)
            if j + 1 < n_steps or trail is not None:
                k1 = drift(p, ask + ask_shift, bid)
                if trail is not None:
                    trail.append((p, k1, ask, bid))
        return p, ask, bid

    # The same arithmetic on a batch: probs is an (rows, n) array, ask, bid
    # and h are arrays with one entry per row. Both sides of the book go
    # through one array as stacked rows, the ask rows first, each row with
    # its side's tail: survival(ask - x) on an ask row, cdf(bid - x) on a
    # bid row.

    def quotes_rows(self, probs, ask, bid, tails=None):
        """quotes() for every row, the ask and bid rows in one solve loop;
        tails, when given, are the stacked tails at (ask, bid) that
        drift_rows returns, which the first iterate then reuses."""
        n = len(ask)
        prices = _picard_rows(
            self.noise, self.xs_row, np.concatenate((probs, probs)), _signs(n, n),
            np.concatenate((ask, bid)), self.fp_tol, self.max_iter, tails,
        )
        return prices[:n], prices[n:]

    def drift_rows(self, probs, ask, bid):
        """drift() for every row, with the stacked tails at (ask, bid) it
        used."""
        kol = _column_sum(probs[:, :, None] * self.q_rows)
        n = len(probs)
        tails = self.side_tails_grid(np.concatenate((ask, bid))[:, None] - self.xs_row,
                                     _signs(n, n))
        a = tails[n:] + tails[:n]
        a_bar = _column_sum(probs * a)
        return self.lam * probs * (a_bar[:, None] - a) + kol, tails

    def step_rows(self, probs, ask, bid, h, ask_shift=0.0):
        """One RK4 step of integrate() for every row, row r with step h[r],
        including the clamp and renormalisation and the quotes at the new
        belief. Returns (probs, ask, bid, sum_error, low): sum_error and low
        are what integrate() hands SimplexDiagnostics.absorb. Each quote
        solve starts from the quotes the drift before it saw, so without an
        ask shift it reuses that drift's tails."""
        drift, quotes = self.drift_rows, self.quotes_rows
        reuse = ask_shift == 0.0
        half = 0.5 * h
        k1, tails = drift(probs, ask + ask_shift, bid)
        k = k1
        ks = []
        for step in (half, half, h):
            stage = probs + step[:, None] * k
            ask, bid = quotes(stage, ask, bid, tails if reuse else None)
            k, tails = drift(stage, ask + ask_shift, bid)
            ks.append(k)
        k2, k3, k4 = ks

        p = probs + (h / 6.0)[:, None] * (k1 + 2.0 * (k2 + k3) + k4)
        p, sum_error, low = _onto_simplex_rows(p)

        ask, bid = quotes(p, ask, bid, tails if reuse else None)
        return p, ask, bid, sum_error, low


def _signs(n_ask, n_bid):
    """The sign column of n_ask ask rows stacked over n_bid bid rows."""
    return np.repeat((1.0, -1.0), (n_ask, n_bid))[:, None]


# --------------------------------------------------------------------------
# Public API


def buy_jump(belief: Belief, ask: float, grid: StateGrid, noise: NoiseModel) -> Belief:
    """Posterior after observing a buy at the ask."""
    check_sizes(belief, grid)
    return Belief(_FilterKernel(grid, noise).jump(belief.probs, ask, True))


def sell_jump(belief: Belief, bid: float, grid: StateGrid, noise: NoiseModel) -> Belief:
    """Posterior after observing a sell at the bid."""
    check_sizes(belief, grid)
    return Belief(_FilterKernel(grid, noise).jump(belief.probs, bid, False))


def belief_drift(
    belief: Belief,
    quote: Quote,
    lam: float,
    q: GeneratorMatrix,
    grid: StateGrid,
    noise: NoiseModel,
) -> list[float]:
    """Right-hand side of the no-trade filter ODE at the given quotes."""
    check_sizes(belief, grid, q)
    check_number("lam", lam, "nonnegative")
    return _FilterKernel(grid, noise, q, lam).drift(
        [float(v) for v in belief.probs], float(quote.ask), float(quote.bid)
    )


def make_filter_state(
    belief: Belief,
    grid: StateGrid,
    noise: NoiseModel,
    time: float = 0.0,
    fp_tol: float = DEFAULT_TOL,
    force: bool = False,
) -> FilterState:
    """Solve both quotes for a belief and bundle them as a FilterState."""
    quotes = solve_static_quotes(belief, grid, noise, tol=fp_tol, force=force)
    return FilterState(belief=belief, time=time, ask=quotes.ask, bid=quotes.bid)


def integrate_between_events(
    state: FilterState,
    dt: float,
    lam: float,
    q: GeneratorMatrix,
    grid: StateGrid,
    noise: NoiseModel,
    ode_step: float = DEFAULT_ODE_STEP,
    fp_tol: float = DEFAULT_TOL,
    force: bool = False,
    diagnostics: SimplexDiagnostics | None = None,
) -> FilterState:
    """Advance a FilterState through dt units of trade-free time.

    Steps are fixed at ode_step (the final partial step is shorter); both
    fixed points are re-solved at every RK4 stage, warm-started from the
    previous stage, and the returned state carries the quotes at the
    terminal belief. Pass a SimplexDiagnostics to accumulate the pre-clamp
    simplex deviations across calls.
    """
    check_number("dt", dt, "nonnegative")
    if dt == 0.0:
        return state
    check_number("ode_step", ode_step, "positive")
    check_count("ode_step: dt / ode_step", dt / ode_step, "RK4 steps")
    check_sizes(state.belief, grid, q)
    check_number("lam", lam, "nonnegative")
    kernel = _FilterKernel(grid, noise, q, lam, fp_tol, force)
    diag = diagnostics if diagnostics is not None else SimplexDiagnostics()
    probs, ask, bid = kernel.integrate(
        [float(v) for v in state.belief.probs], dt, float(state.ask),
        float(state.bid), ode_step, diag,
    )
    return FilterState(belief=Belief(probs), time=state.time + dt, ask=ask, bid=bid)
