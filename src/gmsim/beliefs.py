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
can prove they stayed at roundoff scale.

All of this arithmetic lives in one private per-model kernel: the public
functions here build it once per call, the engine once per path or batch.
Building it runs the admissibility gate once, and its quote solves go
through the equilibrium module's Picard loops. Its *_rows methods do the
same arithmetic on many beliefs at once, one numpy row each, in the same
operation order (each sum over the states a _column_sum), so a row equals
the scalar result bit for bit. They take both sides of the book as one
array, the ask rows stacked over the bid rows: a drift evaluates the tails
at (ask, bid) once, the quote solve that follows it starts from those
quotes and, without an ask shift, reuses those tails as its first
iterate, and the two sides share one row Picard loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Belief, GeneratorMatrix, Quote, StateGrid, check_sizes
from .equilibrium import (
    DEFAULT_TOL,
    _column_sum,
    _iteration_ceiling,
    _picard,
    _picard_rows,
    solve_static_quotes,
)
from .errors import ConfigError, ZeroBuyProbability, ZeroSellProbability
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

    def merge(self, other: "SimplexDiagnostics") -> None:
        self.absorb(other.max_sum_error, other.min_component)


def segment(dt, ode_step):
    """(n_steps, h) for dt > 0 of trade-free time, in both engines: the
    fewest equal RK4 steps h = dt / n_steps no longer than ode_step."""
    n_steps = max(1, math.ceil(dt / ode_step))
    return n_steps, dt / n_steps


# --------------------------------------------------------------------------
# The per-model kernel (hot path; no validation)


class _FilterKernel:
    """Quote and filter arithmetic for one model, built once and reused.

    Holds the grid values, the generator's columns, the arrival rate and
    the noise tails. Given fp_tol it also runs the admissibility gate once
    and keeps the Picard iteration ceiling, so that quotes() can solve;
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
            self.q_cols = tuple(
                tuple(float(rates[j, i]) for j in range(n)) for i in range(n)
            )
            self.q_rows = np.array(rates, dtype=float)
        self.lam = lam
        self.survival = noise.survival
        self.cdf = noise.cdf
        self.side_tails_grid = noise.side_tails_grid

    def quotes(self, probs, ask, bid):
        """Both zero-profit quotes at probs, warm-started from ask and bid."""
        xs, tol, max_iter = self.xs, self.fp_tol, self.max_iter
        ask, _ = _picard(self.survival, ZeroBuyProbability, xs, probs, ask, tol, max_iter)
        bid, _ = _picard(self.cdf, ZeroSellProbability, xs, probs, bid, tol, max_iter)
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
        n = len(probs)
        if lam > 0.0:
            a = [self.cdf(bid - x) + self.survival(ask - x) for x in self.xs]
            a_bar = 0.0
            for p, ai in zip(probs, a):
                a_bar += p * ai
        out = [0.0] * n
        for i in range(n):
            kol = 0.0
            col = self.q_cols[i]
            for j in range(n):
                pj = probs[j]
                if pj != 0.0:
                    kol += pj * col[j]
            if lam > 0.0:
                out[i] = lam * probs[i] * (a_bar - a[i]) + kol
            else:
                out[i] = kol
        return out

    def integrate(self, probs, dt, ask, bid, ode_step, diag, ask_shift=0.0):
        """Advance the filter ODE by dt. probs is consumed and a new list is
        returned along with the fixed-point quotes at the terminal belief.
        ask/bid must be the fixed points at the initial belief. ask_shift is
        added to the ask inside the drift only (a maker posting
        off-equilibrium asks still conditions on the prices actually
        quoted); the solved and returned quotes stay unshifted."""
        if dt <= 0.0:
            return probs, ask, bid
        n_steps, h = segment(dt, ode_step)
        n = len(probs)
        p = probs
        drift, quotes = self.drift, self.quotes
        informative = self.lam > 0.0  # with lam = 0 the quotes never enter the drift
        for _ in range(n_steps):
            k1 = drift(p, ask + ask_shift, bid)

            stage = [p[i] + 0.5 * h * k1[i] for i in range(n)]
            if informative:
                ask, bid = quotes(stage, ask, bid)
            k2 = drift(stage, ask + ask_shift, bid)

            stage = [p[i] + 0.5 * h * k2[i] for i in range(n)]
            if informative:
                ask, bid = quotes(stage, ask, bid)
            k3 = drift(stage, ask + ask_shift, bid)

            stage = [p[i] + h * k3[i] for i in range(n)]
            if informative:
                ask, bid = quotes(stage, ask, bid)
            k4 = drift(stage, ask + ask_shift, bid)

            sixth = h / 6.0
            p = [
                p[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                for i in range(n)
            ]

            total = 0.0
            low = p[0]
            for v in p:
                total += v
                if v < low:
                    low = v
            diag.absorb(abs(total - 1.0), low)
            if low < 0.0:
                p = [v if v > 0.0 else 0.0 for v in p]
                total = sum(p)
            p = [v / total for v in p]

            if informative:
                ask, bid = quotes(p, ask, bid)
        if not informative:
            ask, bid = quotes(p, ask, bid)
        return p, ask, bid

    # The same arithmetic on a batch: probs is an (rows, n) array, ask, bid
    # and h are arrays with one entry per row. Both sides of the book go
    # through one array as stacked rows, the ask rows first, each row with
    # its side's tail: survival(ask - x) on an ask row, cdf(bid - x) on a
    # bid row.

    def quotes_rows(self, probs, ask, bid, tails=None):
        """quotes() for every row, the ask and bid rows in one Picard loop;
        tails, when given, are the stacked tails at (ask, bid) that
        drift_rows returns, which the first iterate then reuses."""
        n = len(ask)
        prices = _picard_rows(
            self.side_tails_grid, self.xs_row, np.concatenate((probs, probs)),
            _signs(n, n), np.concatenate((ask, bid)), self.fp_tol, self.max_iter, tails,
        )
        return prices[:n], prices[n:]

    def jump_rows(self, probs, price, buy):
        """jump() for every row: row r a buy at price[r] where buy[r] is
        true, a sell at price[r] otherwise."""
        sign = np.where(buy, 1.0, -1.0)[:, None]
        weights = probs * self.side_tails_grid(price[:, None] - self.xs_row, sign)
        total = _column_sum(weights)
        empty = np.flatnonzero(total <= 0.0)
        if empty.size:
            r = empty[0]
            if buy[r]:
                raise ZeroBuyProbability(f"buy at {price[r]} has zero probability")
            raise ZeroSellProbability(f"sell at {price[r]} has zero probability")
        return weights / total[:, None]

    def drift_rows(self, probs, ask, bid):
        """drift() for every row, with the stacked tails at (ask, bid) it
        used (None without arrivals, where the quotes do not enter)."""
        kol = _column_sum(probs[:, :, None] * self.q_rows)
        if not self.lam > 0.0:
            return kol, None
        n = len(probs)
        tails = self.side_tails_grid(np.concatenate((ask, bid))[:, None] - self.xs_row,
                                     _signs(n, n))
        a = tails[n:] + tails[:n]
        a_bar = _column_sum(probs * a)
        return self.lam * probs * (a_bar[:, None] - a) + kol, tails

    def step_rows(self, probs, ask, bid, h, ask_shift=0.0):
        """One RK4 step of integrate() for every row, row r with step h[r],
        including the clamp and renormalisation and, with arrivals, the
        quotes at the new belief. Returns (probs, ask, bid, sum_error, low):
        the last two are what integrate() hands SimplexDiagnostics.absorb.
        Each quote solve starts from the quotes the drift before it saw, so
        without an ask shift it reuses that drift's tails."""
        drift, quotes = self.drift_rows, self.quotes_rows
        informative = self.lam > 0.0
        reuse = ask_shift == 0.0
        half = (0.5 * h)[:, None]
        k1, tails = drift(probs, ask + ask_shift, bid)

        stage = probs + half * k1
        if informative:
            ask, bid = quotes(stage, ask, bid, tails if reuse else None)
        k2, tails = drift(stage, ask + ask_shift, bid)

        stage = probs + half * k2
        if informative:
            ask, bid = quotes(stage, ask, bid, tails if reuse else None)
        k3, tails = drift(stage, ask + ask_shift, bid)

        stage = probs + h[:, None] * k3
        if informative:
            ask, bid = quotes(stage, ask, bid, tails if reuse else None)
        k4, tails = drift(stage, ask + ask_shift, bid)

        p = probs + (h / 6.0)[:, None] * (k1 + 2.0 * (k2 + k3) + k4)

        total = _column_sum(p)
        low = p.min(axis=1)
        sum_error = np.abs(total - 1.0)
        for r in np.flatnonzero(low < 0.0).tolist():  # integrate()'s clamp and sum()
            row = [v if v > 0.0 else 0.0 for v in p[r].tolist()]
            p[r] = row
            total[r] = sum(row)
        p = p / total[:, None]

        if informative:
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
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ConfigError("arrival rate must be nonnegative and finite")
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
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise ConfigError("dt must be nonnegative and finite")
    if dt == 0.0:
        return state
    if not (ode_step > 0.0 and math.isfinite(ode_step)):
        raise ConfigError("ode_step must be positive and finite")
    check_sizes(state.belief, grid, q)
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ConfigError("arrival rate must be nonnegative and finite")
    kernel = _FilterKernel(grid, noise, q, lam, fp_tol, force)
    diag = diagnostics if diagnostics is not None else SimplexDiagnostics()
    probs, ask, bid = kernel.integrate(
        [float(v) for v in state.belief.probs], dt, float(state.ask),
        float(state.bid), ode_step, diag,
    )
    return FilterState(belief=Belief(probs), time=state.time + dt, ask=ask, bid=bid)
