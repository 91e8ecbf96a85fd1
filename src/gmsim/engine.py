"""Event-driven simulator for the quoted market.

One path couples three independent random elements, each on its own
substream spawned from the path seed: the hidden value chain X (Gillespie),
a Poisson stream of customer arrivals, and one valuation noise draw per
arrival. The market maker never sees X or the arrivals themselves, only
executed trades. Its belief flows along the no-trade ODE between trades and
Bayes-jumps at each trade; quotes are always the zero-profit fixed points of
the belief just before the trade, so the posted prices are predictable.

An arrival at time tau with valuation X_tau + eps buys when the valuation
reaches the ask, sells when it falls to the bid, and otherwise leaves no
trace (the belief does not jump at a NoTrade arrival; arrivals are
invisible). Per-trade profit is recorded as price minus value on both sides
(ask - X for buys, bid - X for sells), the quantity that is a martingale
increment under correct quoting; the sell side's economic P&L is its
negation.

Two engines run these rules. simulate_gmps_path runs one path with the
scalar filter kernel and is the reference. An unsampled batch of
LOCKSTEP_MIN_PATHS paths or more runs in lockstep: each path is one numpy
row, and the rows take their RK4 steps together. Both engines take every
stop through one scalar method, _Path.stop (the arrival rules, the Bayes
jump and the re-solved quotes of a trade, and the bookkeeping), so path k
of a batch equals the solo run at offset k bit for bit. A sampled batch
runs path by path.

The stops are the arrivals and the horizon only. A sampled run takes the
same RK4 steps as an unsampled one, so sampling never moves a path's
events: a segment's steps leave a trail of their ends, and at its stop
_Path.flush reads the segment's sample rows off the trail as arrays.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beliefs import (
    DEFAULT_ODE_STEP, SimplexDiagnostics, _FilterKernel, _check_steps, hermite, segment,
)
from .core import MAX_EXPECTED_ARRIVALS, Belief, GeneratorMatrix, Quote, StateGrid, check_number
from .equilibrium import DEFAULT_TOL
from .errors import ConditionFailed, ConfigError, ZeroBuyProbability, ZeroSellProbability
from .noise import NoiseModel

log = logging.getLogger(__name__)


class Outcome(Enum):
    BUY = "buy"
    SELL = "sell"
    NO_TRADE = "no_trade"


@dataclass(frozen=True)
class MarketModel:
    """Static description of one market: value grid and chain, arrival rate,
    noise family, and the prior (which is also the law of X_0). A
    config.ScenarioConfig is one, with a horizon and run settings added."""

    grid: StateGrid
    generator: GeneratorMatrix
    arrival_rate: float
    noise: NoiseModel
    initial_belief: Belief

    def __post_init__(self):
        if self.generator.n != self.grid.n:
            raise ConfigError(
                f"generator is {self.generator.n}x{self.generator.n} "
                f"but the grid has {self.grid.n} states"
            )
        if self.initial_belief.n != self.grid.n:
            raise ConfigError("initial belief length does not match the grid")
        check_number("arrival_rate", self.arrival_rate, "nonnegative")


@dataclass(frozen=True)
class SimConfig:
    """Numerical knobs for one simulation run, refused with the messages a
    scenario file's ode_step and fp_tol get."""

    ode_step: float = DEFAULT_ODE_STEP
    fp_tol: float = DEFAULT_TOL
    sample_dt: float | None = None
    perturb_ask: float = 0.0  # fraction of the grid width added to every ask
    force: bool = False

    def __post_init__(self):
        check_number("ode_step", self.ode_step, "positive")
        check_number("fp_tol", self.fp_tol, "positive")
        if self.sample_dt is not None:
            check_number("sample_dt", self.sample_dt, "positive")
        check_number("perturb_ask", self.perturb_ask)


@dataclass(frozen=True)
class EventRecord:
    """One customer arrival, trade or not, with the filter state around it."""

    t: float
    x: float
    eps: float
    ask: float
    bid: float
    outcome: Outcome
    belief_before: np.ndarray
    belief_after: np.ndarray
    profit: float


@dataclass
class PathRecord:
    """Everything one simulated path produced."""

    horizon: float
    seed: int
    offset: int
    value_times: np.ndarray
    value_states: np.ndarray
    events: list[EventRecord]
    buy_profit: float
    sell_profit: float
    n_buys: int
    n_sells: int
    diagnostics: SimplexDiagnostics
    sample_times: np.ndarray | None = None
    sample_asks: np.ndarray | None = None
    sample_bids: np.ndarray | None = None
    sample_values: np.ndarray | None = None
    sample_beliefs: np.ndarray | None = None

    @property
    def n_trades(self) -> int:
        return self.n_buys + self.n_sells


# --------------------------------------------------------------------------
# Random elements


def _integer(value) -> int:
    """operator.index(value), with a bool refused as a float is."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def check_seed(seed: int) -> None:
    """The seed rule of scenario files, the CLI and the library's runs: an
    integer (a numpy integer too, a float or a bool never) in [0, 2**63)."""
    try:
        in_range = 0 <= _integer(seed) < 2**63
    except TypeError:
        in_range = False
    if not in_range:
        raise ConfigError("seed: must fit in 64 bits and be nonnegative")


def check_n_paths(n_paths: int) -> None:
    """The path-count rule of scenario files, the CLI and simulate_paths."""
    try:
        n_paths = _integer(n_paths)
    except TypeError:
        raise ConfigError(f"n_paths: expected an integer, got {n_paths!r}") from None
    if n_paths < 1:
        raise ConfigError(f"n_paths: must be at least 1, got {n_paths}")


def path_streams(seed: int, offset: int):
    """Three independent generators (value chain, arrivals, noise draws) for
    path `offset` of a run keyed by `seed`. Both must be nonnegative
    integers (numpy integers too, a float or a bool never); seed has no
    upper bound, as verify's intensity check keys its trials by seed + k."""
    try:
        seed, offset = _integer(seed), _integer(offset)
    except TypeError:
        raise ConfigError(
            f"seed and offset must be integers, got {seed!r} and {offset!r}"
        ) from None
    if seed < 0 or offset < 0:
        raise ConfigError(
            f"seed and offset must be nonnegative, got {seed} and {offset}"
        )
    children = np.random.SeedSequence(entropy=(seed, offset)).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


# ARRIVAL_CHUNK caps one draw of gaps; numpy's Generator draws the same
# gaps however they are chunked.
ARRIVAL_CHUNK = 1 << 16


def sample_value_path(
    q: GeneratorMatrix,
    initial: Belief,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Gillespie draw of the value chain on [0, horizon].

    Returns (times, states): right-continuous, times[0] = 0, states are grid
    indices. The state at t is states[searchsorted(times, t, 'right') - 1].
    Refuses a chain whose largest exit rate times horizon, which bounds its
    expected jump count, is above MAX_EXPECTED_ARRIVALS.
    """
    check_number("horizon", horizon, "positive")
    jumps = float(-q.rates.diagonal().min()) * horizon
    if not jumps <= MAX_EXPECTED_ARRIVALS:
        raise ConfigError(f"generator: largest exit rate * horizon = {jumps:g} expected jumps "
                          f"at most, above the {MAX_EXPECTED_ARRIVALS:g} that one path can hold")
    cum = np.cumsum(initial.probs)
    state = int(np.searchsorted(cum, rng.random(), side="right"))
    state = min(state, initial.n - 1)
    times = [0.0]
    states = [state]
    rates = q.rates
    t = 0.0
    while True:
        out_rate = -float(rates[state, state])
        if out_rate <= 0.0:
            break
        t += rng.exponential(1.0 / out_rate)
        if t >= horizon:
            break
        row = rates[state].copy()
        row[state] = 0.0
        cum_row = np.cumsum(row / out_rate)
        nxt = int(np.searchsorted(cum_row, rng.random(), side="right"))
        state = min(nxt, q.n - 1)
        times.append(t)
        states.append(state)
    return np.array(times), np.array(states, dtype=np.int64)


def value_at(times: np.ndarray, states: np.ndarray, t: float) -> int:
    """Index of the chain state at time t (right-continuous lookup)."""
    return int(states[np.searchsorted(times, t, side="right") - 1])


def sample_arrival_times(
    lam: float, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson arrival times on (0, horizon) via exponential gaps. Refuses
    an expected count lam * horizon above MAX_EXPECTED_ARRIVALS."""
    check_number("lam", lam, "nonnegative")
    check_number("horizon", horizon, "positive")
    if lam == 0.0:
        return np.empty(0)
    if not lam * horizon <= MAX_EXPECTED_ARRIVALS:
        raise ConfigError(f"lambda * horizon = {lam * horizon:g} expected arrivals, "
                          f"above the {MAX_EXPECTED_ARRIVALS:g} that one path can hold")
    out = []
    t = 0.0
    chunk = min(max(16, int(lam * horizon * 1.5)), ARRIVAL_CHUNK)
    while True:
        gaps = rng.exponential(1.0 / lam, size=chunk)
        for g in gaps:
            t += g
            if t >= horizon:
                return np.array(out)
            out.append(t)


# --------------------------------------------------------------------------
# Trade mechanics


def decide_trade(valuation: float, quote: Quote) -> Outcome:
    """Buy at or above the ask, sell at or below the bid, else nothing.
    The buy branch is checked first, so a degenerate ask == bid quote with a
    valuation exactly there counts as a buy."""
    if valuation >= quote.ask:
        return Outcome.BUY
    if valuation <= quote.bid:
        return Outcome.SELL
    return Outcome.NO_TRADE


def buy_intensity(quote: Quote, x: float, lam: float, noise: NoiseModel) -> float:
    """Instantaneous buy rate when the true value is x."""
    return lam * noise.survival(quote.ask - x)


def sell_intensity(quote: Quote, x: float, lam: float, noise: NoiseModel) -> float:
    """Instantaneous sell rate when the true value is x."""
    return lam * noise.cdf(quote.bid - x)


# --------------------------------------------------------------------------
# Path simulation


# a multiple of sample_dt within _SAMPLE_TOL * max(1, |t|) of a stop at t
# logs no row of its own
_SAMPLE_TOL = 1e-12


def _sample_times(arrivals, sample_dt, horizon):
    """The times of a path's sample rows in time order, an array: 0, each
    arrival (sorted, in [0, horizon]), the horizon, and each m * sample_dt
    in between, unless it lies within _SAMPLE_TOL * max(1, |t|) of the
    arrival or horizon t before or after it. The reference filter takes its
    checkpoints from this rule too; _start refuses a sample_dt whose grid no
    path can hold before a path calls it."""
    stops = np.concatenate(([0.0], arrivals, [horizon]))
    grid = np.arange(1, math.ceil(horizon / sample_dt) + 1) * sample_dt
    grid = grid[grid < horizon]
    tol = _SAMPLE_TOL * np.maximum(1.0, np.abs(stops))
    after = np.searchsorted(stops, grid)
    keep = (grid > (stops + tol)[after - 1]) & (grid < (stops - tol)[after])
    return np.insert(stops, after[keep], grid[keep])


class _Path:
    """One path's random elements, stops, record and sample rows, and the
    handling of its stops: stop() takes a stop, in both engines.

    The stops are the arrivals and the horizon, so the integrator's steps
    never depend on sample_dt. A sample row at a stop is the state after it;
    the solo engine reads the rows in between off the segment's trail, the
    step ends _FilterKernel.integrate left, at its stop (flush)."""

    def __init__(self, model, horizon, config, seed, offset, kernel, opening):
        value_rng, arrival_rng, noise_rng = path_streams(seed, offset)
        self.value_times, self.value_states = sample_value_path(
            model.generator, model.initial_belief, horizon, value_rng
        )
        arrivals = sample_arrival_times(model.arrival_rate, horizon, arrival_rng)
        self.eps_draws = model.noise.sample(noise_rng, len(arrivals))
        self.stops = iter([(float(tau), k) for k, tau in enumerate(arrivals)]
                          + [(horizon, None)])
        self.kernel = kernel
        self.x_of = model.grid.values
        self.perturb = config.perturb_ask * model.grid.width
        self.record = PathRecord(
            horizon=horizon, seed=seed, offset=offset, value_times=self.value_times,
            value_states=self.value_states, events=[], buy_profit=0.0,
            sell_profit=0.0, n_buys=0, n_sells=0, diagnostics=SimplexDiagnostics(),
        )
        self.events = []  # EventRecord fields, beliefs as lists
        self.rows = []  # (t, ask, bid, value, belief) of each kept sample row
        self.warned = False
        self.t_prev = 0.0
        self.pending = None
        self.sampled = config.sample_dt is not None
        if self.sampled:
            self.sample_times = _sample_times(arrivals, config.sample_dt, horizon)
            self.row(0.0, self.value(0.0), *opening)

    def value(self, t):
        """The chain's value at t."""
        return float(self.x_of[value_at(self.value_times, self.value_states, t)])

    def stop(self, probs, ask, bid):
        """Take the pending stop, reached with the belief probs (a list) and
        its solved quotes (ask, bid); returns the state after it. At an
        arrival: the arrival rules, and for a trade the Bayes jump and the
        quotes re-solved at the posterior, then the profit, the counters and
        the event. On a sampled path, the segment's sample rows, then the stop's."""
        t, k = self.pending
        x_val = self.value(t)
        if k is not None:
            perturb = self.perturb
            if bid > ask + perturb:
                if bid > ask:  # crossed as solved, whatever the perturbation
                    raise ConditionFailed(
                        f"crossed quotes at t={t}: the solved ask {ask} is below the bid {bid}"
                    )
                raise ConfigError("ask perturbation pushed the ask below the bid")
            quote = Quote(ask=ask + perturb, bid=bid)
            if quote.ask == quote.bid and not self.warned:
                log.warning("degenerate quote at t=%.6f: buy precedence applies", t)
                self.warned = True
            eps = float(self.eps_draws[k])
            outcome = decide_trade(x_val + eps, quote)
            before, profit = probs, 0.0
            if outcome is not Outcome.NO_TRADE:
                buy = outcome is Outcome.BUY
                price = quote.ask if buy else quote.bid
                probs = self.kernel.jump(probs, price, buy)
                ask, bid = self.kernel.quotes(probs, ask, bid)
                profit = price - x_val
                record = self.record
                if buy:
                    record.buy_profit += profit
                    record.n_buys += 1
                else:
                    record.sell_profit += profit
                    record.n_sells += 1
            self.events.append((t, x_val, eps, quote.ask, quote.bid, outcome, before,
                                probs, profit))
        if self.sampled:
            self.flush()
            self.row(t, x_val, probs, ask, bid)
        return probs, ask, bid

    def row(self, t, x_val, probs, ask, bid):
        """Keep the sample row of the state (probs, ask, bid) at t."""
        self.rows.append((t, ask + self.perturb, bid, x_val, list(probs)))

    def next_segment(self, ode_step):
        """Move on to the next stop. Returns the segment to it, (n_steps, h)
        as _FilterKernel.integrate steps it (one step of length 0 when the
        stop lies no time past the last one), and None after the last stop.
        On a sampled path, takes the segment's sample times, those strictly
        between the two stops, and opens a trail if there are any."""
        self.trail = None
        if self.pending is not None:
            self.t_prev = self.pending[0]
        self.pending = next(self.stops, None)
        if self.pending is None:
            return None
        t_prev, t_stop = self.t_prev, self.pending[0]
        self.n_steps, self.h = segment(t_stop - t_prev, ode_step)
        if self.sampled:
            times = self.sample_times
            self.held = times[np.searchsorted(times, t_prev, side="right"):
                              np.searchsorted(times, t_stop, side="left")]
            if self.held.size:
                self.trail = []
        return self.n_steps, self.h

    def flush(self):
        """Keep the segment's sample rows, read off its trail as arrays: each
        row's belief from the dense output of its step, its quotes from one
        quotes_rows call, warm-started on the line between the step's end
        quotes, and its value from one searchsorted. A failing solve raises
        a scalar solve's error type here, an ask row's before a bid row's.
        The rows feed no SimplexDiagnostics: they are not integrator steps."""
        if not self.trail:
            return
        times, t_prev, h = self.held, self.t_prev, self.h
        j = np.minimum(((times - t_prev) / h).astype(np.int64), self.n_steps - 1)
        s = (times - (t_prev + j * h)) / h
        beliefs, drifts, asks, bids = map(np.array, zip(*self.trail))
        probs = hermite(s, h, beliefs[j], drifts[j], beliefs[j + 1], drifts[j + 1])
        asks, bids = self.kernel.quotes_rows(probs, asks[j] + s * (asks[j + 1] - asks[j]),
                                             bids[j] + s * (bids[j + 1] - bids[j]))
        states = self.value_states[np.searchsorted(self.value_times, times, side="right") - 1]
        self.rows.extend(zip(times.tolist(), (asks + self.perturb).tolist(), bids.tolist(),
                             self.x_of[states].tolist(), probs))

    def finish(self) -> PathRecord:
        """The record, with its events and sample columns built only now:
        the lockstep engine finishes its paths one after another, so each
        path's objects lie together in memory, as a solo run's do."""
        record = self.record
        record.events = [
            EventRecord(t, x, eps, ask, bid, outcome, np.array(before), np.array(after),
                        profit)
            for t, x, eps, ask, bid, outcome, before, after, profit in self.events
        ]
        if self.sampled:
            (record.sample_times, record.sample_asks, record.sample_bids,
             record.sample_values, record.sample_beliefs) = map(np.array, zip(*self.rows))
        return record


# RK4 is stable on the negative real axis for h * rate up to about this
RK4_STABILITY_LIMIT = 2.785


def _blame_the_step(exc, model, ode_step):
    """For a zero-mass error met while integrating: raise its type again,
    naming the step, when ode_step times the largest exit rate of the value
    chain is beyond RK4's stability limit; otherwise return."""
    rate = float(-model.generator.rates.diagonal().min())
    if ode_step * rate > RK4_STABILITY_LIMIT:
        raise type(exc)(
            f"{exc}: ode_step {ode_step} times the largest exit rate {rate:g} is "
            f"{ode_step * rate:g}, beyond RK4's stability limit {RK4_STABILITY_LIMIT}; "
            f"the largest stable step is {RK4_STABILITY_LIMIT / rate:.4g}"
        ) from exc


def _start(model, horizon, config, seed):
    """Check a run's horizon, its RK4 step count, its sample row count and
    its seed, before anything is drawn; return the model's kernel and the
    opening filter state (prior, and its quotes solved from the prior mean)."""
    check_number("horizon", horizon, "positive")
    _check_steps("horizon", horizon, config.ode_step)
    rows = 0.0 if config.sample_dt is None else horizon / config.sample_dt
    if not rows <= MAX_EXPECTED_ARRIVALS:
        raise ConfigError(f"sample_dt: horizon / sample_dt = {rows:g} sample rows, "
                          f"above the {MAX_EXPECTED_ARRIVALS:g} that one path can hold")
    check_seed(seed)
    kernel = _FilterKernel(
        model.grid, model.noise, model.generator, model.arrival_rate,
        config.fp_tol, config.force,
    )
    probs = [float(v) for v in model.initial_belief.probs]
    mean0 = model.initial_belief.mean(model.grid)
    ask, bid = kernel.quotes(probs, mean0, mean0)
    return kernel, probs, ask, bid


def simulate_gmps_path(
    model: MarketModel,
    horizon: float,
    config: SimConfig = SimConfig(),
    seed: int = 0,
    offset: int = 0,
) -> PathRecord:
    """Simulate one path of the quoted market on [0, horizon].

    Deterministic in (model, horizon, config, seed, offset). The belief is
    driven only by observed trades; quotes are re-solved fixed points of the
    pre-trade belief, optionally shifted up by config.perturb_ask * width
    (the verification negative control). With config.sample_dt set, the
    filter state is recorded at 0, at every multiple of sample_dt, just after
    every arrival and at the horizon; a multiple of sample_dt within
    1e-12 * max(1, |t|) of an arrival or the horizon at t is left out. The
    RK4 steps run from stop to stop (the arrivals and the horizon) whether
    or not the path is sampled, so the events equal the unsampled run's bit
    for bit. A row between stops is read off the RK4 step around it: the
    cubic Hermite interpolant of the step's end beliefs and drifts, clamped
    and renormalised, with both quotes solved at that belief.
    seed must satisfy 0 <= seed < 2**63, as in a scenario file.
    """
    kernel, probs, ask, bid = _start(model, horizon, config, seed)
    path = _Path(model, horizon, config, seed, offset, kernel, (probs, ask, bid))
    while path.next_segment(config.ode_step) is not None:
        try:
            probs, ask, bid = kernel.integrate(
                probs, path.pending[0] - path.t_prev, ask, bid, config.ode_step,
                path.record.diagnostics, path.perturb, path.trail,
            )
        except (ZeroBuyProbability, ZeroSellProbability) as exc:
            _blame_the_step(exc, model, config.ode_step)
            raise
        probs, ask, bid = path.stop(probs, ask, bid)
    return path.finish()


def _simulate_lockstep(model, horizon, config, seed, n_paths):
    """simulate_paths with the paths advancing together; unsampled batches only.

    Each unfinished path is one row of a (probs, ask, bid) array with its
    own step h and remaining step count; a tick is one
    _FilterKernel.step_rows over every row, a segment of no time one step
    of length 0. After each tick, each row whose steps reached 0 takes its
    stop through the solo engine's scalar _Path.stop, and then its next
    segment; a row past its last stop leaves the batch. Every path equals
    its solo run bit for bit. A failing batch raises an error that one of
    its failing paths raises solo, where the solo runs one by one raise the
    lowest failing offset's: the same error whenever every failing path
    fails the same way.
    """
    kernel, probs0, ask0, bid0 = _start(model, horizon, config, seed)
    ode_step = config.ode_step
    paths = [_Path(model, horizon, config, seed, offset, kernel, (probs0, ask0, bid0))
             for offset in range(n_paths)]
    live = list(paths)
    probs = np.array([probs0] * n_paths)
    ask = np.full(n_paths, ask0)
    bid = np.full(n_paths, bid0)
    steps, h = map(np.array, zip(*(path.next_segment(ode_step) for path in paths)))
    sum_error = np.zeros(n_paths)
    low = np.zeros(n_paths)
    perturb = paths[0].perturb
    while live:
        try:
            probs, ask, bid, err, lo = kernel.step_rows(probs, ask, bid, h, perturb)
        except (ZeroBuyProbability, ZeroSellProbability) as exc:
            _blame_the_step(exc, model, ode_step)
            raise
        np.fmax(sum_error, err, out=sum_error)
        np.fmin(low, lo, out=low)
        steps -= 1
        for r in np.flatnonzero(steps == 0).tolist():
            path = live[r]
            probs[r], ask[r], bid[r] = path.stop(probs[r].tolist(), float(ask[r]), float(bid[r]))
            steps[r], h[r] = path.next_segment(ode_step) or (0, 0.0)
        done = steps == 0
        if done.any():
            for r in np.flatnonzero(done).tolist():
                live[r].record.diagnostics.absorb(float(sum_error[r]), float(low[r]))
            keep = ~done
            live = [path for path, kept in zip(live, keep) if kept]
            probs, ask, bid, steps, h, sum_error, low = (
                v[keep] for v in (probs, ask, bid, steps, h, sum_error, low)
            )
    return [path.finish() for path in paths]


# Unsampled batches of at least this many paths run the lockstep engine;
# below it, the per-row array overhead outweighs the shared work and the
# paths run one by one. Sampled batches always run one by one.
LOCKSTEP_MIN_PATHS = 32


def simulate_paths(
    model: MarketModel,
    horizon: float,
    config: SimConfig = SimConfig(),
    seed: int = 0,
    n_paths: int = 1,
) -> list[PathRecord]:
    """Simulate n_paths independent paths, offsets 0..n_paths-1.

    Path k equals simulate_gmps_path(..., offset=k) bit for bit; an
    unsampled batch of LOCKSTEP_MIN_PATHS paths or more advances in
    lockstep, and a sampled batch runs path by path.
    """
    check_n_paths(n_paths)
    if n_paths >= LOCKSTEP_MIN_PATHS and config.sample_dt is None:
        return _simulate_lockstep(model, horizon, config, seed, n_paths)
    return [
        simulate_gmps_path(model, horizon, config, seed=seed, offset=i)
        for i in range(n_paths)
    ]
