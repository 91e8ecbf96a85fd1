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
scalar filter kernel and is the reference. A batch of LOCKSTEP_MIN_PATHS
paths or more runs in lockstep: each path is one numpy row, the rows take
their RK4 steps together, and the rows whose segment ends at an arrival
are jumped and re-solved together, as rows. Both engines take each stop
through the same _Path methods (decide for the arrival rules, note for the
bookkeeping), and path k of a batch equals the solo run at offset k bit for
bit.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .beliefs import DEFAULT_ODE_STEP, SimplexDiagnostics, _FilterKernel, segment
from .core import Belief, GeneratorMatrix, Quote, StateGrid
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
    noise family, and the prior (which is also the law of X_0)."""

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
        if not (self.arrival_rate >= 0.0 and math.isfinite(self.arrival_rate)):
            raise ConfigError("arrival rate must be nonnegative and finite")


@dataclass(frozen=True)
class SimConfig:
    """Numerical knobs for one simulation run."""

    ode_step: float = DEFAULT_ODE_STEP
    fp_tol: float = DEFAULT_TOL
    sample_dt: float | None = None
    perturb_ask: float = 0.0  # fraction of the grid width added to every ask
    force: bool = False

    def __post_init__(self):
        if not (self.ode_step > 0.0 and math.isfinite(self.ode_step)):
            raise ConfigError("ode_step must be positive and finite")
        if not (self.fp_tol > 0.0 and math.isfinite(self.fp_tol)):
            raise ConfigError("fp_tol must be positive and finite")
        if self.sample_dt is not None and not (
            self.sample_dt > 0.0 and math.isfinite(self.sample_dt)
        ):
            raise ConfigError("sample_dt must be positive when given")
        if not math.isfinite(self.perturb_ask):
            raise ConfigError("perturb_ask must be finite")


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

    def trade_profits(self, outcome: Outcome) -> np.ndarray:
        return np.array(
            [e.profit for e in self.events if e.outcome is outcome], dtype=float
        )


# --------------------------------------------------------------------------
# Random elements


def check_seed(seed: int) -> None:
    """The seed rule of scenario files, the CLI and the library's runs: an
    integer (a numpy integer too, a float never) in [0, 2**63)."""
    try:
        in_range = 0 <= operator.index(seed) < 2**63
    except TypeError:
        in_range = False
    if not in_range:
        raise ConfigError("seed: must fit in 64 bits and be nonnegative")


def check_n_paths(n_paths: int) -> None:
    """The path-count rule of scenario files, the CLI and simulate_paths."""
    try:
        n_paths = operator.index(n_paths)
    except TypeError:
        raise ConfigError(f"n_paths: expected an integer, got {n_paths!r}") from None
    if n_paths < 1:
        raise ConfigError(f"n_paths: must be at least 1, got {n_paths}")


def path_streams(seed: int, offset: int):
    """Three independent generators (value chain, arrivals, noise draws) for
    path `offset` of a run keyed by `seed`. Both must be nonnegative
    integers (numpy integers too, a float never); seed has no upper bound,
    as verify's intensity check keys its trials by seed + k."""
    try:
        seed, offset = operator.index(seed), operator.index(offset)
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


def sample_value_path(
    q: GeneratorMatrix,
    initial: Belief,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Gillespie draw of the value chain on [0, horizon].

    Returns (times, states): right-continuous, times[0] = 0, states are grid
    indices. The state at t is states[searchsorted(times, t, 'right') - 1].
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigError("horizon must be positive and finite")
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
    """Poisson arrival times on (0, horizon) via exponential gaps."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ConfigError("arrival rate must be nonnegative and finite")
    if lam == 0.0:
        return np.empty(0)
    out = []
    t = 0.0
    chunk = max(16, int(lam * horizon * 1.5))
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


def _stops(arrivals, sample_dt, horizon):
    """The stops of one path in time order: (t, k) at arrival k and (t, None)
    at a sample point or the horizon.

    Without sample_dt that is the arrivals and the horizon. With it, 0 comes
    first and each m * sample_dt in between is a sample point, unless it lies
    within 1e-12 * max(1, |t|) of the stop t before or after it.
    """
    if sample_dt is not None:
        yield 0.0, None
    t_prev = 0.0
    arrival_stops = [(float(tau), k) for k, tau in enumerate(arrivals)]
    for t, k in arrival_stops + [(horizon, None)]:
        if sample_dt is not None:
            m = math.floor(t_prev / sample_dt) + 1
            while m * sample_dt <= t_prev + 1e-12 * max(1.0, abs(t_prev)):
                m += 1
            while m * sample_dt < t - 1e-12 * max(1.0, abs(t)):
                yield m * sample_dt, None
                m += 1
        yield t, k
        t_prev = t


class _Arrival(NamedTuple):
    """An arrival as the arrival rules decide it: the posted quote, the
    noise draw, the outcome, and the price it trades at (None for a
    NoTrade)."""

    quote: Quote
    eps: float
    outcome: Outcome
    price: float | None


class _Path:
    """One path's random elements, stop schedule, record and sample rows,
    and the handling of its stops, shared by both engines: decide() holds
    the arrival rules and note() the bookkeeping, and between the two the
    engine jumps a traded belief and re-solves its quotes."""

    def __init__(self, model, horizon, config, seed, offset):
        value_rng, arrival_rng, noise_rng = path_streams(seed, offset)
        self.value_times, self.value_states = sample_value_path(
            model.generator, model.initial_belief, horizon, value_rng
        )
        arrivals = sample_arrival_times(model.arrival_rate, horizon, arrival_rng)
        self.eps_draws = model.noise.sample(noise_rng, len(arrivals))
        self.stops = _stops(arrivals, config.sample_dt, horizon)
        self.sampled = config.sample_dt is not None
        self.x_of = model.grid.values
        self.perturb = config.perturb_ask * model.grid.width
        self.record = PathRecord(
            horizon=horizon, seed=seed, offset=offset, value_times=self.value_times,
            value_states=self.value_states, events=[], buy_profit=0.0,
            sell_profit=0.0, n_buys=0, n_sells=0, diagnostics=SimplexDiagnostics(),
        )
        self.events = []  # EventRecord fields, beliefs as lists
        self.rows = []
        self.warned = False
        self.t_prev = 0.0
        self.pending = None

    def decide(self, t, k, ask, bid):
        """The arrival rules at stop (t, k), reached with the solved quotes
        (ask, bid): returns the chain's value at t and, if k is an arrival,
        its _Arrival (None at any other stop)."""
        x_val = float(self.x_of[value_at(self.value_times, self.value_states, t)])
        if k is None:
            return x_val, None
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
        price = None
        if outcome is Outcome.BUY:
            price = quote.ask
        elif outcome is Outcome.SELL:
            price = quote.bid
        return x_val, _Arrival(quote, eps, outcome, price)

    def note(self, t, x_val, arrival, before, probs, ask, bid):
        """Book stop t after decide(): the arrival's profit and event, with
        the beliefs before and after it, and, on a sampled path, the sample
        row of the state (probs, ask, bid) after the stop."""
        if arrival is not None:
            record = self.record
            profit = 0.0 if arrival.price is None else arrival.price - x_val
            if arrival.outcome is Outcome.BUY:
                record.buy_profit += profit
                record.n_buys += 1
            elif arrival.outcome is Outcome.SELL:
                record.sell_profit += profit
                record.n_sells += 1
            quote = arrival.quote
            self.events.append((t, x_val, arrival.eps, quote.ask, quote.bid,
                                arrival.outcome, before, probs, profit))
        if self.sampled:
            self.rows.append((t, ask + self.perturb, bid, x_val, list(probs)))

    def next_segment(self, ode_step):
        """Move on to the next stop. Returns the segment to it, (n_steps, h)
        as _FilterKernel.integrate steps it; n_steps = 0 when the stop lies
        no time past the last one, and None after the last stop."""
        if self.pending is not None:
            self.t_prev = self.pending[0]
        self.pending = next(self.stops, None)
        if self.pending is None:
            return None
        dt = self.pending[0] - self.t_prev
        return segment(dt, ode_step) if dt > 0.0 else (0, 0.0)

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
    """Check a run's horizon and seed; return the model's kernel and the
    opening filter state (prior, and its quotes solved from the prior mean)."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigError("horizon must be positive and finite")
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
    1e-12 * max(1, |t|) of an arrival or the horizon at t is left out.
    seed must satisfy 0 <= seed < 2**63, as in a scenario file.
    """
    kernel, probs, ask, bid = _start(model, horizon, config, seed)
    path = _Path(model, horizon, config, seed, offset)
    t_prev = 0.0
    for t, k in path.stops:
        try:
            probs, ask, bid = kernel.integrate(
                probs, t - t_prev, ask, bid, config.ode_step, path.record.diagnostics,
                path.perturb,
            )
        except (ZeroBuyProbability, ZeroSellProbability) as exc:
            _blame_the_step(exc, model, config.ode_step)
            raise
        t_prev = t
        x_val, arrival = path.decide(t, k, ask, bid)
        before = probs
        if arrival is not None and arrival.price is not None:
            probs = kernel.jump(probs, arrival.price, arrival.outcome is Outcome.BUY)
            ask, bid = kernel.quotes(probs, ask, bid)
        path.note(t, x_val, arrival, before, probs, ask, bid)
    return path.finish()


def _take_stops(kernel, live, rows, probs, ask, bid):
    """Take the pending stop of every row in rows, the rows of probs, ask
    and bid that the paths in live hold: the arrival rules path by path,
    then one jump_rows and one quotes_rows over the rows that traded, then
    the bookkeeping path by path. Updates probs, ask and bid in place."""
    paths = [live[r] for r in rows.tolist()]
    decided = [path.decide(*path.pending, a, b)
               for path, a, b in zip(paths, ask[rows].tolist(), bid[rows].tolist())]
    before = probs[rows].tolist()
    traded = [i for i, (_, arrival) in enumerate(decided)
              if arrival is not None and arrival.price is not None]
    if traded:
        moved = rows[traded]
        arrivals = [decided[i][1] for i in traded]
        probs[moved] = kernel.jump_rows(
            probs[moved], np.array([a.price for a in arrivals]),
            np.array([a.outcome is Outcome.BUY for a in arrivals]),
        )
        ask[moved], bid[moved] = kernel.quotes_rows(probs[moved], ask[moved], bid[moved])
    for path, (x_val, arrival), prior, posterior, a, b in zip(
        paths, decided, before, probs[rows].tolist(), ask[rows].tolist(), bid[rows].tolist()
    ):
        path.note(path.pending[0], x_val, arrival, prior, posterior, a, b)


def _next_segments(live, rows, steps, h, ode_step):
    """Set steps and h of every row in rows to its path's next segment,
    steps 0 after the last stop. Returns the rows whose next stop lies no
    time ahead, which are due at once."""
    due = []
    for r in rows.tolist():
        segment = live[r].next_segment(ode_step)
        steps[r], h[r] = (0, 0.0) if segment is None else segment
        if segment is not None and segment[0] == 0:
            due.append(r)
    return np.array(due, dtype=np.int64)


def _simulate_lockstep(model, horizon, config, seed, n_paths):
    """simulate_paths with the paths advancing together.

    Each unfinished path is one row of a (probs, ask, bid) array with its
    own step h and remaining step count; a tick is one
    _FilterKernel.step_rows over every row. The rows whose segment ends
    take their stops together, as rows (_take_stops), and then their next
    segments. Every path equals its solo run bit for bit. A failing batch
    raises an error that one of its failing paths raises solo, where the
    solo runs one by one raise the lowest failing offset's: the same error
    whenever every failing path fails the same way.
    """
    kernel, probs0, ask0, bid0 = _start(model, horizon, config, seed)
    ode_step = config.ode_step
    paths = [_Path(model, horizon, config, seed, offset) for offset in range(n_paths)]
    live = list(paths)
    probs = np.array([probs0] * n_paths)
    ask = np.full(n_paths, ask0)
    bid = np.full(n_paths, bid0)
    steps = np.zeros(n_paths, dtype=np.int64)
    h = np.zeros(n_paths)
    sum_error = np.zeros(n_paths)
    low = np.zeros(n_paths)
    perturb = paths[0].perturb
    due = _next_segments(live, np.arange(n_paths), steps, h, ode_step)
    while True:
        while due.size:
            _take_stops(kernel, live, due, probs, ask, bid)
            due = _next_segments(live, due, steps, h, ode_step)
        done = steps == 0
        if done.any():
            for r in np.flatnonzero(done).tolist():
                live[r].record.diagnostics.absorb(float(sum_error[r]), float(low[r]))
            keep = ~done
            live = [path for path, kept in zip(live, keep) if kept]
            probs, ask, bid, steps, h, sum_error, low = (
                v[keep] for v in (probs, ask, bid, steps, h, sum_error, low)
            )
        if not live:
            return [path.finish() for path in paths]
        try:
            probs, ask, bid, err, lo = kernel.step_rows(probs, ask, bid, h, perturb)
            steps -= 1
            due = np.flatnonzero(steps == 0)
            if due.size and not kernel.lam > 0.0:  # integrate() solves once, at the end
                ask[due], bid[due] = kernel.quotes_rows(probs[due], ask[due], bid[due])
        except (ZeroBuyProbability, ZeroSellProbability) as exc:
            _blame_the_step(exc, model, ode_step)
            raise
        np.fmax(sum_error, err, out=sum_error)
        np.fmin(low, lo, out=low)


# Batches of at least this many paths run the lockstep engine; below it,
# the per-row array overhead outweighs the shared work and the paths run
# one by one.
LOCKSTEP_MIN_PATHS = 32


def simulate_paths(
    model: MarketModel,
    horizon: float,
    config: SimConfig = SimConfig(),
    seed: int = 0,
    n_paths: int = 1,
) -> list[PathRecord]:
    """Simulate n_paths independent paths, offsets 0..n_paths-1.

    Path k equals simulate_gmps_path(..., offset=k) bit for bit; from
    LOCKSTEP_MIN_PATHS paths on, the batch advances in lockstep.
    """
    check_n_paths(n_paths)
    if n_paths >= LOCKSTEP_MIN_PATHS:
        return _simulate_lockstep(model, horizon, config, seed, n_paths)
    return [
        simulate_gmps_path(model, horizon, config, seed=seed, offset=i)
        for i in range(n_paths)
    ]
