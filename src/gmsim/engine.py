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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .beliefs import SimplexDiagnostics, _FilterKernel
from .core import Belief, GeneratorMatrix, Quote, StateGrid
from .equilibrium import DEFAULT_TOL
from .errors import ConfigError
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

    ode_step: float = 1e-3
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


def path_streams(seed: int, offset: int):
    """Three independent generators (value chain, arrivals, noise draws) for
    path `offset` of a run keyed by `seed`. Both must be nonnegative."""
    if seed < 0 or offset < 0:
        raise ConfigError(
            f"seed and offset must be nonnegative, got {seed} and {offset}"
        )
    children = np.random.SeedSequence(entropy=(int(seed), int(offset))).spawn(3)
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
    filter state is recorded at every multiple of sample_dt and just after
    every arrival.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigError("horizon must be positive and finite")
    kernel = _FilterKernel(
        model.grid, model.noise, model.generator, model.arrival_rate,
        config.fp_tol, config.force,
    )

    value_rng, arrival_rng, noise_rng = path_streams(seed, offset)
    value_times, value_states = sample_value_path(
        model.generator, model.initial_belief, horizon, value_rng
    )
    arrivals = sample_arrival_times(model.arrival_rate, horizon, arrival_rng)
    eps_draws = model.noise.sample(noise_rng, len(arrivals))

    grid = model.grid
    x_of = grid.values
    perturb = config.perturb_ask * grid.width
    ode_step = config.ode_step
    diag = SimplexDiagnostics()

    probs = [float(v) for v in model.initial_belief.probs]
    mean0 = model.initial_belief.mean(grid)
    ask, bid = kernel.quotes(probs, mean0, mean0)

    sampling = config.sample_dt is not None
    samples: list[tuple] = []

    def record_sample(t):
        x_idx = value_at(value_times, value_states, t)
        samples.append((t, ask + perturb, bid, float(x_of[x_idx]), list(probs)))

    def advance_to(t_now, t_target):
        """Integrate the belief from t_now to t_target, stopping at sample
        grid points along the way."""
        nonlocal probs, ask, bid
        if not sampling:
            probs, ask, bid = kernel.integrate(
                probs, t_target - t_now, ask, bid, ode_step, diag, perturb
            )
            return
        dt_s = config.sample_dt
        tol_lo = 1e-12 * max(1.0, abs(t_now))
        tol_hi = 1e-12 * max(1.0, abs(t_target))
        k = math.floor(t_now / dt_s) + 1
        while k * dt_s <= t_now + tol_lo:
            k += 1
        t_cur = t_now
        while True:
            t_grid = k * dt_s
            if t_grid >= t_target - tol_hi:
                break
            probs, ask, bid = kernel.integrate(
                probs, t_grid - t_cur, ask, bid, ode_step, diag, perturb
            )
            t_cur = t_grid
            record_sample(t_grid)
            k += 1
        probs, ask, bid = kernel.integrate(
            probs, t_target - t_cur, ask, bid, ode_step, diag, perturb
        )

    if sampling:
        record_sample(0.0)

    events: list[EventRecord] = []
    buy_profit = 0.0
    sell_profit = 0.0
    n_buys = 0
    n_sells = 0
    warned_degenerate = False
    t_cur = 0.0

    for k, tau in enumerate(arrivals):
        advance_to(t_cur, float(tau))
        t_cur = float(tau)
        quote_ask = ask + perturb
        quote_bid = bid
        if quote_bid > quote_ask:
            raise ConfigError("ask perturbation pushed the ask below the bid")
        if quote_ask == quote_bid and not warned_degenerate:
            log.warning("degenerate quote at t=%.6f: buy precedence applies", tau)
            warned_degenerate = True
        x_idx = value_at(value_times, value_states, t_cur)
        x_val = float(x_of[x_idx])
        eps = float(eps_draws[k])
        valuation = x_val + eps
        quote = Quote(ask=quote_ask, bid=quote_bid)
        outcome = decide_trade(valuation, quote)
        belief_before = np.array(probs)
        profit = 0.0
        if outcome is Outcome.BUY:
            probs = kernel.jump(probs, quote_ask, True)
            profit = quote_ask - x_val
            buy_profit += profit
            n_buys += 1
        elif outcome is Outcome.SELL:
            probs = kernel.jump(probs, quote_bid, False)
            profit = quote_bid - x_val
            sell_profit += profit
            n_sells += 1
        if outcome is not Outcome.NO_TRADE:
            ask, bid = kernel.quotes(probs, ask, bid)
        events.append(
            EventRecord(
                t=t_cur,
                x=x_val,
                eps=eps,
                ask=quote_ask,
                bid=quote_bid,
                outcome=outcome,
                belief_before=belief_before,
                belief_after=np.array(probs),
                profit=profit,
            )
        )
        if sampling:
            record_sample(t_cur)

    advance_to(t_cur, horizon)
    if sampling:
        record_sample(horizon)

    record = PathRecord(
        horizon=horizon,
        seed=seed,
        offset=offset,
        value_times=value_times,
        value_states=value_states,
        events=events,
        buy_profit=buy_profit,
        sell_profit=sell_profit,
        n_buys=n_buys,
        n_sells=n_sells,
        diagnostics=diag,
    )
    if sampling:
        arr = np.array([s[0] for s in samples])
        record.sample_times = arr
        record.sample_asks = np.array([s[1] for s in samples])
        record.sample_bids = np.array([s[2] for s in samples])
        record.sample_values = np.array([s[3] for s in samples])
        record.sample_beliefs = np.array([s[4] for s in samples])
    return record


def simulate_paths(
    model: MarketModel,
    horizon: float,
    config: SimConfig = SimConfig(),
    seed: int = 0,
    n_paths: int = 1,
) -> list[PathRecord]:
    """Simulate n_paths independent paths, offsets 0..n_paths-1."""
    if n_paths < 1:
        raise ConfigError("n_paths must be at least 1")
    return [
        simulate_gmps_path(model, horizon, config, seed=seed, offset=i)
        for i in range(n_paths)
    ]
