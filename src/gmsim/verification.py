"""Independent checks of the simulator's defining properties.

The reference filter here is deliberately a different algorithm from the
engine's integrator: a first-order split step that alternates the chain
transition (truncated-series matrix exponential) with the per-state no-trade
survival likelihood, applying exact Bayes updates at logged trade times. It
consumes only what the engine logged (event records and the sampled quote
path), never the engine's drift or ODE code, so agreement between the two is
evidence rather than tautology. It steps where a record sampled at its step
logs a row, by the engine's sample-row rule, and applies every logged trade.
The logged quotes do not depend on the replayed belief, so the no-trade
tails and factors of every sub-step, the transition matrices and the trade
likelihoods are arrays computed before the replay, each trade's likelihood
folded into the factor row of its checkpoint. The loop carries the
unnormalised belief, one chain step and one factor product per sub-step,
and the rows are normalised once at the end. compare_filters matches the
two paths' times and takes their L1 distances as arrays too.

The statistical checks quantify the model's defining properties on batches
of simulated paths: per-trade profit means on each side (zero under correct
quoting) and trade counts against their predicted Poisson law under frozen
quotes. The Poisson law is tested with Pearson chi-square, whose p-value
comes from the closed-form chi-square tail for integer degrees of freedom
(_chi2_sf), so the package needs no statistics library.

run_verify bundles the checks behind `gmsim verify`, with their pass/fail
policy, into one report.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ScenarioConfig
from .core import Quote, StateGrid, check_number
from .engine import (
    MAX_EXPECTED_ARRIVALS,
    MarketModel,
    Outcome,
    PathRecord,
    buy_intensity,
    path_streams,
    _SAMPLE_TOL,
    _sample_times,
    sample_arrival_times,
    sell_intensity,
    simulate_gmps_path,
    simulate_paths,
)
from .errors import ConfigError, GridMismatch, InsufficientData


# Taylor terms of the reference filter's matrix exponential
MATRIX_EXP_TERMS = 12
# two belief paths' times match when they lie this close together
TIME_TOL = 1e-9
# sub-steps whose no-trade factors the reference filter takes at once
REPLAY_BLOCK = 1024
# the reference filter renormalises its carried belief before a lower bound
# on the belief's mass falls below this
_MASS_FLOOR = 2.0**-600
# level of intensity_test's chi-square tests
INTENSITY_ALPHA = 0.01


@dataclass(frozen=True)
class OracleFilterConfig:
    """Discretization step of the reference filter."""

    h: float = 1e-3

    def __post_init__(self):
        check_number("h", self.h, "positive")


@dataclass(frozen=True)
class ZeroProfitReport:
    """Side-separated per-trade profit statistics pooled over paths.

    Standard errors treat each path as one cluster, since trades within a
    path share the same value trajectory and belief history.
    """

    n_paths: int
    n_buys: int
    n_sells: int
    buy_mean: float
    buy_se: float
    sell_mean: float
    sell_se: float
    z_buy: float
    z_sell: float
    passed: bool


@dataclass(frozen=True)
class GoodnessOfFit:
    """Chi-square comparison of observed counts against a Poisson law."""

    n_trials: int
    expected_rate: float
    chi2: float
    df: int
    p_value: float
    passed: bool


@dataclass(frozen=True)
class IntensityReport:
    buy: GoodnessOfFit
    sell: GoodnessOfFit

    @property
    def passed(self) -> bool:
        return self.buy.passed and self.sell.passed


@dataclass(frozen=True)
class FilterComparison:
    n_matched: int
    max_l1: float
    argmax_time: float


# --------------------------------------------------------------------------
# Reference filter


def transition_matrix(rates: np.ndarray, dt: float) -> np.ndarray:
    """exp(rates * dt) by scaling and squaring of a Taylor series truncated
    after MATRIX_EXP_TERMS terms: _transition_matrices of one length. dt
    must be finite and nonnegative."""
    check_number("dt", dt, "nonnegative")
    return _transition_matrices(rates, np.array([float(dt)]))[0]


def _transition_matrices(rates, dts):
    """transition_matrix(rates, dt) for every dt of the array dts, stacked
    (len(dts), n, n): each length with its own squaring count, the series
    of every length in one pass, and the squarings applied to the lengths
    that still need them. Each matrix equals a one-length call bit for
    bit."""
    b = np.asarray(rates, dtype=float) * dts[:, None, None]
    norms = np.max(np.sum(np.abs(b), axis=2), axis=1, initial=0.0)
    squarings = np.array([max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
                          for norm in norms.tolist()], dtype=int)
    b = b / (2.0**squarings)[:, None, None]
    acc = np.broadcast_to(np.eye(b.shape[1]), b.shape).copy()
    term = acc
    for k in range(1, MATRIX_EXP_TERMS + 1):
        term = term @ b / k
        acc = acc + term
    for j in range(int(squarings.max(initial=0))):
        more = squarings > j
        acc[more] = acc[more] @ acc[more]
    return acc


def oracle_filter(
    record: PathRecord,
    model: MarketModel,
    cfg: OracleFilterConfig = OracleFilterConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a logged path through the split-step reference filter.

    Returns (times, beliefs): the filter's state at the times a record
    sampled at cfg.h logs, one per time (engine._sample_times): 0, every
    logged event time (after its jumps), the horizon, and every multiple of
    cfg.h not within 1e-12 * max(1, |t|) of one of them. The no-trade
    likelihood over each sub-step uses the quote the engine logged at the
    sub-step's left endpoint, so the record must carry a sampled quote path
    at least as fine as cfg.h (a gap may exceed cfg.h by the sample-row
    rule's tolerance, where a row gave way to an event), and its events must
    lie in [0, horizon].

    Nothing but the recursion depends on the belief, so the rest is taken
    as arrays first: one factor row per checkpoint, each sub-step's no-trade
    factors exp(-lam * rate * dt) from one side_tails_grid call at its
    logged quote, the transition matrices of every distinct sub-step length
    in one stacked pass, and the likelihood weights of every logged trade,
    multiplied into the row of its checkpoint (row 0, the prior's, for a
    trade at 0). The loop then carries the unnormalised belief: the chain
    step and the factors, in place, renormalising only where the belief's
    mass could underflow. Every row is divided by its own sum once the loop
    is done; a trade whose row sums to zero raises GridMismatch.
    """
    if record.sample_times is None:
        raise GridMismatch("record carries no sampled quote path")
    logged_t = record.sample_times
    if len(logged_t) < 2:
        raise GridMismatch("sampled quote path has fewer than two points")
    n = model.grid.n
    if record.sample_beliefs.shape[1] != n:
        raise GridMismatch(
            f"record has {record.sample_beliefs.shape[1]} states, the model {n}"
        )
    spacing = float(np.max(np.diff(logged_t)))
    # a row that gives way to an event within the sample-row rule's
    # tolerance widens its gap by up to that much; the times are sorted, so
    # an end holds the largest |t|
    row_tol = _SAMPLE_TOL * max(1.0, abs(float(logged_t[0])), abs(float(logged_t[-1])))
    if spacing > cfg.h * (1.0 + 1e-9) + 1e-15 + row_tol:
        raise GridMismatch(
            f"logged quotes are spaced {spacing:.3e} apart, coarser than "
            f"the oracle step {cfg.h:.3e}"
        )

    horizon = record.horizon
    event_times = np.array([e.t for e in record.events])
    outside = event_times[~((event_times >= 0.0) & (event_times <= horizon))]
    if len(outside):
        raise GridMismatch(
            f"logged event at t={float(outside[0])!r} lies outside [0, {horizon!r}]"
        )
    checkpoints = np.unique(_sample_times(np.sort(event_times), cfg.h, horizon))
    starts = checkpoints[:-1]
    dts = np.diff(checkpoints)
    m = len(dts)

    xs = model.grid.values
    noise = model.noise
    lam = model.arrival_rate
    lengths, length_of = np.unique(dts, return_inverse=True)
    p_mats = _transition_matrices(model.generator.rates, lengths)
    chain = [p_mats[i] for i in length_of]

    # row k >= 1: exp(-lam * rate * dt) over the sub-step that ends at
    # checkpoint k, exactly 1.0 where lam = 0; row 0 belongs to the prior
    factors = np.ones((m + 1, n))
    # each sub-step's quote: the row its start logged, by the sample-row rule
    idx = np.searchsorted(logged_t, starts + _SAMPLE_TOL * np.maximum(1.0, np.abs(starts)))
    idx = np.maximum(idx - 1, 0)
    # in blocks of sub-steps, so the tails' temporaries stay small
    for lo in range(0, m, REPLAY_BLOCK):
        block = idx[lo:lo + REPLAY_BLOCK]
        size = len(block)
        prices = np.concatenate(
            [record.sample_asks[block, None] - xs, record.sample_bids[block, None] - xs]
        )
        tails = noise.side_tails_grid(prices, np.repeat([1.0, -1.0], size)[:, None])
        rate = tails[:size] + tails[size:]
        factors[lo + 1:lo + size + 1] = np.exp(-lam * rate * dts[lo:lo + size, None])

    # every trade's likelihood multiplies its checkpoint's row, so two trades
    # at one float both apply, as the engine's two stops do
    trades = [e for e in record.events if e.outcome is not Outcome.NO_TRADE]
    buys = np.array([e.outcome is Outcome.BUY for e in trades])
    prices = np.array([e.ask if b else e.bid for e, b in zip(trades, buys)])
    weights = noise.side_tails_grid(prices[:, None] - xs, np.where(buys, 1.0, -1.0)[:, None])
    rows = np.searchsorted(checkpoints, [e.t for e in trades])
    np.multiply.at(factors, rows, weights)

    # The loop carries the unnormalised belief. A transition row sums to 1,
    # so a sub-step keeps at least its smallest factor of the mass: the
    # product of those since the last renormalisation bounds the mass from
    # below, and the row is renormalised before that bound reaches
    # _MASS_FLOOR. Every factor is at most 1, so nothing overflows.
    beliefs = np.empty((m + 1, n))
    beliefs[0] = model.initial_belief.probs * factors[0]
    prev = beliefs[0]
    lows = factors.min(axis=1).tolist()
    bound = lows[0]
    for row, p_mat, factor, low in zip(beliefs[1:], chain, factors[1:], lows[1:]):
        np.matmul(prev, p_mat, out=row)
        np.multiply(row, factor, out=row)
        bound *= low
        if bound < _MASS_FLOOR:
            total = row.sum()
            if total > 0.0:  # a zero row stays zero for the check below
                row /= total
            bound = 1.0
        prev = row

    totals = beliefs.sum(axis=1)
    empty = np.flatnonzero(~(totals > 0.0))
    if len(empty):
        event = dict(zip(rows.tolist(), trades)).get(int(empty[0]))
        if event is not None:
            raise GridMismatch(
                f"logged {event.outcome.value} at t={event.t:.6f} has zero "
                "likelihood under the replayed belief"
            )
    beliefs /= totals[:, None]
    return checkpoints, beliefs


def compare_filters(
    times_a: np.ndarray,
    beliefs_a: np.ndarray,
    times_b: np.ndarray,
    beliefs_b: np.ndarray,
) -> FilterComparison:
    """Max L1 distance between two belief paths at their shared times, the
    times within TIME_TOL of each other. Each time of b matches the nearest
    earlier-or-equal time of a if that lies within TIME_TOL, else the next
    one; max_l1 is taken at the first time where it is reached. A distance
    that is not finite (a NaN or infinite belief) raises GridMismatch."""
    beliefs_a = np.asarray(beliefs_a, dtype=float)
    beliefs_b = np.asarray(beliefs_b, dtype=float)
    if beliefs_a.ndim != 2 or beliefs_b.ndim != 2:
        raise GridMismatch("belief paths must be 2-d arrays (time, state)")
    if beliefs_a.shape[1] != beliefs_b.shape[1]:
        raise GridMismatch(
            f"state grids differ: {beliefs_a.shape[1]} vs {beliefs_b.shape[1]}"
        )
    times_a = np.asarray(times_a, dtype=float)
    times_b = np.asarray(times_b, dtype=float)
    for times, beliefs in ((times_a, beliefs_a), (times_b, beliefs_b)):
        if times.shape != beliefs.shape[:1]:
            raise GridMismatch(
                f"a belief path has {beliefs.shape[0]} rows for times of shape "
                f"{times.shape}"
            )
    if len(times_a) == 0:
        raise GridMismatch("belief paths share fewer than two time points")
    pos = np.searchsorted(times_a, times_b)
    below = np.maximum(pos - 1, 0)
    above = np.minimum(pos, len(times_a) - 1)
    below_ok = (pos >= 1) & (np.abs(times_a[below] - times_b) <= TIME_TOL)
    above_ok = (pos < len(times_a)) & (np.abs(times_a[above] - times_b) <= TIME_TOL)
    matched = below_ok | above_ok
    rows_a = np.where(below_ok, below, above)[matched]
    n_matched = len(rows_a)
    if n_matched < 2:
        raise GridMismatch("belief paths share fewer than two time points")
    shared_t = times_b[matched]
    l1 = np.abs(beliefs_a[rows_a] - beliefs_b[matched]).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(l1))
    if len(bad):
        raise GridMismatch(
            f"belief paths could not be compared: their L1 distance at "
            f"t={float(shared_t[bad[0]])!r} is {float(l1[bad[0]])}"
        )
    j = int(np.argmax(l1))
    return FilterComparison(
        n_matched=n_matched, max_l1=float(l1[j]), argmax_time=float(shared_t[j])
    )


# --------------------------------------------------------------------------
# Statistical tests


def _side_stats(sums: np.ndarray, counts: np.ndarray, side: str):
    n = int(counts.sum())
    if n == 0:
        raise InsufficientData(f"no {side} trades in the batch")
    mean = float(sums.sum()) / n
    resid = sums - counts * mean
    se = math.sqrt(float(np.sum(resid * resid))) / n
    if se == 0.0:
        z = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        z = mean / se
    return n, mean, se, z


def zero_profit_test(records: list[PathRecord]) -> ZeroProfitReport:
    """Test that per-trade profit has zero mean on each side separately.

    Profits are pooled over paths; the standard error clusters by path.
    Passing means |z| <= 3 on both sides.
    """
    if len(records) < 2:
        raise InsufficientData("need at least two paths")
    if sum(r.n_trades for r in records) == 0:
        raise InsufficientData("no trades on any path")
    buy_sums = np.array([r.buy_profit for r in records])
    buy_counts = np.array([r.n_buys for r in records])
    sell_sums = np.array([r.sell_profit for r in records])
    sell_counts = np.array([r.n_sells for r in records])
    n_buys, buy_mean, buy_se, z_buy = _side_stats(buy_sums, buy_counts, "buy")
    n_sells, sell_mean, sell_se, z_sell = _side_stats(sell_sums, sell_counts, "sell")
    return ZeroProfitReport(
        n_paths=len(records),
        n_buys=n_buys,
        n_sells=n_sells,
        buy_mean=buy_mean,
        buy_se=buy_se,
        sell_mean=sell_mean,
        sell_se=sell_se,
        z_buy=z_buy,
        z_sell=z_sell,
        passed=abs(z_buy) <= 3.0 and abs(z_sell) <= 3.0,
    )


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with integer df >= 1.

    With y = x/2 and a = df/2 this is the regularized upper gamma Q(a, y).
    From y = a on it has a closed form: the sum over j = a - 1, a - 2, ...
    >= 0 of e^-y y^j / Gamma(j + 1), plus erfc(sqrt(y)) for odd df. Below
    a, where that sum lies within rounding of 1 and so need not fall as x
    grows, it is 1 - P(a, y), with the lower tail P(a, y) =
    e^-y y^a / Gamma(a + 1) times the sum over n >= 0 of
    y^n / ((a + 1) ... (a + n)). Each power factor is exp of its own
    logarithm, so none underflows while the tail is still a normal float.
    """
    if x <= 0.0:
        return 1.0
    y, a = 0.5 * x, 0.5 * df
    log_y = math.log(y)
    if y < a:
        term = total = 1.0
        k = a
        while term > 1e-17 * total:
            k += 1.0
            term *= y / k
            total += term
        return 1.0 - total * math.exp(a * log_y - y - math.lgamma(a + 1.0))
    terms = [math.erfc(math.sqrt(y)) if df % 2 else 0.0]
    j = a - 1.0
    while j >= 0.0:
        terms.append(math.exp(j * log_y - y - math.lgamma(j + 1.0)))
        j -= 1.0
    return math.fsum(terms)


def _poisson_gof(counts: np.ndarray, mu: float, alpha: float) -> GoodnessOfFit:
    """Pearson chi-square of integer counts against Poisson(mu), with cells
    merged from both tails until every expected count is at least 5."""
    n = len(counts)
    k_hi = int(max(counts.max(), mu + 10.0 * math.sqrt(mu))) + 1
    ks = np.arange(k_hi + 1)
    log_pmf = ks * math.log(mu) - mu - np.array(
        [math.lgamma(k + 1.0) for k in ks]
    )
    pmf = np.exp(log_pmf)
    pmf = np.append(pmf, max(0.0, 1.0 - pmf.sum()))  # upper tail cell
    expected = n * pmf
    observed = np.bincount(np.minimum(counts, k_hi + 1), minlength=k_hi + 2)

    cells_exp = []
    cells_obs = []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            cells_exp.append(acc_e)
            cells_obs.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if cells_exp:
            cells_exp[-1] += acc_e
            cells_obs[-1] += acc_o
        else:
            cells_exp.append(acc_e)
            cells_obs.append(acc_o)
    if len(cells_exp) < 2:
        raise InsufficientData(
            "fewer than two chi-square cells; increase trials or the rate"
        )
    cells_exp = np.array(cells_exp)
    cells_obs = np.array(cells_obs)
    stat = float(np.sum((cells_obs - cells_exp) ** 2 / cells_exp))
    df = len(cells_exp) - 1
    p_value = _chi2_sf(stat, df)
    return GoodnessOfFit(
        n_trials=n,
        expected_rate=mu,
        chi2=stat,
        df=df,
        p_value=p_value,
        passed=p_value >= alpha,
    )


def intensity_test(
    model: MarketModel,
    quote: Quote,
    state_value: float,
    horizon: float,
    n_trials: int,
    seed: int = 0,
) -> IntensityReport:
    """Frozen-quote, frozen-state trade-count test.

    Holds the true value at state_value and the posted quote fixed, runs the
    actual arrival draws and decide_trade's rule n_trials times over
    [0, horizon], each trial's decisions as one array, and chi-square-tests
    the per-trial buy counts at level INTENSITY_ALPHA against
    Poisson(lambda * survival(ask - x) * horizon), dually for sells.
    """
    try:
        n_trials = operator.index(n_trials)
    except TypeError:
        raise ConfigError(f"n_trials must be an integer, got {n_trials!r}") from None
    if n_trials < 2:
        raise ConfigError("n_trials must be at least 2")
    check_number("horizon", horizon, "positive")
    check_number("state_value", state_value)
    lam = model.arrival_rate
    noise = model.noise
    mu_buy = buy_intensity(quote, state_value, lam, noise) * horizon
    mu_sell = sell_intensity(quote, state_value, lam, noise) * horizon
    if min(mu_buy, mu_sell) < 20.0:
        raise InsufficientData(
            "expected counts below 20 per side; the test would lack power"
        )
    buys = np.zeros(n_trials, dtype=np.int64)
    sells = np.zeros(n_trials, dtype=np.int64)
    for trial in range(n_trials):
        _, arrival_rng, noise_rng = path_streams(seed, trial)
        arrivals = sample_arrival_times(lam, horizon, arrival_rng)
        valuations = state_value + noise.sample(noise_rng, len(arrivals))
        # decide_trade on every arrival: a buy at or above the ask first, so
        # a valuation at a degenerate ask == bid quote buys
        buy = valuations >= quote.ask
        buys[trial] = np.count_nonzero(buy)
        sells[trial] = np.count_nonzero((valuations <= quote.bid) & ~buy)
    return IntensityReport(
        buy=_poisson_gof(buys, mu_buy, INTENSITY_ALPHA),
        sell=_poisson_gof(sells, mu_sell, INTENSITY_ALPHA),
    )


# --------------------------------------------------------------------------
# Batch-level structural checks


@dataclass(frozen=True)
class ConsistencyReport:
    """Worst-case deviations of identities that should hold pathwise."""

    n_events: int
    max_quote_gap: float
    max_sum_error: float
    min_component: float
    ordering_violations: int
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = (
            self.max_quote_gap <= 1e-8
            and self.max_sum_error <= 1e-9
            and self.min_component >= -1e-12
            and self.ordering_violations == 0
        )
        object.__setattr__(self, "passed", ok)


def consistency_check(records: list[PathRecord], grid: StateGrid) -> ConsistencyReport:
    """Quote-consistency and conservation sweep over a batch.

    Checks that every trade executed at the post-trade posterior mean, that
    integrator beliefs stayed on the simplex to tolerance, and that sampled
    rows keep bid <= posterior mean <= ask.
    """
    xs = grid.values
    max_gap = 0.0
    n_events = 0
    max_sum_error = 0.0
    min_component = 0.0
    violations = 0
    for r in records:
        max_sum_error = max(max_sum_error, r.diagnostics.max_sum_error)
        min_component = min(min_component, r.diagnostics.min_component)
        for e in r.events:
            n_events += 1
            if e.outcome is Outcome.BUY:
                gap = abs(float(e.belief_after @ xs) - e.ask)
            elif e.outcome is Outcome.SELL:
                gap = abs(float(e.belief_after @ xs) - e.bid)
            else:
                continue
            max_gap = max(max_gap, gap)
        if r.sample_times is not None:
            means = r.sample_beliefs @ xs
            bad = (r.sample_bids > means + 1e-9) | (means > r.sample_asks + 1e-9)
            violations += int(np.count_nonzero(bad))
            sums = np.abs(r.sample_beliefs.sum(axis=1) - 1.0)
            max_sum_error = max(max_sum_error, float(sums.max()))
    return ConsistencyReport(
        n_events=n_events,
        max_quote_gap=max_gap,
        max_sum_error=max_sum_error,
        min_component=min_component,
        ordering_violations=violations,
    )


# --------------------------------------------------------------------------
# The verify report


def _entry(report) -> dict:
    """A report dataclass as a report entry, with passed turned into status."""
    fields = asdict(report)
    return {"status": "pass" if fields.pop("passed") else "fail", **fields}


def _filter_check(cfg, perturb_ask, force) -> dict:
    """Engine against the oracle filter on path 0, plus the oracle's own
    first-order convergence over h, h/2, h/4 (end-point gap ratio near 2).
    The engine steps at the scenario's ode_step; sampling at h/4 reads its
    dense output and leaves its steps alone, so max_l1 holds the error of
    that step."""
    h = 1e-3
    horizon = min(cfg.horizon, 2.0)
    sim = cfg.sim_config(sample_dt=h / 4, perturb_ask=perturb_ask, force=force)
    rec = simulate_gmps_path(cfg, horizon, sim, seed=cfg.seed, offset=0)
    steps = (h, h / 2, h / 4)
    times, beliefs = zip(
        *(oracle_filter(rec, cfg, OracleFilterConfig(h=step)) for step in steps)
    )
    cmp = compare_filters(rec.sample_times, rec.sample_beliefs, times[0], beliefs[0])
    gap_coarse = float(abs(beliefs[0][-1] - beliefs[1][-1]).sum())
    gap_fine = float(abs(beliefs[1][-1] - beliefs[2][-1]).sum())
    # no observable splitting error (e.g. no arrivals): distance alone
    ratio = gap_coarse / gap_fine if gap_fine > 1e-12 else None
    passed = cmp.max_l1 <= 0.01 and (ratio is None or 1.5 <= ratio <= 2.5)
    return {
        "h": h,
        "horizon": horizon,
        "ode_step": sim.ode_step,
        "n_trades": rec.n_trades,
        "max_l1": cmp.max_l1,
        "threshold": 0.01,
        "self_gap_h": gap_coarse,
        "self_gap_h_over_2": gap_fine,
        "convergence_ratio": ratio,
        "status": "pass" if passed else "fail",
    }


def _intensity_check(cfg) -> dict:
    """intensity_test at three frozen (quote, state) pairs, each run long
    enough for about 30 expected trades on its thinner side."""
    w = cfg.grid.width
    x0 = cfg.grid.x_min
    xn = cfg.grid.x_max
    pairs = [
        (Quote(ask=x0, bid=x0), x0),  # survival(0) symmetry point
        (Quote(ask=xn + w / 4, bid=xn - w / 4), xn),
        (Quote(ask=x0 + w / 2, bid=x0 - w / 4), x0),
    ]
    lam = cfg.arrival_rate
    if lam <= 0.0:
        raise InsufficientData("arrival rate is zero; no trades to count")
    p_min = min(
        min(cfg.noise.survival(q.ask - x), cfg.noise.cdf(q.bid - x))
        for q, x in pairs
    )
    if p_min <= 0.0:
        raise InsufficientData(
            "a frozen quote leaves one side with zero trade probability"
        )
    horizon = 30.0 / (lam * p_min)
    if not lam * horizon <= MAX_EXPECTED_ARRIVALS:
        raise InsufficientData(f"30 trades on the thinner side need {lam * horizon:g} expected "
                               f"arrivals per trial, above {MAX_EXPECTED_ARRIVALS:g}")
    results = []
    for k, (quote, x) in enumerate(pairs):
        report = intensity_test(cfg, quote, x, horizon, n_trials=150, seed=cfg.seed + k)
        results.append(
            {
                "ask": quote.ask,
                "bid": quote.bid,
                "state": x,
                "buy_rate": report.buy.expected_rate,
                "buy_p_value": report.buy.p_value,
                "sell_rate": report.sell.expected_rate,
                "sell_p_value": report.sell.p_value,
                "passed": report.passed,
            }
        )
    return {
        "pairs": results,
        "status": "pass" if all(r["passed"] for r in results) else "fail",
    }


def run_verify(cfg: ScenarioConfig, perturb_ask: float = 0.0, force: bool = False) -> dict:
    """Run the four checks of `gmsim verify` on one scenario, with its seed
    and n_paths (another seed or path count is a dataclasses.replace of
    cfg, which checks it as a scenario file's).

    Returns the dict that the command writes as verify_report.json. A check
    that raises InsufficientData is reported as skipped, with its reason;
    passed is true when no check failed.
    """
    sim = cfg.sim_config(perturb_ask=perturb_ask, force=force)
    records = simulate_paths(cfg, cfg.horizon, sim, seed=cfg.seed, n_paths=cfg.n_paths)
    runs = {
        "zero_profit": lambda: _entry(zero_profit_test(records)),
        "consistency": lambda: _entry(consistency_check(records, cfg.grid)),
        "filter_oracle": lambda: _filter_check(cfg, perturb_ask, force),
        "intensity": lambda: _intensity_check(cfg),
    }
    checks = {}
    for name, run in runs.items():
        try:
            checks[name] = run()
        except InsufficientData as exc:
            checks[name] = {"status": "skipped", "reason": str(exc)}
    return {
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "perturb_ask": perturb_ask,
        "checks": checks,
        "passed": all(c["status"] != "fail" for c in checks.values()),
    }
