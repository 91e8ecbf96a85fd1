"""Independent checks of the simulator's defining properties.

The reference filter here is deliberately a different algorithm from the
engine's integrator: a first-order split step that alternates the chain
transition (truncated-series matrix exponential) with the per-state no-trade
survival likelihood, applying exact Bayes updates at logged trade times. It
consumes only what the engine logged (event records and the sampled quote
path), never the engine's drift or ODE code, so agreement between the two is
evidence rather than tautology.

The statistical checks quantify the model's defining properties on batches
of simulated paths: per-trade profit means on each side (zero under correct
quoting), trade counts against their predicted Poisson law under frozen
quotes, and a common-random-numbers illustration of quote uniqueness. The
Poisson law is tested with Pearson chi-square, whose p-value comes from the
closed-form chi-square tail for integer degrees of freedom (_chi2_sf), so the
package needs no statistics library.

run_verify bundles the checks behind `gmsim verify`, with their pass/fail
policy, into one report.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ScenarioConfig
from .core import Belief, Quote, StateGrid
from .engine import (
    MarketModel,
    Outcome,
    PathRecord,
    SimConfig,
    buy_intensity,
    decide_trade,
    path_streams,
    sample_arrival_times,
    sell_intensity,
    simulate_gmps_path,
    simulate_paths,
)
from .equilibrium import ContractionConstants, contraction_constants
from .errors import ConfigError, GridMismatch, InsufficientData


@dataclass(frozen=True)
class OracleFilterConfig:
    """Discretization knobs for the reference filter."""

    h: float = 1e-3
    matrix_exp_terms: int = 12

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ConfigError("oracle step h must be positive and finite")
        if self.matrix_exp_terms < 8:
            raise ConfigError("matrix_exp_terms must be at least 8")


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


@dataclass(frozen=True)
class UniquenessReport:
    """Contraction constants plus a twin-run quote-gap profile.

    When n_outcome_mismatches is zero the two runs saw the identical trade
    sequence and the gap profile illustrates filter merging; once an arrival
    lands between the two posted asks the histories fork and the profile
    stops being a contraction illustration.
    """

    constants: ContractionConstants
    times: np.ndarray
    quote_gaps: np.ndarray
    max_gap: float
    final_gap: float
    n_events: int
    n_outcome_mismatches: int


# --------------------------------------------------------------------------
# Reference filter


def transition_matrix(rates: np.ndarray, dt: float, terms: int = 12) -> np.ndarray:
    """exp(rates * dt) by scaling and squaring of a truncated Taylor series."""
    b = np.asarray(rates, dtype=float) * dt
    norm = float(np.max(np.sum(np.abs(b), axis=1))) if b.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = b / (2.0**squarings)
    n = b.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def oracle_filter(
    record: PathRecord,
    model: MarketModel,
    cfg: OracleFilterConfig = OracleFilterConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a logged path through the split-step reference filter.

    Returns (times, beliefs): the filter's state at every multiple of cfg.h,
    at every logged event time (after its jump), and at the horizon. The
    no-trade likelihood over each sub-step uses the quote the engine logged
    at the sub-step's left endpoint, so the record must carry a sampled
    quote path at least as fine as cfg.h.
    """
    if record.sample_times is None:
        raise GridMismatch("record carries no sampled quote path")
    logged_t = record.sample_times
    if len(logged_t) < 2:
        raise GridMismatch("sampled quote path has fewer than two points")
    spacing = float(np.max(np.diff(logged_t)))
    if spacing > cfg.h * (1.0 + 1e-9) + 1e-15:
        raise GridMismatch(
            f"logged quotes are spaced {spacing:.3e} apart, coarser than "
            f"the oracle step {cfg.h:.3e}"
        )
    logged_ask = record.sample_asks
    logged_bid = record.sample_bids

    horizon = record.horizon
    h = cfg.h
    n_grid = math.ceil(horizon / h)
    grid_times = np.minimum(np.arange(n_grid + 1) * h, horizon)
    event_times = np.array([e.t for e in record.events])
    if len(event_times):
        # grid points yield to nearby event times so each jump lands on the
        # exact float the engine logged
        near = np.min(np.abs(grid_times[:, None] - event_times[None, :]), axis=1)
        grid_times = grid_times[near > 1e-12]
    checkpoints = np.unique(np.concatenate([grid_times, event_times, [horizon]]))
    events_at = {e.t: e for e in record.events}

    xs = model.grid.values
    noise = model.noise
    lam = model.arrival_rate
    rates = model.generator.rates
    expm_cache: dict[float, np.ndarray] = {}

    belief = model.initial_belief.probs.copy()
    out_times = [0.0]
    out_beliefs = [belief.copy()]

    for k in range(1, len(checkpoints)):
        t0 = float(checkpoints[k - 1])
        t1 = float(checkpoints[k])
        dt = t1 - t0
        p_mat = expm_cache.get(dt)
        if p_mat is None:
            p_mat = transition_matrix(rates, dt, cfg.matrix_exp_terms)
            expm_cache[dt] = p_mat
        belief = belief @ p_mat
        if lam > 0.0:
            idx = int(np.searchsorted(logged_t, t0 + 1e-12)) - 1
            idx = max(idx, 0)
            ask = float(logged_ask[idx])
            bid = float(logged_bid[idx])
            trade_rate = np.array(
                [noise.cdf(bid - x) + noise.survival(ask - x) for x in xs]
            )
            belief = belief * np.exp(-lam * trade_rate * dt)
        belief = belief / belief.sum()
        event = events_at.get(t1)
        if event is not None and event.outcome is not Outcome.NO_TRADE:
            if event.outcome is Outcome.BUY:
                weights = np.array([noise.survival(event.ask - x) for x in xs])
            else:
                weights = np.array([noise.cdf(event.bid - x) for x in xs])
            belief = belief * weights
            total = belief.sum()
            if total <= 0.0:
                raise GridMismatch(
                    f"logged {event.outcome.value} at t={t1:.6f} has zero "
                    "likelihood under the replayed belief"
                )
            belief = belief / total
        out_times.append(t1)
        out_beliefs.append(belief.copy())

    return np.array(out_times), np.array(out_beliefs)


def compare_filters(
    times_a: np.ndarray,
    beliefs_a: np.ndarray,
    times_b: np.ndarray,
    beliefs_b: np.ndarray,
    time_tol: float = 1e-9,
) -> FilterComparison:
    """Max L1 distance between two belief paths at their shared times."""
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
    pos = np.searchsorted(times_a, times_b)
    max_l1 = -1.0
    argmax_t = math.nan
    n_matched = 0
    for j, t in enumerate(times_b):
        best = None
        for i in (pos[j] - 1, pos[j]):
            if 0 <= i < len(times_a) and abs(times_a[i] - t) <= time_tol:
                best = i
                break
        if best is None:
            continue
        n_matched += 1
        l1 = float(np.sum(np.abs(beliefs_a[best] - beliefs_b[j])))
        if l1 > max_l1:
            max_l1 = l1
            argmax_t = float(t)
    if n_matched < 2:
        raise GridMismatch("belief paths share fewer than two time points")
    return FilterComparison(n_matched=n_matched, max_l1=max_l1, argmax_time=argmax_t)


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
    alpha: float = 0.01,
) -> IntensityReport:
    """Frozen-quote, frozen-state trade-count test.

    Holds the true value at state_value and the posted quote fixed, runs the
    actual arrival and decision mechanics n_trials times over [0, horizon],
    and chi-square-tests the per-trial buy counts against
    Poisson(lambda * survival(ask - x) * horizon), dually for sells.
    """
    try:
        n_trials = operator.index(n_trials)
    except TypeError:
        raise ConfigError(f"n_trials must be an integer, got {n_trials!r}") from None
    if n_trials < 2:
        raise ConfigError("n_trials must be at least 2")
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
        eps = noise.sample(noise_rng, len(arrivals))
        for e in eps:
            outcome = decide_trade(state_value + float(e), quote)
            if outcome is Outcome.BUY:
                buys[trial] += 1
            elif outcome is Outcome.SELL:
                sells[trial] += 1
    return IntensityReport(
        buy=_poisson_gof(buys, mu_buy, alpha),
        sell=_poisson_gof(sells, mu_sell, alpha),
    )


# --------------------------------------------------------------------------
# Uniqueness illustration


def uniqueness_diagnostic(
    model: MarketModel,
    horizon: float,
    belief_spread: float = 0.1,
    seed: int = 0,
    sample_dt: float = 0.05,
    config: SimConfig | None = None,
) -> UniquenessReport:
    """Contraction constants plus a twin-run gap profile.

    Runs the engine twice under common random numbers: once from the model's
    prior and once from the prior mixed with the uniform distribution at
    weight belief_spread. Reports |ask gap| + |bid gap| along the shared
    sample grid. With belief_spread = 0 the gap is identically zero. This
    illustrates the contraction that makes the quote process unique; it
    proves nothing by itself.
    """
    constants = contraction_constants(model.grid, model.noise, model.arrival_rate)
    if not 0.0 <= belief_spread <= 1.0:
        raise ConfigError("belief_spread must lie in [0, 1]")
    base_cfg = config if config is not None else SimConfig()
    cfg = replace(base_cfg, sample_dt=sample_dt)
    n = model.grid.n
    mixed = (1.0 - belief_spread) * model.initial_belief.probs + belief_spread / n
    twin = replace(model, initial_belief=Belief(mixed))

    rec_a = simulate_gmps_path(model, horizon, cfg, seed=seed, offset=0)
    rec_b = simulate_gmps_path(twin, horizon, cfg, seed=seed, offset=0)

    # the twins share (seed, offset), so they stop at the same arrivals and
    # sample at the same times
    times = rec_a.sample_times
    gaps = np.abs(rec_a.sample_asks - rec_b.sample_asks) + np.abs(
        rec_a.sample_bids - rec_b.sample_bids
    )
    mismatches = sum(
        1
        for ea, eb in zip(rec_a.events, rec_b.events)
        if ea.outcome is not eb.outcome
    )
    return UniquenessReport(
        constants=constants,
        times=times,
        quote_gaps=gaps,
        max_gap=float(gaps.max()),
        final_gap=float(gaps[-1]),
        n_events=len(rec_a.events),
        n_outcome_mismatches=mismatches,
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


def _filter_check(cfg, model, seed, perturb_ask, force) -> dict:
    """Engine against the oracle filter on path 0, plus the oracle's own
    first-order convergence over h, h/2, h/4 (end-point gap ratio near 2)."""
    h = 1e-3
    horizon = min(cfg.horizon, 2.0)
    sim = cfg.sim_config(sample_dt=h / 4, perturb_ask=perturb_ask, force=force)
    rec = simulate_gmps_path(model, horizon, sim, seed=seed, offset=0)
    steps = (h, h / 2, h / 4)
    times, beliefs = zip(
        *(oracle_filter(rec, model, OracleFilterConfig(h=step)) for step in steps)
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
        "n_trades": rec.n_trades,
        "max_l1": cmp.max_l1,
        "threshold": 0.01,
        "self_gap_h": gap_coarse,
        "self_gap_h_over_2": gap_fine,
        "convergence_ratio": ratio,
        "status": "pass" if passed else "fail",
    }


def _intensity_check(model, seed) -> dict:
    """intensity_test at three frozen (quote, state) pairs, each run long
    enough for about 30 expected trades on its thinner side."""
    w = model.grid.width
    x0 = model.grid.x_min
    xn = model.grid.x_max
    pairs = [
        (Quote(ask=x0, bid=x0), x0),  # survival(0) symmetry point
        (Quote(ask=xn + w / 4, bid=xn - w / 4), xn),
        (Quote(ask=x0 + w / 2, bid=x0 - w / 4), x0),
    ]
    lam = model.arrival_rate
    if lam <= 0.0:
        raise InsufficientData("arrival rate is zero; no trades to count")
    p_min = min(
        min(model.noise.survival(q.ask - x), model.noise.cdf(q.bid - x))
        for q, x in pairs
    )
    if p_min <= 0.0:
        raise InsufficientData(
            "a frozen quote leaves one side with zero trade probability"
        )
    horizon = 30.0 / (lam * p_min)
    results = []
    for k, (quote, x) in enumerate(pairs):
        report = intensity_test(model, quote, x, horizon, n_trials=150, seed=seed + k)
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


def run_verify(
    cfg: ScenarioConfig,
    seed: int | None = None,
    n_paths: int | None = None,
    perturb_ask: float = 0.0,
    force: bool = False,
) -> dict:
    """Run the four checks of `gmsim verify` on one scenario.

    Returns the dict that the command writes as verify_report.json. seed
    and n_paths default to the scenario's. A check that raises
    InsufficientData is reported as skipped, with its reason; passed is
    true when no check failed.
    """
    seed = cfg.seed if seed is None else seed
    n_paths = cfg.n_paths if n_paths is None else n_paths
    model = cfg.model()
    sim = cfg.sim_config(perturb_ask=perturb_ask, force=force)
    records = simulate_paths(model, cfg.horizon, sim, seed=seed, n_paths=n_paths)
    runs = {
        "zero_profit": lambda: _entry(zero_profit_test(records)),
        "consistency": lambda: _entry(consistency_check(records, cfg.grid)),
        "filter_oracle": lambda: _filter_check(cfg, model, seed, perturb_ask, force),
        "intensity": lambda: _intensity_check(model, seed),
    }
    checks = {}
    for name, run in runs.items():
        try:
            checks[name] = run()
        except InsufficientData as exc:
            checks[name] = {"status": "skipped", "reason": str(exc)}
    return {
        "seed": seed,
        "n_paths": n_paths,
        "perturb_ask": perturb_ask,
        "checks": checks,
        "passed": all(c["status"] != "fail" for c in checks.values()),
    }
