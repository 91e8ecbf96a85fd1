"""Per-layer metrics of a traced run.

Three sources, each named in README.md:
- spans the tracer recorded around calls into gmsim during the traced units;
- probes that time one public function of a layer at operating points taken
  from the workload's own logged EventRecords (beliefs, quotes, offsets);
- exact counts read off the first unit's records, which repeat exactly for
  a seed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

from gmsim import beliefs, config, engine, equilibrium, noise, verification
from gmsim.core import Belief, Quote
from gmsim.engine import Outcome

import runenv

FILTER_H = 1e-3  # the step of verify's filter check

EVENT_CAP = 400
LAYERS = ("bench", "engine", "verification", "cli")

METRIC_UNITS = {
    "noise.survival_ns.logistic": "ns",
    "noise.survival_ns.gaussian": "ns",
    "noise.survival_ns.laplace": "ns",
    "noise.sample_us": "us",
    "noise.condition_scan_ms": "ms",
    "equilibrium.warm_solve_us": "us",
    "equilibrium.cold_solve_us": "us",
    "equilibrium.picard_iters_mean": "count",
    "equilibrium.picard_iters_max": "count",
    "equilibrium.root_scan_ms": "ms",
    "beliefs.rk4_step_us": "us",
    "beliefs.rk4_steps_per_path": "count",
    "beliefs.jump_us": "us",
    "beliefs.drift_us": "us",
    "beliefs.est_share": "ratio",
    "engine.simulate_s": "s",
    "engine.events_per_path": "count",
    "engine.trades_per_path": "count",
    "engine.us_per_event": "us",
    "engine.streams_us": "us",
    "verification.zero_profit_ms": "ms",
    "verification.consistency_ms": "ms",
    "verification.oracle_s.h": "s",
    "verification.oracle_s.h2": "s",
    "verification.oracle_s.h4": "s",
    "verification.compare_filters_ms": "ms",
    "verification.intensity_s": "s",
    "config.load_scenario_ms": "ms",
    "cli.import_s": "s",
    "cli.events_bytes": "bytes",
    "cli.output_overhead_s": "s",
    "trace.overhead_frac": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}

IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import gmsim
print(repr(time.perf_counter() - t0))
"""


def per_call(fn, items, min_seconds=0.02, repeats=5) -> float:
    """Median over `repeats` of the seconds per fn(item) call, each repeat
    cycling through `items` until it has run `min_seconds`."""
    samples = []
    for _ in range(repeats):
        calls = 0
        t0 = time.perf_counter()
        while True:
            for item in items:
                fn(item)
            calls += len(items)
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def median_time(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rk4_steps(record, ode_step: float) -> int:
    """RK4 steps the engine takes on a path: one integration per interval
    between consecutive logged times, each cut into ceil(dt / ode_step)."""
    if record.sample_times is not None:
        knots = list(record.sample_times)
    else:
        knots = [0.0] + [e.t for e in record.events] + [record.horizon]
    return sum(
        max(1, math.ceil((b - a) / ode_step)) for a, b in zip(knots, knots[1:]) if b > a
    )


# --------------------------------------------------------------------------
# Layer probes at logged operating points


def noise_probes(cfg, model, records, events) -> dict:
    xs = [float(x) for x in cfg.grid.values]
    offsets = [e.ask - x for e in events for x in xs]
    offsets += [e.bid - x for e in events for x in xs]
    scale = getattr(model.noise, "scale", None) or model.noise.sigma
    out = {}
    for label, family in (("logistic", noise.Logistic), ("gaussian", noise.Gaussian),
                          ("laplace", noise.Laplace)):
        out[f"noise.survival_ns.{label}"] = per_call(family(scale).survival, offsets) * 1e9
    arrivals = max(1, round(sum(len(r.events) for r in records) / len(records)))
    rng = np.random.default_rng(cfg.seed)
    out["noise.sample_us"] = per_call(
        lambda _: model.noise.sample(rng, arrivals), [None] * 50
    ) * 1e6

    def scan():
        noise.check_gm_condition.cache_clear()
        noise.check_gm_condition(model.noise, cfg.grid.width)

    out["noise.condition_scan_ms"] = median_time(scan, 5) * 1e3
    return out


def equilibrium_probes(cfg, model, events, trades) -> dict:
    grid, nz, tol = cfg.grid, model.noise, cfg.fp_tol
    warm = [(Belief(e.belief_after), e.ask, e.bid) for e in trades]

    def warm_solve(point):
        belief, ask, bid = point
        equilibrium.solve_ask(belief, grid, nz, tol=tol, start=ask)
        equilibrium.solve_bid(belief, grid, nz, tol=tol, start=bid)

    cold = [Belief(e.belief_before) for e in events]
    iters = []
    for belief in cold:
        q = equilibrium.solve_static_quotes(belief, grid, nz, tol=tol)
        iters += [q.ask_iterations, q.bid_iterations]

    def root_scans():
        equilibrium.find_fixed_points(cfg.initial_belief, grid, nz, buy_side=True)
        equilibrium.find_fixed_points(cfg.initial_belief, grid, nz, buy_side=False)

    return {
        "equilibrium.warm_solve_us": per_call(warm_solve, warm) * 1e6,
        "equilibrium.cold_solve_us": per_call(
            lambda b: equilibrium.solve_static_quotes(b, grid, nz, tol=tol), cold
        ) * 1e6,
        "equilibrium.picard_iters_mean": sum(iters) / len(iters),
        "equilibrium.picard_iters_max": max(iters),
        "equilibrium.root_scan_ms": median_time(root_scans, 3) / 2 * 1e3,
    }


def beliefs_probes(cfg, model, records, events) -> dict:
    grid, nz, lam, q = cfg.grid, model.noise, model.arrival_rate, model.generator
    points = [Belief(e.belief_before) for e in events[:100]]
    states = [beliefs.make_filter_state(b, grid, nz, fp_tol=cfg.fp_tol) for b in points]
    jumps = [(Belief(e.belief_before), e.ask, e.bid) for e in events]

    def steps(n):
        return lambda state: beliefs.integrate_between_events(
            state, n * cfg.ode_step, lam, q, grid, nz, ode_step=cfg.ode_step,
            fp_tol=cfg.fp_tol,
        )

    def jump(point):
        belief, ask, bid = point
        beliefs.buy_jump(belief, ask, grid, nz)
        beliefs.sell_jump(belief, bid, grid, nz)

    def drift(point):
        belief, ask, bid = point
        beliefs.belief_drift(belief, Quote(ask=ask, bid=bid), lam, q, grid, nz)

    one = per_call(steps(1), states)
    return {
        "beliefs.rk4_step_us": one * 1e6,
        # marginal cost of a step, without the per-call set-up the engine
        # does not pay per step; used for beliefs.est_share
        "marginal_step_us": (per_call(steps(11), states) - one) / 10 * 1e6,
        "beliefs.rk4_steps_per_path": sum(rk4_steps(r, cfg.ode_step) for r in records)
        / len(records),
        "beliefs.jump_us": per_call(jump, jumps) / 2 * 1e6,
        "beliefs.drift_us": per_call(drift, jumps) * 1e6,
    }


def filter_probe(cfg, model) -> dict:
    """verify's filter check on this workload's model, timed per call."""
    sim = cfg.sim_config(sample_dt=FILTER_H / 4)
    rec = engine.simulate_gmps_path(model, min(cfg.horizon, 2.0), sim,
                                    seed=cfg.seed, offset=0)
    out = {}
    for label, step in (("h", FILTER_H), ("h2", FILTER_H / 2), ("h4", FILTER_H / 4)):
        t0 = time.perf_counter()
        times, probs = verification.oracle_filter(
            rec, model, verification.OracleFilterConfig(h=step)
        )
        out[f"verification.oracle_s.{label}"] = time.perf_counter() - t0
        if label == "h":
            coarse = (times, probs)
    out["verification.compare_filters_ms"] = median_time(
        lambda: verification.compare_filters(rec.sample_times, rec.sample_beliefs, *coarse), 3
    ) * 1e3
    return out


def intensity_probe(cfg, model) -> float:
    """The three frozen-quote trade-count tests verify runs, with its
    parameters (quote/state pairs, horizon, 150 trials)."""
    grid = cfg.grid
    w = grid.width
    x0, xn = float(grid.values[0]), float(grid.values[-1])
    pairs = [
        (Quote(ask=x0, bid=x0), x0),
        (Quote(ask=xn + w / 4, bid=xn - w / 4), xn),
        (Quote(ask=x0 + w / 2, bid=x0 - w / 4), x0),
    ]
    p_min = min(
        min(model.noise.survival(q.ask - x), model.noise.cdf(q.bid - x)) for q, x in pairs
    )
    horizon = 30.0 / (model.arrival_rate * p_min)
    t0 = time.perf_counter()
    for k, (quote, x) in enumerate(pairs):
        verification.intensity_test(model, quote, x, horizon, n_trials=150,
                                    seed=cfg.seed + k)
    return time.perf_counter() - t0


def import_probe(ctx, repeats=3) -> float:
    times = []
    for _ in range(repeats):
        _, proc = runenv.run_command([sys.executable, "-c", IMPORT_CODE], ctx.work)
        if proc.returncode != 0:
            raise RuntimeError(f"import gmsim failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def cli_simulate_probe(ctx, model, n_paths) -> tuple[float, int, float]:
    """`gmsim simulate` on the workload's scenario: command wall time,
    events.jsonl size, and an in-process simulate of the same paths."""
    cfg = ctx.cfg
    out_dir = ctx.work / "probe-simulate"
    wall, proc = runenv.run_command(runenv.gmsim_argv(
        "simulate", "--config", str(ctx.scenario_path), "--paths", str(n_paths),
        "--seed", str(ctx.seed), "--out", str(out_dir)), ctx.work)
    if proc.returncode != 0:
        raise RuntimeError(f"gmsim simulate failed: {proc.stderr.strip()[-300:]}")
    t0 = time.perf_counter()
    for offset in range(n_paths):
        sim = cfg.sim_config(sample_dt=cfg.horizon / 400.0 if offset == 0 else None)
        engine.simulate_gmps_path(model, cfg.horizon, sim, seed=ctx.seed, offset=offset)
    inprocess = time.perf_counter() - t0
    return wall, (out_dir / "events.jsonl").stat().st_size, inprocess


# --------------------------------------------------------------------------
# Assembly


def _root_of(spans, span):
    while span["parent"] is not None:
        span = spans[span["parent"]]
    return span["id"]


def layer_metrics(ctx, wl, units) -> tuple[dict, dict]:
    cfg, model, tracer = ctx.cfg, wl.model, ctx.tracer
    spans = tracer.spans
    records = wl.probe_records()
    events = [e for r in records for e in r.events][:EVENT_CAP]
    trades = [e for e in events if e.outcome is not Outcome.NO_TRADE]
    if not trades:
        raise RuntimeError("the first unit logged no trades to probe at")

    v = {}
    v.update(noise_probes(cfg, model, records, events))
    v.update(equilibrium_probes(cfg, model, events, trades))
    v.update(beliefs_probes(cfg, model, records, events))

    # engine: spans around the simulate calls and inside each path
    paths = [s for s in spans if s["name"] == "engine.simulate_gmps_path"]
    path_s = [s["end"] - s["start"] for s in paths]
    per_root: dict[int, float] = {}
    for s in spans:
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
        if s["name"].startswith("engine.") and not parent.startswith("engine."):
            root = _root_of(spans, s)
            per_root[root] = per_root.get(root, 0.0) + s["end"] - s["start"]
    streams = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] in ("engine.path_streams", "engine.sample_value_path",
                         "engine.sample_arrival_times")
    )
    v["engine.simulate_s"] = statistics.median(per_root.values())
    v["engine.events_per_path"] = sum(len(r.events) for r in records) / len(records)
    v["engine.trades_per_path"] = sum(r.n_trades for r in records) / len(records)
    v["engine.us_per_event"] = sum(path_s) / max(1, sum(s["events"] for s in paths)) * 1e6
    v["engine.streams_us"] = streams / len(paths) * 1e6
    v["beliefs.est_share"] = (
        v.pop("marginal_step_us") * v["beliefs.rk4_steps_per_path"]
        / (statistics.median(path_s) * 1e6)
    )

    # verification: spans where the workload calls it, probes elsewhere
    checked = records if len(records) >= 2 else records * 2
    for name, metric, call in (
        ("verification.zero_profit_test", "verification.zero_profit_ms",
         lambda: verification.zero_profit_test(checked)),
        ("verification.consistency_check", "verification.consistency_ms",
         lambda: verification.consistency_check(checked, cfg.grid)),
    ):
        seen = tracer.durations(name)
        v[metric] = (statistics.median(seen) if seen else median_time(call, 5)) * 1e3
    oracle = tracer.durations("verification.oracle_filter")
    if oracle:
        for i, label in enumerate(("h", "h2", "h4")):
            v[f"verification.oracle_s.{label}"] = statistics.median(oracle[i::3])
        v["verification.compare_filters_ms"] = statistics.median(
            tracer.durations("verification.compare_filters")) * 1e3
    else:
        v.update(filter_probe(cfg, model))
    v["verification.intensity_s"] = intensity_probe(cfg, model)

    # config and cli
    v["config.load_scenario_ms"] = median_time(
        lambda: config.load_scenario(ctx.scenario_path), 7) * 1e3
    v["cli.import_s"] = import_probe(ctx)
    n_paths = {"pooled": 64, "dense_filter": 1, "cli": 200}[wl.name]
    cmd_s, v["cli.events_bytes"], inprocess = cli_simulate_probe(ctx, model, n_paths)
    v["cli.output_overhead_s"] = cmd_s - v["cli.import_s"] - inprocess

    # tracing itself
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    v["trace.overhead_frac"] = (
        min(u["wall"] for u in traced) / min(u["wall"] for u in plain) - 1.0
    )
    own = tracer.self_times(roots={u["root"] for u in traced})
    for layer in LAYERS:
        v[f"self_s.{layer}"] = own.get(layer, 0.0) / len(traced)
    return v, METRIC_UNITS
