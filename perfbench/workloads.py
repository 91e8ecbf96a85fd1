"""The three workloads and their correctness gates.

run.py runs one workload per fresh interpreter through `run()`. Each workload is a closed loop of identical-shape units (one batch, one
path plus its replay, or one round of CLI commands), repeated until
`--seconds` have passed; every unit's outputs go through the correctness
gates below. Untraced runs report the end-to-end metrics, traced runs the
per-layer ones (see probes.py). The last stdout line is the JSON result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import yaml

import gmsim
from gmsim import config, engine, verification

import probes
import runenv
from probes import FILTER_H
from runenv import gmsim_argv, run_command
from tracing import Tracer

POOLED_PATHS = 128      # one simulate_paths call per unit
CLI_PATHS = 200         # --paths for `gmsim simulate` and `gmsim verify`
CLI_VERIFY_SEED = 42    # the README scenario's seed; see README.md
COMMANDS = ("check", "solve-static", "simulate", "verify")
SETUP_REPEATS = 3
CHECK_REPEATS = 5       # pooled checks are milliseconds; time them 5 times
SOLO_OFFSETS = range(16)  # offsets timed as solo simulate_gmps_path calls
PROFIT_TOL_PER_TRADE = 1e-9
REFERENCE = runenv.BENCH / "reference_pooled.json"

SETUP_CODE = """\
import sys
from gmsim import check_gm_condition, load_scenario, solve_static_quotes
cfg = load_scenario(sys.argv[1])
cfg.model()
report = check_gm_condition(cfg.noise, cfg.grid.width)
quotes = solve_static_quotes(cfg.initial_belief, cfg.grid, cfg.noise, tol=cfg.fp_tol)
print(report.passes, repr(quotes.ask), repr(quotes.bid))
"""


# --------------------------------------------------------------------------
# Inputs


def scenario(workload: str, seed: int) -> dict:
    """The scenario file each workload hands to the library."""
    readme = {
        "states": [0.0, 1.0],
        "generator": [[0.0, 0.5], [0.8, 0.0]],
        "lambda": 4.0,
        "noise": {"family": "logistic", "scale": 2.0},
        "initial_belief": [0.5, 0.5],
        "horizon": 3.0,
        "seed": seed,
        "ode_step": 0.02,
        "fp_tol": 1.0e-12,
        "n_paths": 100,
    }
    if workload == "pooled":
        return readme
    if workload == "cli":
        return dict(readme, seed=CLI_VERIFY_SEED)
    n = 8
    generator = [[0.0] * n for _ in range(n)]
    for i in range(n - 1):
        generator[i][i + 1] = 0.6
        generator[i + 1][i] = 0.6
    return {
        "states": [i / (n - 1) for i in range(n)],
        "generator": generator,
        "lambda": 8.0,
        "noise": {"family": "gaussian", "sigma": 1.5},
        "initial_belief": [1.0 / n] * n,
        "horizon": 2.0,
        "seed": seed,
        "ode_step": 1.0e-3,
        "fp_tol": 1.0e-12,
        "n_paths": 1,
    }


# --------------------------------------------------------------------------
# Bookkeeping


class Ledger:
    """Operations attempted and failed. A path, a check and a CLI command
    are each one operation; a failure is reported and never retried."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def count(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failures.extend([what] * n)


class HostClock:
    """Times work relative to how fast this host runs Python around it.

    On a shared host the same work runs up to twice as slow while other
    tenants load the machine, in phases of seconds to minutes, and medians
    of identical work moved 15-40% between runs. So a fixed reference loop,
    written to resemble the simulator's inner work (a small fixed-point
    iteration with a tiny numpy step, but no gmsim code), is timed from an
    interval timer once every PERIOD_S while a call runs, and four times
    after every call. A call that took d seconds is scaled by the mean of
    REFERENCE_S / loop time over the loops during it (a call that takes
    seconds sees the speed flips inside it), or, for a call too short for
    SAMPLES of those, over the loops next to it too: the call's mean speed
    against the reference host. A slow phase slows both and cancels, while
    a change to gmsim moves only the call's time.
    """

    REFERENCE_S = 0.85e-3  # a typical loop time on the reference host
    SAMPLES = 4
    PERIOD_S = 0.05  # one loop per period while a call runs

    def __init__(self):
        self.loops: list[float] = []  # seconds per loop, in run order
        # (start, end, loops[i:j] during the call)
        self.calls: list[tuple[float, float, int, int]] = []

    @staticmethod
    def _loop() -> None:
        xs, probs, s = (0.0, 1.0), [0.5, 0.5], 0.5
        for j in range(120):
            num = den = 0.0
            for x, p in zip(xs, probs):
                w = p / (1.0 + math.exp((s - x) / 2.0))
                num += w * x
                den += w
            s = num / den
            arr = np.array(probs) * (1.0 + 1e-6 * j)
            probs = [float(v) for v in arr / arr.sum()]

    def sample(self, n: int = SAMPLES) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._loop()
            self.loops.append(time.perf_counter() - t0)

    def time(self, fn):
        """Run fn(); return (its result, a handle for `seconds`). A child
        process fn waits for is sampled too: the loop runs on its CPU."""
        if not self.loops:
            self.sample()
        first = len(self.loops)
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample(1))
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, old)
        self.calls.append((t0, t1, first, len(self.loops)))
        self.sample()
        return result, len(self.calls) - 1

    def seconds(self, handle: int) -> float:
        """The call's wall time, scaled to REFERENCE_S loop speed."""
        t0, t1, i, j = self.calls[handle]
        near = self.loops[i:j]
        if len(near) < self.SAMPLES:  # the SAMPLES loops before and after
            near = self.loops[i - self.SAMPLES:j + self.SAMPLES]
        # a loop that a child process preempted reads long; a median of
        # three drops it
        smooth = [statistics.median(near[max(k - 1, 0):k + 2]) for k in range(len(near))]
        return (t1 - t0) * statistics.fmean(self.REFERENCE_S / s for s in smooth)

    def scale(self) -> float:
        return statistics.fmean(self.REFERENCE_S / s for s in self.loops)


def maybe_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return None
    cut = statistics.quantiles(values, n=1000, method="inclusive")
    return f"p{best:g}", cut[int(round(best * 10)) - 1]


def time_solo_paths(ctx, model, sim_for, solo: list, offsets=SOLO_OFFSETS) -> list:
    """One simulate_gmps_path call per offset, each timed onto `solo`;
    returns the records."""
    records = []
    for offset in offsets:
        record, handle = ctx.clock.time(lambda: engine.simulate_gmps_path(
            model, ctx.cfg.horizon, sim_for(offset), seed=ctx.seed, offset=offset
        ))
        records.append(record)
        solo.append(handle)
    return records


# --------------------------------------------------------------------------
# Pooled batch: the acceptance batch's shape


def fingerprint(records) -> dict:
    counts = [[r.n_buys, r.n_sells] for r in records]
    return {
        "n_paths": len(records),
        "counts_sha256": hashlib.sha256(json.dumps(counts).encode()).hexdigest(),
        "n_buys": sum(r.n_buys for r in records),
        "n_sells": sum(r.n_sells for r in records),
        "buy_profit_sum": math.fsum(r.buy_profit for r in records),
        "sell_profit_sum": math.fsum(r.sell_profit for r in records),
    }


def fingerprint_mismatch(fp: dict, ref: dict) -> str | None:
    """None when the batch matches: exact counts, profit sums within
    PROFIT_TOL_PER_TRADE per trade."""
    for key in ("n_paths", "counts_sha256", "n_buys", "n_sells"):
        if fp[key] != ref[key]:
            return f"{key}: {fp[key]} != reference {ref[key]}"
    tol = PROFIT_TOL_PER_TRADE * max(1, fp["n_buys"] + fp["n_sells"])
    for key in ("buy_profit_sum", "sell_profit_sum"):
        if abs(fp[key] - ref[key]) > tol:
            return f"{key}: {fp[key]!r} != reference {ref[key]!r} (tol {tol:g})"
    return None


def load_references(cfg_dict: dict) -> dict | None:
    """Recorded fingerprints per seed; None if the file was recorded for
    another scenario or batch size."""
    data = json.loads(REFERENCE.read_text())
    same = dict(cfg_dict, seed=None) == dict(data["scenario"], seed=None)
    if not same or data["n_paths"] != POOLED_PATHS:
        return None
    return data["seeds"]


class Pooled:
    name = "pooled"
    ops_per_unit = POOLED_PATHS + len(SOLO_OFFSETS) + 3

    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.model = self.cfg.model()
        self.sim = self.cfg.sim_config()
        self.first_fp = None
        self.first_records = None
        self.solo: list[float] = []
        self.checks: list[float] = []

    def unit(self, k, tracer):
        clock = self.ctx.clock
        records, sim = clock.time(lambda: engine.simulate_paths(
            self.model, self.cfg.horizon, self.sim, seed=self.cfg.seed,
            n_paths=POOLED_PATHS,
        ))
        solo = time_solo_paths(self.ctx, self.model, lambda _: self.sim, self.solo)
        checks = []
        for _ in range(CHECK_REPEATS):
            (zp, cons), handle = clock.time(lambda: (
                verification.zero_profit_test(records),
                verification.consistency_check(records, self.cfg.grid),
            ))
            checks.append(handle)
        self.checks += checks

        ledger = self.ctx.ledger
        ledger.count(POOLED_PATHS + len(solo))
        ledger.check(zp.passed, f"unit {k}: zero_profit_test failed "
                     f"(z_buy={zp.z_buy:+.3f}, z_sell={zp.z_sell:+.3f})")
        ledger.check(cons.passed, f"unit {k}: consistency_check failed ({cons})")
        # path k of a batch equals a solo run at offset k
        bad = [o for o, rec in zip(SOLO_OFFSETS, solo)
               if fingerprint_mismatch(fingerprint([rec]), fingerprint([records[o]]))]
        ledger.check(not bad, f"unit {k}: solo runs differ from batch rows {bad}")
        fp = fingerprint(records)
        if self.first_fp is None:
            self.first_fp, self.first_records = fp, records
            self.ctx.info["z_buy"], self.ctx.info["z_sell"] = zp.z_buy, zp.z_sell
        else:
            ledger.check(fp == self.first_fp, f"unit {k}: batch differs from unit 0")
        return {"sim": sim, "solo": self.solo[-len(solo):], "checks": checks}

    def after_loop(self, units):
        """Unit 0's fingerprint against the one recorded for this seed."""
        ledger = self.ctx.ledger
        refs = load_references(self.ctx.cfg_dict)
        ledger.check(refs is not None, f"{REFERENCE.name} was recorded for "
                     "another scenario or batch size")
        ref = (refs or {}).get(str(self.cfg.seed))
        if ref is None:
            self.ctx.info["reference"] = "no recorded reference for this seed"
        else:
            self.ctx.info["reference"] = "recorded"
            bad = fingerprint_mismatch(self.first_fp, ref)
            ledger.check(bad is None, f"fingerprint differs from reference: {bad}")

    def probe_records(self):
        return self.first_records

    def end_to_end(self, units):
        sec = self.ctx.clock.seconds
        sim = statistics.median(sec(u["sim"]) for u in units)
        solo = [sec(h) for h in self.solo]
        checks = [sec(h) for h in self.checks]
        work = [sec(u["sim"]) + sum(sec(h) for h in u["solo"])
                + statistics.median(sec(h) for h in u["checks"]) for u in units]
        self.ctx.note_tail("solo_path_s", solo)
        return {
            "wall_s": statistics.median(work),
            "paths_per_s": POOLED_PATHS / sim,
            "solo_path_s_p50": statistics.median(solo),
            "check_s": statistics.median(checks),
            "simulate_cmd_s": sim,
            "verify_cmd_s": statistics.median(checks),
        }


# --------------------------------------------------------------------------
# Dense filter: solo paths on the 8-state Gaussian chain, replayed


def filter_check(record, model) -> dict:
    """verify's filter check: oracle replays at h, h/2, h/4, compared with
    the engine's sampled beliefs; pass needs max_l1 <= 0.01 and a
    self-convergence ratio in [1.5, 2.5]."""
    runs = {}
    for step in (FILTER_H, FILTER_H / 2, FILTER_H / 4):
        runs[step] = verification.oracle_filter(
            record, model, verification.OracleFilterConfig(h=step)
        )
    cmp = verification.compare_filters(
        record.sample_times, record.sample_beliefs, *runs[FILTER_H]
    )
    gap_coarse = float(abs(runs[FILTER_H][1][-1] - runs[FILTER_H / 2][1][-1]).sum())
    gap_fine = float(abs(runs[FILTER_H / 2][1][-1] - runs[FILTER_H / 4][1][-1]).sum())
    ratio = gap_coarse / gap_fine if gap_fine > 1e-12 else None
    passed = cmp.max_l1 <= 0.01 and (ratio is None or 1.5 <= ratio <= 2.5)
    return {"max_l1": cmp.max_l1, "ratio": ratio, "passed": passed}


class DenseFilter:
    name = "dense_filter"
    ops_per_unit = 2

    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.model = self.cfg.model()
        self.sim = self.cfg.sim_config(sample_dt=FILTER_H / 4)
        self.records = []

    def unit(self, k, tracer):
        clock = self.ctx.clock
        record, sim = clock.time(lambda: engine.simulate_gmps_path(
            self.model, self.cfg.horizon, self.sim, seed=self.cfg.seed, offset=0
        ))
        result, check = clock.time(lambda: filter_check(record, self.model))
        self.ctx.ledger.count(1)
        self.ctx.ledger.check(
            result["passed"],
            f"unit {k}: filter check failed (max_l1={result['max_l1']:.3e}, "
            f"ratio={result['ratio']})",
        )
        if not self.records:
            self.records.append(record)
            self.ctx.info["max_l1"], self.ctx.info["ratio"] = result["max_l1"], result["ratio"]
        return {"sim": sim, "check": check}

    def after_loop(self, units):
        pass

    def probe_records(self):
        return self.records

    def end_to_end(self, units):
        sec = self.ctx.clock.seconds
        sims = [sec(u["sim"]) for u in units]
        checks = [sec(u["check"]) for u in units]
        self.ctx.note_tail("solo_path_s", sims)
        return {
            "wall_s": statistics.median(a + b for a, b in zip(sims, checks)),
            "paths_per_s": 1.0 / statistics.median(sims),
            "solo_path_s_p50": statistics.median(sims),
            "check_s": statistics.median(checks),
            "simulate_cmd_s": statistics.median(sims),
            "verify_cmd_s": statistics.median(checks),
        }


# --------------------------------------------------------------------------
# CLI: the gmsim command as a user runs it


def events_match_summary(out_dir: Path) -> tuple[bool, int, int]:
    with (out_dir / "events.jsonl").open() as fh:
        n_lines = sum(1 for _ in fh)
    with (out_dir / "summary.csv").open(newline="") as fh:
        n_summary = sum(int(row["n_events"]) for row in csv.DictReader(fh))
    return n_lines == n_summary, n_lines, n_summary


class Cli:
    name = "cli"
    ops_per_unit = 6 + 4 * len(SOLO_OFFSETS)

    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.model = self.cfg.model()
        self.summary_csv = None
        self.records = None
        self.solo: list[float] = []

    def unit(self, k, tracer):
        ctx = self.ctx
        scen = str(ctx.scenario_path)
        sim_dir = ctx.work / f"simulate-{k}"
        ver_dir = ctx.work / f"verify-{k}"
        commands = [
            ("check", ["check", "--config", scen]),
            ("solve-static", ["solve-static", "--config", scen, "--scan-roots"]),
            ("simulate", ["simulate", "--config", scen, "--paths", str(CLI_PATHS),
                          "--seed", str(ctx.seed), "--out", str(sim_dir)]),
            ("verify", ["verify", "--config", scen, "--paths", str(CLI_PATHS),
                        "--out", str(ver_dir)]),
        ]
        out = {}
        records = []
        for j, (label, args) in enumerate(commands):
            with maybe_span(tracer, f"cli.{label}"):
                (_, proc), out[label] = ctx.clock.time(
                    lambda: run_command(gmsim_argv(*args), ctx.work))
            # the next len(SOLO_OFFSETS) of the command's paths, in process,
            # between commands: solo samples spread over the whole run, and
            # their median is over 4 x 16 distinct paths
            offsets = [j * len(SOLO_OFFSETS) + o for o in SOLO_OFFSETS]
            records += time_solo_paths(ctx, self.model, self.cli_sim, self.solo, offsets)
            ctx.ledger.count(len(offsets))
            ctx.ledger.check(
                proc.returncode == 0,
                f"round {k}: gmsim {label} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}",
            )
        self.records = records
        ok = "overall: PASS" in proc.stdout  # verify ran last
        report = ver_dir / "verify_report.json"
        if report.is_file():
            ok = ok and json.loads(report.read_text()).get("passed") is True
        else:
            ok = False
        ctx.ledger.check(ok, f"round {k}: verify did not PASS")
        if (sim_dir / "events.jsonl").is_file() and (sim_dir / "summary.csv").is_file():
            same, n_lines, n_summary = events_match_summary(sim_dir)
            self.summary_csv = (sim_dir / "summary.csv").read_text()
        else:
            same, n_lines, n_summary = False, 0, 0
        ctx.ledger.check(same, f"round {k}: events.jsonl has {n_lines} lines, "
                         f"summary.csv sums to {n_summary}")
        shutil.rmtree(sim_dir, ignore_errors=True)
        shutil.rmtree(ver_dir, ignore_errors=True)
        return out

    def after_loop(self, units):
        """Check summary.csv's first rows against the in-process solo runs
        of the same paths."""
        expected = [
            [str(r.offset), str(len(r.events)), str(r.n_buys), str(r.n_sells),
             repr(float(r.buy_profit)), repr(float(r.sell_profit))]
            for r in self.records
        ]
        rows = list(csv.reader(self.summary_csv.splitlines()))[1:] if self.summary_csv else []
        self.ctx.ledger.check(
            rows[:len(expected)] == expected,
            "summary.csv differs from an in-process simulate",
        )

    def cli_sim(self, offset):
        """The SimConfig `gmsim simulate` uses for a path."""
        return self.cfg.sim_config(
            sample_dt=self.cfg.horizon / 400.0 if offset == 0 else None
        )

    def probe_records(self):
        return self.records

    def end_to_end(self, units):
        sec = self.ctx.clock.seconds
        cmd = {label: statistics.median(sec(u[label]) for u in units)
               for label in COMMANDS}
        self.ctx.info.update({f"{label}_cmd_s": cmd[label] for label in COMMANDS})
        solo = [sec(h) for h in self.solo]
        self.ctx.note_tail("solo_path_s", solo)
        return {
            "wall_s": statistics.median(sum(sec(u[label]) for label in COMMANDS)
                                        for u in units),
            "paths_per_s": CLI_PATHS / cmd["simulate"],
            "solo_path_s_p50": statistics.median(solo),
            "check_s": cmd["verify"],
            "simulate_cmd_s": cmd["simulate"],
            "verify_cmd_s": cmd["verify"],
        }


# --------------------------------------------------------------------------
# The run


def instrument(tracer) -> None:
    """Span every call into these public functions made through their
    module, by the benchmark or by the library."""
    for attr in ("simulate_paths", "path_streams", "sample_value_path",
                 "sample_arrival_times"):
        tracer.wrap(engine, attr, "engine")
    tracer.wrap(engine, "simulate_gmps_path", "engine",
                path_id=lambda args, kwargs: kwargs.get("offset", 0),
                counts=lambda rec: {"events": len(rec.events), "trades": rec.n_trades})
    for attr in ("zero_profit_test", "consistency_check", "oracle_filter",
                 "compare_filters", "transition_matrix"):
        tracer.wrap(verification, attr, "verification")


class Context:
    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ledger = Ledger()
        self.clock = HostClock()
        self.info: dict = {}
        self.tracer = None
        self.cfg_dict = scenario(workload, seed)
        self.scenario_path = work / "scenario.yaml"
        self.scenario_path.write_text(yaml.safe_dump(self.cfg_dict, sort_keys=False))
        self.cfg = config.load_scenario(self.scenario_path)

    def note_tail(self, label, values):
        tail = tail_percentile(values)
        self.info[f"{label}_samples"] = len(values)
        if tail is not None:
            self.info[f"{label}_{tail[0]}"] = tail[1]


def measure_setup(ctx) -> list[int]:
    """Time fresh interpreters that import gmsim, load the scenario, run
    the admissibility scan and solve the prior's quotes; returns the
    HostClock handles."""
    expected = gmsim.solve_static_quotes(
        ctx.cfg.initial_belief, ctx.cfg.grid, ctx.cfg.noise, tol=ctx.cfg.fp_tol
    )
    want = f"True {expected.ask!r} {expected.bid!r}"
    handles = []
    for i in range(SETUP_REPEATS):
        (_, proc), handle = ctx.clock.time(lambda: run_command(
            [sys.executable, "-c", SETUP_CODE, str(ctx.scenario_path)], ctx.work
        ))
        handles.append(handle)
        ctx.ledger.check(
            proc.returncode == 0 and proc.stdout.strip() == want,
            f"set-up {i}: got {proc.stdout.strip()!r} (exit {proc.returncode}), "
            f"want {want!r}",
        )
    return handles


def run_unit(ctx, wl, k, traced):
    tracer = ctx.tracer if traced else None
    t0 = time.perf_counter()
    try:
        with maybe_span(tracer, "bench.unit") as span:
            if tracer is not None:
                span["trace"] = tracer.trace_id = f"{ctx.workload}/unit{k}"
                instrument(tracer)
            out = wl.unit(k, tracer)
    except Exception as exc:  # a raise counts as failed operations
        ctx.ledger.fail(f"unit {k} raised {exc!r}", wl.ops_per_unit)
        return None
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    out.update(wall=time.perf_counter() - t0, k=k, traced=traced,
               root=span["id"] if tracer is not None else None)
    return out


def timed_loop(ctx, wl) -> list[dict]:
    """Closed loop: the next unit starts when the last one ended, while
    the shortest unit so far still fits in `seconds`. Traced runs do each
    unit twice, traced and untraced in alternating order, to measure
    tracing overhead."""
    units = []
    start = time.perf_counter()
    k = 0
    while True:
        order = (False,)
        if ctx.tracer is not None:
            order = (False, True) if k % 2 == 0 else (True, False)
        if units:
            need = len(order) * min(u["wall"] for u in units)
            if time.perf_counter() - start + need > ctx.seconds:
                break
        for traced in order:
            out = run_unit(ctx, wl, k, traced)
            if out is not None:
                units.append(out)
        k += 1
        if not units:
            raise RuntimeError("the first unit failed; see the failures above")
    return units


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


UNITS = {
    "setup_s": "s", "wall_s": "s", "paths_per_s": "1/s", "solo_path_s_p50": "s",
    "check_s": "s", "simulate_cmd_s": "s", "verify_cmd_s": "s", "peak_rss_mb": "MB",
}
CLASSES = {"pooled": Pooled, "dense_filter": DenseFilter, "cli": Cli}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ctx = Context(workload, seed, seconds, work)
    wl = CLASSES[workload](ctx)
    if trace:
        ctx.tracer = Tracer(f"{workload}/seed{seed}")
        units = timed_loop(ctx, wl)
        wl.after_loop(units)
        values, metric_units = probes.layer_metrics(ctx, wl, units)
        spans_path = runenv.OUT / f"spans-{workload}-seed{seed}.jsonl"
        ctx.tracer.write(spans_path)
        ctx.info["spans_file"] = str(spans_path.relative_to(runenv.ROOT))
    else:
        setups = measure_setup(ctx)
        units = timed_loop(ctx, wl)
        wl.after_loop(units)
        setup_s = [ctx.clock.seconds(h) for h in setups]
        ctx.info["setup_samples"] = setup_s
        values = dict(wl.end_to_end(units), setup_s=statistics.median(setup_s),
                      peak_rss_mb=peak_rss_mb())
        ctx.info["host_scale"] = ctx.clock.scale()
        ctx.info["cpu_affinity"] = sorted(os.sched_getaffinity(0))
        metric_units = UNITS
    ctx.info["units"] = len(units)
    return {
        "correct": not ctx.ledger.failures,
        "attempted": ctx.ledger.attempted,
        "failed": len(ctx.ledger.failures),
        "metrics": {
            name: {"value": values[name], "unit": metric_units[name]}
            for name in sorted(values)
        },
        "info": ctx.info,
        "failures": ctx.ledger.failures,
    }


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this interpreter; the last stdout line is the
    JSON result."""
    runenv.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runenv.OUT))
    try:
        result = run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0
