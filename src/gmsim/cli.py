"""Command-line front end.

Four subcommands, all driven by a YAML scenario file:

    gmsim check --config scenario.yaml
    gmsim solve-static --config scenario.yaml [--belief 0.3,0.7] [--scan-roots]
    gmsim simulate --config scenario.yaml [--paths N] [--out DIR]
    gmsim verify --config scenario.yaml [--paths N] [--out DIR]

The commands only parse their arguments, call the library, print and
write files. What a verify check runs, when it passes and what it prints
all live in gmsim.verification; `verify` reads only `passed` of its report.

Exit codes: 0 success, 1 a verification or condition check failed, 2 bad
configuration or usage (including a negative seed or an unwritable --out),
3 numerical failure (no convergence, degenerate probabilities, insufficient
data). A command that fails removes the --out directories it created. All
randomness flows from the scenario seed; rerunning a command with the same
inputs rewrites identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ScenarioConfig, _keyed, load_scenario
from .core import Belief
from .engine import PathRecord, simulate_gmps_path, simulate_paths
from .equilibrium import (
    contraction_constants,
    find_fixed_points,
    solve_static_quotes,
)
from .errors import ConfigError, GmsimError
from .noise import check_gm_condition
from .verification import _report_lines, run_verify


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    cfg = load_scenario(args.config)
    report = check_gm_condition(cfg.noise, cfg.grid.width)
    print(f"K        = {_fmt(report.K)}")
    print(f"M        = {_fmt(report.M)}")
    print(f"Phi(0)   = {_fmt(report.phi_at_zero)}")
    print(f"Phi(C)   = {_fmt(report.phi_at_c)}")
    if not report.passes:
        print("condition: FAIL (needs K < 1 and 0 < Phi(0) < 1)")
        return 1
    constants = contraction_constants(cfg.grid, cfg.noise, cfg.arrival_rate)
    print(f"L        = {_fmt(constants.L)}")
    print(f"K1       = {_fmt(constants.K1)}")
    print(f"t_star   = {_fmt(constants.t_star)}")
    print("condition: PASS")
    return 0


# --------------------------------------------------------------------------
# solve-static


def _parse_belief(text: str) -> Belief:
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--belief: expected comma-separated numbers, got {text!r}")
    return _keyed("--belief", Belief, values)


def cmd_solve_static(args) -> int:
    cfg = load_scenario(args.config)
    belief = cfg.initial_belief if args.belief is None else _parse_belief(args.belief)
    if belief.n != cfg.grid.n:
        raise ConfigError(
            f"--belief: got {belief.n} entries for a {cfg.grid.n}-state grid"
        )
    quotes = solve_static_quotes(
        belief, cfg.grid, cfg.noise, tol=cfg.fp_tol, force=args.force
    )
    print(f"ask    = {_fmt(quotes.ask)}   ({quotes.ask_iterations} iterations)")
    print(f"bid    = {_fmt(quotes.bid)}   ({quotes.bid_iterations} iterations)")
    print(f"spread = {_fmt(quotes.spread)}")
    if args.scan_roots:
        for label, buy_side in (("ask", True), ("bid", False)):
            roots = find_fixed_points(belief, cfg.grid, cfg.noise, buy_side=buy_side)
            listed = ", ".join(_fmt(r) for r in roots) if roots else "none"
            print(f"{label} fixed points on scan: {listed}")
    return 0


# --------------------------------------------------------------------------
# simulate


def _event_json(offset: int, e) -> str:
    eps = e.eps if math.isfinite(e.eps) else ("inf" if e.eps > 0 else "-inf")
    return json.dumps(
        {
            "path": offset,
            "t": e.t,
            "x": e.x,
            "eps": eps,
            "ask": e.ask,
            "bid": e.bid,
            "outcome": e.outcome.value,
            "belief_before": [float(v) for v in e.belief_before],
            "belief_after": [float(v) for v in e.belief_after],
            "profit": e.profit,
        }
    )


def _with_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """The scenario with --seed and --paths applied; ScenarioConfig checks
    them as it checks a scenario file's seed and n_paths."""
    return replace(
        cfg,
        seed=cfg.seed if args.seed is None else args.seed,
        n_paths=cfg.n_paths if args.paths is None else args.paths,
    )


def _make_out_dir(path: str, made: list[Path]) -> Path:
    """Create the output directory up front, so that an unwritable one
    fails before any simulation runs; append to made each directory this
    creates, outermost first, for main to remove if the command fails."""
    out_dir = Path(path)
    missing = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    made.extend(reversed(missing))
    return out_dir


def _write_outputs(out_dir: Path, records: list[PathRecord], plot: PathRecord,
                   grid) -> list[str]:
    events_path = out_dir / "events.jsonl"
    with events_path.open("w") as fh:
        for rec in records:
            for e in rec.events:
                fh.write(_event_json(rec.offset, e) + "\n")

    summary_path = out_dir / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["path", "n_events", "n_buys", "n_sells", "buy_profit", "sell_profit"]
        )
        for rec in records:
            writer.writerow(
                [rec.offset, len(rec.events), rec.n_buys, rec.n_sells,
                 repr(float(rec.buy_profit)), repr(float(rec.sell_profit))]
            )

    plot_path = out_dir / "plot.csv"
    means = plot.sample_beliefs @ grid.values
    with plot_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "ask", "bid", "mean", "x"])
        for i, t in enumerate(plot.sample_times):
            writer.writerow(
                [repr(float(t)), repr(float(plot.sample_asks[i])),
                 repr(float(plot.sample_bids[i])), repr(float(means[i])),
                 repr(float(plot.sample_values[i]))]
            )
    return [events_path.name, summary_path.name, plot_path.name]


def cmd_simulate(args) -> int:
    cfg = _with_overrides(load_scenario(args.config), args)
    out_dir = _make_out_dir(args.out, args.made)
    sim = cfg.sim_config(perturb_ask=args.perturb_ask, force=args.force)
    records = simulate_paths(cfg, cfg.horizon, sim, seed=cfg.seed, n_paths=cfg.n_paths)
    # path 0 again for plot.csv, its filter state sampled on the horizon/400
    # grid; sampling does not move a path, so its events are records[0]'s
    plot = simulate_gmps_path(
        cfg, cfg.horizon, replace(sim, sample_dt=cfg.horizon / 400.0),
        seed=cfg.seed, offset=0,
    )
    written = _write_outputs(out_dir, records, plot, cfg.grid)
    n_trades = sum(r.n_trades for r in records)
    print(
        f"{cfg.n_paths} path(s), {n_trades} trades, seed {cfg.seed}; "
        f"wrote {', '.join(written)} in {out_dir}"
    )
    return 0


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _with_overrides(load_scenario(args.config), args)
    out_dir = None if args.out is None else _make_out_dir(args.out, args.made)
    report = run_verify(cfg, perturb_ask=args.perturb_ask, force=args.force)
    print("\n".join(_report_lines(report)))
    if out_dir is not None:
        (out_dir / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmsim",
        description="Event-driven Glosten-Milgrom market making simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario YAML file")

    def add_run_flags(p):
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--paths", type=int, help="override n_paths")
        p.add_argument("--force", action="store_true",
                       help="iterate without a contraction certificate")
        p.add_argument("--perturb-ask", type=float, default=0.0,
                       help="shift every ask up by this fraction of the range")

    p_check = sub.add_parser("check", help="evaluate the admissibility condition")
    add_common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_solve = sub.add_parser("solve-static", help="solve the static quotes")
    add_common(p_solve)
    p_solve.add_argument("--belief", help="override belief, e.g. 0.3,0.7")
    p_solve.add_argument("--force", action="store_true",
                         help="iterate without a contraction certificate")
    p_solve.add_argument("--scan-roots", action="store_true",
                         help="also list every fixed point found by a scan")
    p_solve.set_defaults(handler=cmd_solve_static)

    p_sim = sub.add_parser("simulate", help="simulate paths, write logs")
    add_common(p_sim)
    add_run_flags(p_sim)
    p_sim.add_argument("--out", default="gmsim-out", help="output directory")
    p_sim.set_defaults(handler=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    add_common(p_ver)
    add_run_flags(p_ver)
    p_ver.add_argument("--out", help="directory for verify_report.json")
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command. If it fails, the --out directories it created are
    removed again, innermost first, each only while it is empty."""
    args = build_parser().parse_args(argv)
    args.made = []
    code = 1  # an error that no clause below takes fails the command too
    try:
        code = args.handler(args)
    except (ConfigError, OSError) as exc:  # bad input, or a path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except GmsimError as exc:  # every other error is numerical
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    finally:
        if code != 0:
            for path in reversed(args.made):
                with contextlib.suppress(OSError):
                    path.rmdir()
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
