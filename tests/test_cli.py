"""Command-line interface: exit codes, output files, determinism."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import gmsim.cli
from gmsim import load_scenario, run_verify, simulate_paths
from gmsim.cli import main
from gmsim.core import Belief, StateGrid
from gmsim.equilibrium import solve_ask, solve_bid
from gmsim.errors import ConfigError, InsufficientData
from gmsim.noise import Logistic

BASE = {
    "states": [0.0, 1.0],
    "generator": [[0.0, 0.5], [0.8, 0.0]],
    "lambda": 4.0,
    "noise": {"family": "logistic", "scale": 2.0},
    "initial_belief": [0.5, 0.5],
    "horizon": 3.0,
    "seed": 42,
    "ode_step": 0.02,
    "n_paths": 40,
}


@pytest.fixture
def write_scenario(tmp_path):
    def _write(name="scenario.yaml", **overrides):
        data = {**BASE, **overrides}
        for key, value in list(data.items()):
            if value is None:
                del data[key]
        path = tmp_path / name
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        return str(path)

    return _write


# --------------------------------------------------------------------------
# check


def test_check_passing_condition(write_scenario, capsys):
    code = main(["check", "--config", write_scenario()])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition: PASS" in out
    # Logistic tails give K = width / scale exactly.
    k_line = next(l for l in out.splitlines() if l.startswith("K "))
    assert float(k_line.split("=")[1]) == pytest.approx(0.5, abs=1e-12)
    assert "t_star" in out


def test_check_failing_condition(write_scenario, capsys):
    cfg = write_scenario(noise={"family": "logistic", "scale": 0.5})
    code = main(["check", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 1
    assert "condition: FAIL" in out
    assert "t_star" not in out


def test_check_missing_file_exits_2(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_invalid_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("states: [0.0, 1.0\n")
    assert main(["check", "--config", str(path)]) == 2


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario file") and "Traceback" not in err


def test_check_unknown_key_exits_2(write_scenario):
    assert main(["check", "--config", write_scenario(lamda=4.0)]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# solve-static


def test_solve_static_matches_library(write_scenario, capsys):
    code = main(["solve-static", "--config", write_scenario()])
    out = capsys.readouterr().out
    assert code == 0
    grid = StateGrid(BASE["states"])
    belief = Belief(BASE["initial_belief"])
    noise = Logistic(2.0)
    ask_line = next(l for l in out.splitlines() if l.startswith("ask"))
    bid_line = next(l for l in out.splitlines() if l.startswith("bid"))
    ask = float(ask_line.split("=")[1].split("(")[0])
    bid = float(bid_line.split("=")[1].split("(")[0])
    assert ask == pytest.approx(solve_ask(belief, grid, noise), abs=1e-10)
    assert bid == pytest.approx(solve_bid(belief, grid, noise), abs=1e-10)
    assert "spread" in out


def test_solve_static_belief_override(write_scenario, capsys):
    code = main(
        ["solve-static", "--config", write_scenario(), "--belief", "1,0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for label in ("ask", "bid"):
        line = next(l for l in out.splitlines() if l.startswith(label))
        assert float(line.split("=")[1].split("(")[0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("belief", ["0.2,0.3,0.5", "0.3,-0.7", "0,0", "nan,1"],
                         ids=["size", "negative", "zero_sum", "nan"])
def test_solve_static_belief_size_mismatch_exits_2(write_scenario, capsys, belief):
    """A bad --belief exits 2 with an error that names the flag."""
    code = main(["solve-static", "--config", write_scenario(), "--belief", belief])
    assert code == 2
    assert "error: --belief: " in capsys.readouterr().err


@pytest.mark.parametrize("belief", ["", " "], ids=["empty", "blank"])
def test_solve_static_empty_belief_exits_2(write_scenario, capsys, belief):
    """An empty --belief is a bad belief, not an absent one: it exits 2 with
    one error line and prints no quotes."""
    code = main(["solve-static", "--config", write_scenario(), "--belief", belief])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: --belief: belief must be a nonempty vector"]


def test_solve_static_refuses_uncertified_family(write_scenario, capsys):
    cfg = write_scenario(
        states=[1.0, 3.0],
        generator=[[0.0, 0.5], [0.8, 0.0]],
        initial_belief=[0.75, 0.25],
        noise={"family": "two_point", "value": 1.0, "prob": 0.5},
    )
    assert main(["solve-static", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_static_scan_lists_both_lattice_roots(write_scenario, capsys):
    cfg = write_scenario(
        states=[1.0, 3.0],
        generator=[[0.0, 0.5], [0.8, 0.0]],
        initial_belief=[0.75, 0.25],
        noise={"family": "two_point", "value": 1.0, "prob": 0.5},
    )
    code = main(["solve-static", "--config", cfg, "--force", "--scan-roots"])
    out = capsys.readouterr().out
    assert code == 0
    scan = next(l for l in out.splitlines() if l.startswith("ask fixed points"))
    roots = [float(v) for v in scan.split(":")[1].split(",")]
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.8, abs=1e-9)
    assert roots[1] == pytest.approx(3.0, abs=1e-9)


# stdout of solve-static --scan-roots on the README market and three others,
# recorded while the root scan still took one price at a time in Python
SCAN_PINS = {
    "logistic": ({}, [], (
        "ask    = 0.563142502294   (3 iterations)\n"
        "bid    = 0.436857497706   (3 iterations)\n"
        "spread = 0.126285004588\n"
        "ask fixed points on scan: 0.563142502294\n"
        "bid fixed points on scan: 0.436857497706\n"
    )),
    "gaussian": ({"noise": {"family": "gaussian", "sigma": 1.5}}, [], (
        "ask    = 0.639840283934   (5 iterations)\n"
        "bid    = 0.360159716066   (5 iterations)\n"
        "spread = 0.279680567868\n"
        "ask fixed points on scan: 0.639840283934\n"
        "bid fixed points on scan: 0.360159716066\n"
    )),
    "laplace": ({"noise": {"family": "laplace", "scale": 2.0}}, [], (
        "ask    = 0.615117592976   (4 iterations)\n"
        "bid    = 0.384882407024   (4 iterations)\n"
        "spread = 0.230235185952\n"
        "ask fixed points on scan: 0.615117592976\n"
        "bid fixed points on scan: 0.384882407024\n"
    )),
    "lattice": ({"states": [1.0, 3.0], "initial_belief": [0.75, 0.25],
                 "noise": {"family": "two_point", "value": 1.0, "prob": 0.5}}, ["--force"], (
        "ask    = 1.8   (2 iterations)\n"
        "bid    = 1   (2 iterations)\n"
        "spread = 0.8\n"
        "ask fixed points on scan: 1.8, 3\n"
        "bid fixed points on scan: 1\n"
    )),
}


@pytest.mark.parametrize("case", SCAN_PINS)
def test_solve_static_scan_output_is_pinned(case, write_scenario, capsys):
    overrides, flags, pinned = SCAN_PINS[case]
    cfg = write_scenario(**overrides)
    assert main(["solve-static", "--config", cfg, "--scan-roots", *flags]) == 0
    assert capsys.readouterr().out == pinned


# --------------------------------------------------------------------------
# simulate


def run_simulate(cfg, out_dir, *extra):
    return main(["simulate", "--config", cfg, "--out", str(out_dir), *extra])


def test_simulate_writes_expected_files(write_scenario, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_simulate(write_scenario(n_paths=5), out)
    assert code == 0
    assert (out / "events.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "plot.csv").exists()
    assert "5 path(s)" in capsys.readouterr().out


def test_simulate_summary_has_one_row_per_path(write_scenario, tmp_path):
    out = tmp_path / "run"
    run_simulate(write_scenario(n_paths=7), out)
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert [r["path"] for r in rows] == [str(i) for i in range(7)]
    for row in rows:
        assert int(row["n_events"]) >= int(row["n_buys"]) + int(row["n_sells"])
        float(row["buy_profit"])  # plain parseable numbers
        float(row["sell_profit"])


def test_simulate_events_jsonl_is_well_formed(write_scenario, tmp_path):
    out = tmp_path / "run"
    run_simulate(write_scenario(n_paths=3), out)
    outcomes = set()
    with (out / "events.jsonl").open() as fh:
        for line in fh:
            event = json.loads(line)
            assert set(event) == {
                "path", "t", "x", "eps", "ask", "bid", "outcome",
                "belief_before", "belief_after", "profit",
            }
            outcomes.add(event["outcome"])
            assert event["bid"] <= event["ask"]
            assert sum(event["belief_after"]) == pytest.approx(1.0, abs=1e-9)
    assert outcomes <= {"buy", "sell", "no_trade"}
    assert "buy" in outcomes or "sell" in outcomes


def test_simulate_plot_keeps_quotes_around_mean(write_scenario, tmp_path):
    out = tmp_path / "run"
    run_simulate(write_scenario(n_paths=2), out)
    with (out / "plot.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 400
    assert float(rows[0]["t"]) == 0.0
    for row in rows:
        bid, mean, ask = (float(row[k]) for k in ("bid", "mean", "ask"))
        assert bid <= mean + 1e-9
        assert mean <= ask + 1e-9
        assert float(row["x"]) in (0.0, 1.0)


def test_simulate_reruns_are_byte_identical(write_scenario, tmp_path):
    cfg = write_scenario(n_paths=4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_simulate(cfg, out_a)
    run_simulate(cfg, out_b)
    for name in ("events.jsonl", "summary.csv", "plot.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_seed_override_changes_output(write_scenario, tmp_path):
    cfg = write_scenario(n_paths=4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_simulate(cfg, out_a)
    run_simulate(cfg, out_b, "--seed", "43")
    assert (
        (out_a / "events.jsonl").read_bytes()
        != (out_b / "events.jsonl").read_bytes()
    )


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_an_arrival_count_no_path_can_hold_exits_2(command, write_scenario, tmp_path,
                                                   capsys):
    """lambda * horizon = 3e20 passes every field check, but no path can
    hold that many arrivals: a usage error, exit 2, never a traceback."""
    cfg = write_scenario(**{"lambda": 1.0e21, "horizon": 0.3})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda * horizon = 3e+20 expected arrivals, above the "
                          "1e+06 that one path can hold")
    assert "Traceback" not in err


def test_simulate_paths_override(write_scenario, tmp_path):
    out = tmp_path / "run"
    run_simulate(write_scenario(n_paths=9), out, "--paths", "2")
    with (out / "summary.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_simulate_path_0_is_the_unsampled_batch_path(write_scenario, tmp_path):
    """plot.csv samples path 0 in a second run, and sampling leaves a path
    alone: path 0 in summary.csv and events.jsonl is the unsampled batch's,
    bit for bit, and plot.csv's row at each of its arrivals holds the state
    after it."""
    path = write_scenario(n_paths=3)
    out = tmp_path / "run"
    assert run_simulate(path, out) == 0
    cfg = load_scenario(path)
    first = simulate_paths(cfg.model(), cfg.horizon, cfg.sim_config(),
                           seed=cfg.seed, n_paths=3)[0]
    assert first.n_trades > 2
    with (out / "summary.csv").open() as fh:
        summary = next(csv.DictReader(fh))
    assert summary == {
        "path": "0", "n_events": str(len(first.events)), "n_buys": str(first.n_buys),
        "n_sells": str(first.n_sells), "buy_profit": repr(first.buy_profit),
        "sell_profit": repr(first.sell_profit),
    }
    with (out / "events.jsonl").open() as fh:
        events = [line.rstrip("\n") for line in fh if json.loads(line)["path"] == 0]
    assert events == [gmsim.cli._event_json(0, e) for e in first.events]
    with (out / "plot.csv").open() as fh:
        plot = {row["t"]: row for row in csv.DictReader(fh)}
    for e in first.events:
        row = plot[repr(e.t)]
        assert float(row["x"]) == e.x
        assert float(row["mean"]) == pytest.approx(e.belief_after @ cfg.grid.values, abs=1e-15)


def test_simulate_zero_paths_exits_2(write_scenario, tmp_path):
    assert run_simulate(write_scenario(), tmp_path / "r", "--paths", "0") == 2


def test_simulate_uncertified_family_exits_3(write_scenario, tmp_path, capsys):
    cfg = write_scenario(
        states=[1.0, 3.0],
        generator=[[0.0, 0.5], [0.8, 0.0]],
        initial_belief=[0.75, 0.25],
        noise={"family": "two_point", "value": 1.0, "prob": 0.5},
    )
    assert run_simulate(cfg, tmp_path / "r") == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_crossed_quotes_exit_3(write_scenario, tmp_path, capsys):
    """A forced two-point market whose solved bid exceeds its ask is a
    numerical failure, not bad configuration."""
    cfg = write_scenario(
        noise={"family": "two_point", "value": 0.55, "prob": 0.7},
        ode_step=0.05, seed=3, horizon=1.0, n_paths=1,
    )
    assert run_simulate(cfg, tmp_path / "r", "--force") == 3
    assert "error: crossed quotes at t=" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--paths", "2"], ["simulate", "--paths", "40"], ["verify", "--paths", "8"],
], ids=["simulate_solo", "simulate_lockstep", "verify"])
def test_fp_tol_below_the_price_spacing_is_named(command, write_scenario, tmp_path, capsys):
    """On states [5000, 5001] prices are 9.1e-13 apart as floats, so the
    default fp_tol 1e-12, which is absolute, is about one spacing and the
    quote solves, scalar and row alike, seldom meet it: exit 3 with an error
    naming fp_tol and that spacing. With fp_tol 1e-11 the command runs."""
    cfg = write_scenario(states=[5000.0, 5001.0])
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fixed-point iteration still moving after ")
    assert "fp_tol 1e-12 is absolute" in err and "9.1e-13 apart as floats" in err
    cfg = write_scenario("tol.yaml", states=[5000.0, 5001.0], fp_tol=1.0e-11)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "b")]) == 0


# --------------------------------------------------------------------------
# verify


def test_verify_clean_scenario_passes(write_scenario, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(
        ["verify", "--config", write_scenario(horizon=1.5, n_paths=30),
         "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in text
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "zero_profit", "consistency", "filter_oracle", "intensity",
    }
    assert report["checks"]["zero_profit"]["status"] == "pass"
    assert abs(report["checks"]["zero_profit"]["z_buy"]) <= 3.0
    assert report["checks"]["filter_oracle"]["max_l1"] <= 0.01
    assert report["checks"]["consistency"]["max_quote_gap"] <= 1e-8


def test_verify_flags_perturbed_quotes(write_scenario, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(
        ["verify", "--config", write_scenario(horizon=1.5, n_paths=30),
         "--out", str(out), "--perturb-ask", "0.15"]
    )
    text = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in text
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is False
    # A shifted ask no longer equals the post-trade posterior mean.
    assert report["checks"]["consistency"]["status"] == "fail"
    assert report["checks"]["consistency"]["max_quote_gap"] > 1e-3


def test_verify_no_arrivals_skips_trade_checks(write_scenario, tmp_path, capsys):
    cfg = write_scenario(**{"lambda": 0.0}, horizon=1.0, n_paths=3)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "r")])
    text = capsys.readouterr().out
    assert code == 0
    report = json.loads((tmp_path / "r" / "verify_report.json").read_text())
    assert report["checks"]["zero_profit"]["status"] == "skipped"
    assert report["checks"]["intensity"]["status"] == "skipped"
    assert report["checks"]["filter_oracle"]["status"] == "pass"
    assert report["checks"]["consistency"]["status"] == "pass"
    assert report["passed"] is True
    assert text.count("SKIPPED") == 2


@pytest.mark.parametrize("attr, name", [("consistency_check", "consistency"),
                                        ("_filter_check", "filter_oracle")])
def test_a_skipped_check_prints_its_reason(attr, name, write_scenario, tmp_path, capsys,
                                           monkeypatch):
    """Any check that raises InsufficientData prints SKIPPED with its reason,
    whatever the check, and verify exits by the gate rule, with no traceback."""
    def short(*args):
        raise InsufficientData("too little to check")

    monkeypatch.setattr(gmsim.verification, attr, short)
    out = tmp_path / "r"
    code = main(["verify", "--config", write_scenario(horizon=0.5, n_paths=8),
                 "--out", str(out)])
    text = capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    assert report["checks"][name] == {"status": "skipped", "reason": "too little to check"}
    assert f"\nSKIPPED {name}  (too little to check)\n" in text
    assert report["passed"] is True and code == 0
    assert text.endswith("overall: PASS\n")


def test_only_the_gating_checks_gate(write_scenario, capsys, monkeypatch):
    """A failing entry outside GATING_CHECKS prints its line and leaves the
    verdict alone; named in GATING_CHECKS, the same entry fails verify."""
    extra = ("extra", lambda *_: {"seen": 3, "status": "fail"}, lambda c: f"seen={c['seen']}")
    monkeypatch.setattr(gmsim.verification, "_CHECKS", (*gmsim.verification._CHECKS, extra))
    cfg = write_scenario(horizon=0.5, n_paths=8)
    assert main(["verify", "--config", cfg]) == 0
    report_only = capsys.readouterr().out.splitlines()
    assert report_only[-2:] == ["FAIL    extra  seen=3", "overall: PASS"]
    monkeypatch.setattr(gmsim.verification, "GATING_CHECKS",
                        gmsim.verification.GATING_CHECKS | {"extra"})
    assert main(["verify", "--config", cfg]) == 1
    gating = capsys.readouterr().out.splitlines()
    assert gating == [*report_only[:-1], "overall: FAIL"]


def test_verify_without_out_writes_nothing(write_scenario, tmp_path, capsys):
    code = main(
        ["verify", "--config", write_scenario(horizon=0.5, n_paths=4,
                                              **{"lambda": 0.0})]
    )
    assert code == 0
    assert list(tmp_path.glob("*/verify_report.json")) == []


# Digests of stdout and verify_report.json for the README market at horizon
# 1.0 with the default ode_step and 30 paths, recorded while gmsim.cli still
# held the check orchestration that gmsim.verification.run_verify now runs.
# The clean and perturbed report digests were re-recorded when the chi-square
# p-values moved to the closed-form tail (by at most 2.3e-16 each, with
# every verdict and stdout unchanged). All three report digests, and the
# no_arrivals stdout digest, were re-recorded when the sample rows moved to
# the RK4 dense output: filter_oracle gained its ode_step, its max_l1 moved
# by at most 4.7e-15 and its convergence_ratio by at most 4.1e-7, and no
# verdict changed. The clean digests and the perturbed report digest were
# re-recorded when the logistic quote solves moved to Newton steps: every
# report field moved by at most 3.8e-7 (convergence_ratio; the rest by at
# most 3.8e-14), the clean stdout's quote_gap line with it, and no verdict
# changed. All three report digests, and the no_arrivals stdout digest, were
# re-recorded when the oracle replay came to normalise once at the end: in
# filter_oracle max_l1 moved by at most 2.8e-15 (the no_arrivals one, the
# oracle's own roundoff, printed as 1.30e-14 before and 1.02e-14 after),
# the self gaps by at most 1.1e-14 and convergence_ratio by at most 1.2e-6;
# every other field and every verdict stayed the same.
VERIFY_PINS = {
    "clean": (
        {}, [],
        "046c2daae4824d78f46a767ac469746e0897bef1a6eecdfee9619076049a3cd3",
        "51f47e8b0279ef9f0b8817773d38cd084f87bdc01096f349d39c7f7d8f113a55",
    ),
    "perturbed": (
        {}, ["--perturb-ask", "0.15"],
        "0e18a93ad3b1e4cb99d803eddc24acd438a49e6c13d44d614f4c7a2fc718335d",
        "a3a8c628ec545f425de8c53001cf9b610806a4948be48da62e4392c37fc1cb39",
    ),
    "no_arrivals": (
        {"lambda": 0.0}, [],
        "eff9fb3695b17433d0f18ad3e4a3f860309022dae4860de51a8487f95a914a4b",
        "98351962d156b43a418c8d3a4ad361f94f1e090c7bc796a06687348ad3c2c75b",
    ),
}


@pytest.mark.parametrize("case", VERIFY_PINS)
def test_verify_output_is_pinned(case, write_scenario, tmp_path, capsys):
    overrides, flags, stdout_sha, report_sha = VERIFY_PINS[case]
    cfg = write_scenario(horizon=1.0, ode_step=None, n_paths=None, **overrides)
    out = tmp_path / "r"
    main(["verify", "--config", cfg, "--paths", "30", "--out", str(out), *flags])
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == stdout_sha
    report = (out / "verify_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == report_sha


def test_run_verify_matches_the_written_report(write_scenario, tmp_path, capsys):
    cfg = write_scenario(horizon=0.5)
    out = tmp_path / "r"
    main(["verify", "--config", cfg, "--seed", "7", "--paths", "8",
          "--perturb-ask", "0.05", "--out", str(out)])
    written = json.loads((out / "verify_report.json").read_text())
    report = run_verify(replace(load_scenario(cfg), seed=7, n_paths=8), perturb_ask=0.05)
    assert report == written


def test_run_verify_holds_seeds_to_the_scenario_rule(write_scenario):
    """A seed a scenario file refuses cannot reach run_verify, and the
    largest scenario seed verifies although the intensity check runs
    seed + k."""
    cfg = load_scenario(write_scenario(horizon=0.5, seed=2**63 - 1))
    for seed in (2**63, 2**64 + 5):
        with pytest.raises(ConfigError, match="must fit in 64 bits"):
            run_verify(replace(cfg, seed=seed, n_paths=2))
    report = run_verify(replace(cfg, n_paths=8))
    assert report["seed"] == 2**63 - 1
    assert report["checks"]["intensity"]["pairs"]
    assert report["passed"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_exits_2(command, write_scenario, tmp_path, capsys):
    """A --seed or --paths override outside what a scenario file accepts
    exits 2 before --out is created."""
    cfg = write_scenario()
    out = tmp_path / "r"
    for flags, message in (
        (["--seed", "-3"], "nonnegative"),
        (["--seed", str(2**63)], "nonnegative"),
        (["--paths", "0"], "at least 1"),
    ):
        code = main([command, "--config", cfg, *flags, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_out_naming_a_file_exits_2_before_running(
    command, write_scenario, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("ran with an unwritable --out")

    monkeypatch.setattr(gmsim.cli, "simulate_gmps_path", never)
    monkeypatch.setattr(gmsim.cli, "run_verify", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main([command, "--config", write_scenario(), "--out", str(taken)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


# --------------------------------------------------------------------------
# any scenario exits 0-3


FAMILIES = [
    {"family": "logistic", "scale": 2.0},
    {"family": "gaussian", "sigma": 2.0},
    {"family": "laplace", "scale": 2.0},
    {"family": "two_point", "value": 1.0, "prob": 0.5},
    {"family": "noise_trader", "buy_prob": 0.5},
]
ODD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
              2**70, True, False, "x", None, [], {}]


def _runs_long(key, value):
    """A horizon above 0.3 or a step below 0.01: a valid run that is only
    long."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return (key == "horizon" and value > 0.3) or (key == "ode_step" and 0 < value < 0.01)


@st.composite
def mutated_scenarios(draw):
    """The README scenario with any family, a horizon of 0.3 and a step of
    0.02, and one to three of its entries replaced by an odd value or
    resized, leaving out the values that only ask for a long run."""
    data = copy.deepcopy({**BASE, "horizon": 0.3, "n_paths": 2, "fp_tol": 1e-12,
                          "noise": draw(st.sampled_from(FAMILIES))})
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(data)))
        target = data[key]
        if isinstance(target, list) and target and draw(st.booleans()):
            data[key] = [copy.deepcopy(target[0]) for _ in range(draw(st.integers(0, 3)))]
            continue
        value = draw(st.sampled_from(ODD_VALUES))
        if _runs_long(key, value):
            continue
        if isinstance(target, dict) and target:
            target[draw(st.sampled_from(sorted(target)))] = value
        elif isinstance(target, list) and target:
            i = draw(st.integers(0, len(target) - 1))
            if isinstance(target[i], list) and target[i]:
                target, i = target[i], draw(st.integers(0, len(target[i]) - 1))
            target[i] = value
        else:
            data[key] = value
    return data


@given(mutated_scenarios())
def test_any_scenario_exits_0_to_3_with_an_error_line(data):
    """check, solve-static --force and simulate --force on a drawn scenario
    exit 0, 1, 2 or 3 and raise nothing. On 2 or 3 the last line on stderr
    names the error: a forced run may log a warning before it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(data))
        for argv in (["check"], ["solve-static", "--force"],
                     ["simulate", "--paths", "2", "--force", "--out", str(Path(tmp) / "run")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(path)])
            assert code in (0, 1, 2, 3), (argv, data)
            if code in (2, 3):
                assert err.getvalue().splitlines()[-1].startswith("error: "), (argv, data)


# --------------------------------------------------------------------------
# runtime dependencies

# gmsim's main in an interpreter where importing scipy, or anything under
# it, fails: a lazy import on any path the command takes surfaces as an error.
WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from gmsim.cli import main

sys.exit(main(sys.argv[1:]))
"""


def run_python(*argv):
    """A fresh interpreter importing the gmsim these tests import."""
    env = {**os.environ, "PYTHONPATH": str(Path(gmsim.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("command, verdict", [
    (["check"], "condition: PASS"),
    (["verify", "--paths", "8"], "overall:"),
], ids=["check", "verify"])
def test_commands_run_without_scipy(command, verdict, write_scenario):
    cfg = write_scenario(horizon=0.5)
    proc = run_python("-c", WITHOUT_SCIPY, command[0], "--config", cfg, *command[1:])
    assert proc.returncode == 0, proc.stderr
    assert verdict in proc.stdout


@pytest.mark.parametrize("override, message", [
    ({"states": [-1.0e308, 1.0e308]}, "error: states: state grid width"),
    ({"generator": [[0.0, 1.0e308, 1.0e308], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
      "states": [0.0, 0.5, 1.0], "initial_belief": [0.4, 0.3, 0.3]},
     "error: generator: generator row 0: its exit rate"),
    ({"states": [-1.0e308, 0.0]}, "error: width: [-width, width] overflows, which the quote "
                                  "solves and verify's statistics cannot take"),
], ids=["states", "generator", "scan_interval"])
def test_overflowing_scenario_prints_only_its_error_line(override, message, write_scenario):
    """A scenario whose grid width, exit rate or interval [-width, width]
    overflows exits 2, and stderr holds the one
    error line: no numpy warning or traceback comes before it."""
    proc = run_python("-m", "gmsim.cli", "check", "--config", write_scenario(**override))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr


SILENT = {"lambda": 0.0, "generator": [[0.0, 0.0], [0.0, 0.0]], "horizon": 1.0e300}


@pytest.mark.parametrize("command, override, message", [
    (["simulate"], {**SILENT, "ode_step": 0.02},
     "error: ode_step: horizon / ode_step = 5e+301 RK4 steps, above the 1e+06 that one "
     "path can hold"),
    (["verify"], {**SILENT, "ode_step": 0.02}, "error: ode_step: horizon / ode_step = 5e+301"),
    (["simulate"], {**SILENT, "ode_step": 1.0e-10}, "error: ode_step: horizon / ode_step = inf"),
    (["solve-static"], {"initial_belief": [1.0e308, 1.0e308]},
     "error: initial_belief: belief total mass overflows"),
    (["simulate"], {"initial_belief": [1.0e308, 1.0e308]},
     "error: initial_belief: belief total mass overflows"),
], ids=["steps-simulate", "steps-verify", "steps-inf", "mass-solve-static", "mass-simulate"])
def test_a_run_no_path_can_hold_prints_only_its_error_line(command, override, message,
                                                           write_scenario, tmp_path):
    """A silent market over a horizon of 1e300 passes every field check, but
    its RK4 steps would never end (ode_step 0.02) or overflow (1e-10); a
    prior whose mass overflows would divide to a zero vector. Each exits 2
    with the one error line: no numpy warning or traceback before it."""
    cfg = write_scenario(**override)
    out = [] if command == ["solve-static"] else ["--out", str(tmp_path / "run")]
    proc = run_python("-m", "gmsim.cli", *command, "--config", cfg, *out)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr


TWO_POINT = {"states": [1.0, 3.0], "initial_belief": [0.75, 0.25],
             "noise": {"family": "two_point", "value": 1.0, "prob": 0.5}}


@pytest.mark.parametrize("command, override, out, code", [
    ("simulate", {**SILENT, "ode_step": 0.02}, "o_long", 2),
    ("verify", {**SILENT, "ode_step": 0.02}, "o_v/deep", 2),
    ("simulate", TWO_POINT, "o_tp", 3),
], ids=["steps-simulate", "steps-verify-nested", "uncertified-simulate"])
def test_a_failed_run_removes_the_out_directories_it_made(command, override, out, code,
                                                          write_scenario, tmp_path, capsys):
    """--out is created before the run, so that an unwritable one fails
    first; a run that then fails removes the directories it created, and
    leaves one that was there before, and its files, as they were."""
    cfg = write_scenario(**override)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    for target in (tmp_path / out, kept / out, kept):
        assert main([command, "--config", cfg, "--out", str(target)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "scenario.yaml"]
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine"


@pytest.mark.parametrize("override", [TWO_POINT, {"noise": {"family": "logistic", "scale": 0.5}}],
                         ids=["static_only", "condition_fails"])
def test_a_refused_quote_solve_names_the_force_flag(override, write_scenario, capsys):
    """A quote solve refused for want of a contraction certificate tells a
    command-line user which flag iterates anyway."""
    assert main(["solve-static", "--config", write_scenario(**override)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(--force) to iterate anyway" in err


@pytest.mark.parametrize("noise, code, lines", [
    ({"family": "gaussian", "sigma": 1.0e308}, 1, ["K        = 1.09392181535"]),
    ({"family": "laplace", "scale": 1.0e308}, 0,
     ["L        = inf", "K1       = inf", "t_star   = 0", "condition: PASS"]),
], ids=["gaussian", "laplace"])
def test_check_at_a_scale_near_the_float_limit(noise, code, lines, write_scenario):
    """Width 8e307 and scale 1e308: the certificate's formulas overflow no
    intermediate value, so check gives its verdict (K = 1.0939 fails, K =
    0.8 passes) and stderr stays empty, warnings as errors included."""
    cfg = write_scenario(states=[0.0, 8.0e307], noise=noise)
    proc = run_python("-W", "error", "-m", "gmsim.cli", "check", "--config", cfg)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    for line in lines:
        assert line in proc.stdout.splitlines(), proc.stdout


def test_importing_gmsim_loads_no_scipy():
    proc = run_python("-c", "import sys, gmsim, gmsim.cli; print(sorted("
                      "m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
