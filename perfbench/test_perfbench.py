"""The benchmark's own test: its checks bite, and its counts repeat.

    PYTHONPATH=src python3 -m pytest perfbench -q

Slow (several minutes): the reproducibility test makes two traced runs per
workload and seed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
import yaml

import probes
import run
import runenv
import workloads
from gmsim import config, engine

COUNTS = (
    "equilibrium.picard_iters_mean",
    "equilibrium.picard_iters_max",
    "beliefs.rk4_steps_per_path",
    "engine.events_per_path",
    "engine.trades_per_path",
    "cli.events_bytes",
)
DEVELOPMENT_SEED = 3
UNUSED_SEED = 7919  # never run while the benchmark was written


def bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(runenv.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=runenv.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((runenv.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.METRIC_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.CLASSES) == run.WORKLOADS


def test_verify_negative_control_exits_1(tmp_path):
    scen = tmp_path / "scenario.yaml"
    scen.write_text(yaml.safe_dump(workloads.scenario("cli", workloads.CLI_VERIFY_SEED)))
    _, proc = runenv.run_command(runenv.gmsim_argv(
        "verify", "--config", str(scen), "--paths", str(workloads.CLI_PATHS),
        "--perturb-ask", "0.05"), tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "overall: FAIL" in proc.stdout


def test_fingerprint_check_flags_altered_batches():
    cfg = config.scenario_from_dict(workloads.scenario("pooled", 0))
    records = engine.simulate_paths(cfg.model(), cfg.horizon, cfg.sim_config(),
                                    seed=0, n_paths=workloads.POOLED_PATHS)
    fp = workloads.fingerprint(records)
    ref = workloads.load_references(workloads.scenario("pooled", 0))["0"]
    assert workloads.fingerprint_mismatch(fp, ref) is None

    tol = workloads.PROFIT_TOL_PER_TRADE * (fp["n_buys"] + fp["n_sells"])
    assert workloads.fingerprint_mismatch(
        dict(fp, buy_profit_sum=fp["buy_profit_sum"] + 0.5 * tol), ref) is None
    assert workloads.fingerprint_mismatch(
        dict(fp, buy_profit_sum=fp["buy_profit_sum"] + 2.0 * tol), ref)
    swapped = [records[1], records[0]] + records[2:]
    if (records[0].n_buys, records[0].n_sells) != (records[1].n_buys, records[1].n_sells):
        assert workloads.fingerprint_mismatch(workloads.fingerprint(swapped), ref)
    assert workloads.fingerprint_mismatch(dict(fp, n_sells=fp["n_sells"] + 1), ref)


def test_pooled_run_reports_an_altered_reference(tmp_path, monkeypatch):
    data = json.loads(workloads.REFERENCE.read_text())
    entry = data["seeds"]["0"]
    entry["counts_sha256"] = "0" * 64
    altered = tmp_path / "reference.json"
    altered.write_text(json.dumps(data))
    monkeypatch.setattr(workloads, "REFERENCE", altered)
    work = tmp_path / "work"
    work.mkdir()
    result = workloads.run("pooled", 0, 0.0, False, work)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "reference" in result["failures"][0]


@pytest.mark.parametrize("seed", [DEVELOPMENT_SEED, UNUSED_SEED])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload, seed):
    first = bench(workload, seed, trace=1)
    second = bench(workload, seed, trace=1)
    for result in (first, second):
        assert result["correct"], result
        assert set(result["metrics"]) == set(probes.METRIC_UNITS)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
