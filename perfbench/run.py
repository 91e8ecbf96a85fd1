"""gmsim benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload pooled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter, one process with one BLAS/OpenMP
thread. The report lists every metric with its unit, the correctness
verdict and the host; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import runenv

WORKLOADS = ("pooled", "dense_filter", "cli")
CHILD_TIMEOUT = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload's timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)  # the fresh child's side
    return parser.parse_args(argv)


def report(workload: str, result: dict, host: dict) -> None:
    print(f"== {workload}: {'CORRECT' if result['correct'] else 'INCORRECT'}; "
          f"{result['failed']} of {result['attempted']} operations failed "
          f"(error_rate {result['failed'] / result['attempted']:.4g})")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in result["info"].items():
        print(f"   ({key}: {value})")
    print(f"   host: {json.dumps(host)}")


def run_child(args, workload: str) -> dict | None:
    argv = [sys.executable, str(runenv.BENCH / "run.py"), "--in-process",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=runenv.ROOT, env=runenv.child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload {workload} exited {proc.returncode}",
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not runenv.source_present():
        print(f"perfbench: no gmsim source under {runenv.SRC}", file=sys.stderr)
        return 2
    if args.in_process:
        runenv.pin_to_one_cpu()
        import workloads

        return workloads.main(args.workload, args.seed, args.seconds, bool(args.trace))

    host = runenv.describe()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(args, name)
        if result is None:
            return 1
        results[name] = result
        report(name, result, host)

    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{name}.{metric}": value for name, r in results.items()
                   for metric, value in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
