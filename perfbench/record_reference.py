"""Record the pooled workload's reference fingerprints.

    PYTHONPATH=src python3 perfbench/record_reference.py --first 0 --count 128

For each seed, simulates the pooled batch (the same simulate_paths call the
workload makes) and stores its fingerprint in reference_pooled.json: exact
buy and sell counts per path (as a sha256), their totals, and the side
profit sums, which the workload compares within PROFIT_TOL_PER_TRADE per
trade. Re-record only when the pooled scenario or batch size changes, and
only from code whose paths are trusted; the point of the file is that a
faster engine must reproduce it.
"""

from __future__ import annotations

import argparse
import json
import sys

import runenv

sys.path.insert(0, str(runenv.SRC))

from gmsim import config, engine, verification  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=128)
    args = parser.parse_args(argv)

    seeds = {}
    for seed in range(args.first, args.first + args.count):
        cfg = config.scenario_from_dict(workloads.scenario("pooled", seed))
        records = engine.simulate_paths(
            cfg.model(), cfg.horizon, cfg.sim_config(), seed=cfg.seed,
            n_paths=workloads.POOLED_PATHS,
        )
        zp = verification.zero_profit_test(records)
        seeds[str(seed)] = dict(workloads.fingerprint(records),
                                z_buy=zp.z_buy, z_sell=zp.z_sell)
        print(f"seed {seed}: z_buy={zp.z_buy:+.3f} z_sell={zp.z_sell:+.3f}",
              flush=True)
    data = {
        "scenario": workloads.scenario("pooled", None),
        "n_paths": workloads.POOLED_PATHS,
        "profit_tol_per_trade": workloads.PROFIT_TOL_PER_TRADE,
        "seeds": seeds,
    }
    workloads.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
