"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads collapse_2d cert_sweep --runs 10

Runs `run.py` once per seed (1..runs) for each workload, one at a time, and
prints per metric the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (Q3 - Q1) / median.
Each run's JSON result line is appended to bench/artifacts/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["collapse_2d", "radial_collapse", "cert_sweep"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(BENCH, "artifacts"), exist_ok=True)
    log = os.path.join(BENCH, "artifacts", "spread.jsonl")
    for name in args.workloads:
        values, failed = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                                   name, "--seed", str(seed), "--trace", "0"],
                                  capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            failed.append(result["failed"] / result["attempted"])
            if proc.returncode or not result["correct"]:
                print(f"{name} seed {seed}: not correct\n{proc.stderr}", file=sys.stderr)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        print(f"{name}: {args.runs} runs, failed share {sorted(set(failed))}")
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {key}: median {statistics.median(vals):.4f}  Q1 {q1:.4f}  Q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / statistics.median(vals):.3f}  "
                  f"min {min(vals):.4f}  max {max(vals):.4f}")


if __name__ == "__main__":
    main()
