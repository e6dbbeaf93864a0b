#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads steady,failover --seeds 10 [--first-seed 1] [--verbose]

With --seeds 1 --verbose over all four workloads it is the one command that
prints every end-to-end reading of every workload and runs each oracle.

The spread of a metric is (Q3 - Q1) / median over the runs, with Q1 and Q3
from statistics.quantiles(values, n=4). A metric is flagged when its
spread exceeds a third of its bound (setup_s is reported, not flagged).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--verbose", action="store_true", help="echo each run's full report")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            if args.verbose:
                print(out.stdout, end="")
            result = json.loads(out.stdout.splitlines()[-1])
            row = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {row}", flush=True)
            for name in bounds:
                values[name].append(row[name])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above bound/3"
            if flag:
                ok = False
            print(f"  {workload:<10} {name:<22} median={med:<14.6g} spread={spread:.4f} "
                  f"bound={bounds[name]}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
