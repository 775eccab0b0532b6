#!/usr/bin/env python3
"""Run-to-run spread of the txbench metrics.

    python3 txbench/spread.py [--runs N] [--first-seed S] [--trace 0|1]
                              [--workloads a,b] [--seconds T]

Runs the benchmark N times per workload, each with another seed, and prints
for every metric the median, the quartiles and the interquartile range as a
share of the median -- the figure the bounds in BENCHMARK.json are set
from. With --trace 0 it also prints each end-to-end metric's bound and
flags a spread above a third of it. Exits nonzero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        start = time.monotonic()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(ROOT, "txbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if out.returncode or not result.get("correct") \
                    or result.get("failed"):
                ok = False
                print(f"{workload} seed {seed}: rc={out.returncode} "
                      f"{lines[-1] if lines else out.stderr[-500:]}")
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        wall = (time.monotonic() - start) / args.runs
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s, "
              f"{wall:.1f} s wall per run")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:34s} median {med:14.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  iqr/median {spread:7.4f}")
            if name in bounds:
                flag = "" if name == "setup_s" or spread < bounds[name] / 3 \
                    else "  ABOVE bound/3"
                line += f"  bound {bounds[name]:.2f}{flag}"
            print(line, flush=True)
            print("    runs: " + " ".join(f"{x:.6g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
