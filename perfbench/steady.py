#!/usr/bin/env python3
"""Steadiness check: runs one workload several times, with seeds 1, 2, ...,
for BENCHMARK.json's run_seconds each, and prints, per end-to-end metric,
the median, the quartiles and the spread (distance between the quartiles as
a share of the median) against the metric's bound.

    python3 perfbench/steady.py --workload <name> [--runs 10]

Run it from the repository root. A spread above a third of its bound is
flagged "wide"; above the bound, "OVER". Exits 1 if a run fails, reports
an incorrect output or a failed operation, or a spread is over its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    bad = False
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"run with seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] > 0:
            bad = True
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        bound = bounds[name]
        flag = ""
        if spread > bound:
            flag, bad = "OVER", True
        elif spread > bound / 3:
            flag = "wide"
        print(f"{name:20} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:6.2f} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
