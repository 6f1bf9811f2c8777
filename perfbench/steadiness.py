#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed for each workload (untraced) and prints,
for every end-to-end metric, the median over the runs and the interquartile
range as a share of the median -- the spread BENCHMARK.json bounds are
checked against:

    python3 perfbench/steadiness.py --runs 10 [--workloads t2x2,daemon-mix]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i,
                              bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: INCORRECT %s" %
                      (workload, args.first_seed + i, result))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (
                workload, args.first_seed + i,
                " ".join("%s=%.4g" % (name, values[name][-1])
                         for name in bounds)))
            sys.stdout.flush()
        print("%s (%d runs)" % (workload, args.runs))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print("  %-16s median %12.6g  spread %6.3f  bound %.2f%s" %
                  (name, med, spread, bounds[name], flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
