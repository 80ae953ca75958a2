#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload paper-study --seeds 1-10
    python3 perfbench/spread.py --workload records-analysis --seeds 1,2,3 --trace 1

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. End-to-end spreads are compared with a third of
the metric's bound in BENCHMARK.json, the steadiness target. Run from the
repository root; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--json", help="also write every run's result here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d: run.py exited with %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        runs.append({"seed": seed, "result": result})
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    names = list(runs[0]["result"]["metrics"])
    steady = True
    print("%-36s %14s %8s %8s" % ("metric", "median", "spread", "target"))
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        if len(values) < 2:
            print("%-36s %14.6g %s" % (name, values[0], unit))
            continue
        med, spr = spread(values)
        target = ""
        if name in bounds and name != "setup_s":
            target = "%.3f" % (bounds[name] / 3)
            steady = steady and spr < bounds[name] / 3
        print("%-36s %14.6g %8.3f %8s  %s" % (name, med, spr, target, unit))
    if not all(r["result"]["correct"] for r in runs):
        print("some runs failed their output checks")
        sys.exit(1)
    if args.trace == 0:
        print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")


if __name__ == "__main__":
    main()
