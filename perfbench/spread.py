#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload search_tn --seeds 1-10 [--trace 1]

For every metric: median, and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound from BENCHMARK.json. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode or not last["correct"]:
            print("seed %d FAILED: %s" % (seed, out.stdout[-2000:]))
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = "%.4f" % ((q3 - q1) / med)
        else:
            spread = "-"
        print("%-34s median %-14.6g spread %-8s bound %-5s values %s"
              % (name, med, spread, bounds.get(name, "-"),
                 " ".join("%.4g" % x for x in xs)))


if __name__ == "__main__":
    sys.exit(main())
