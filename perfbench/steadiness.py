#!/usr/bin/env python3
"""Runs one workload repeatedly in two sets and prints, per metric and set,
the median, the quartiles and the spread (interquartile range over the
median), then how far the second set's median moved from the first's.

  python3 perfbench/steadiness.py --workload social-push --runs 5 \
      [--sets 2] [--seconds 10] [--trace 0] [--values]

--values also prints every run's value of every metric.

Run i of set s uses seed 1000 * s + i + 1, so the sets see different seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"run with seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--values", action="store_true")
    args = parser.parse_args()

    medians = {}
    for s in range(args.sets):
        values, shares, correct = {}, set(), True
        for i in range(args.runs):
            result = one_run(args.workload, 1000 * s + i + 1, args.seconds,
                             args.trace)
            correct &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"set {s + 1}: {args.runs} runs, correct={correct}, "
              f"failed/attempted={sorted(shares)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%}")
            if args.values:
                print("    " + " ".join(f"{x:.6g}" for x in v))
            medians.setdefault(name, []).append(med)
    if args.sets > 1:
        print("median moved, last set vs first:")
        for name, m in medians.items():
            moved = (m[-1] - m[0]) / m[0] if m[0] else float("nan")
            print(f"  {name:28} {moved:+8.2%}")


if __name__ == "__main__":
    main()
