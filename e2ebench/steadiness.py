#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs the command from BENCHMARK.json several times per workload on one
checkout, each time with another seed, and prints for every end-to-end
metric its median, first and third quartile (statistics.quantiles with
n=4), the spread (Q3 - Q1) / median, and the metric's bound. A spread at
or above a third of its bound is flagged; bounds should come from these
measured spreads.

Run from the repository root:

    python3 e2ebench/steadiness.py --runs 10 [--workload NAME ...]
        [--seed-base N] [--save FILE] [--against FILE]

--save writes the raw values as JSON; --against compares this set's
medians with a saved set and flags any metric that got worse by more
than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.time() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return result, wall


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    values = {}
    flagged = 0
    for workload in workloads:
        runs = [run_once(bench["command"], workload, args.seed_base + i, seconds)
                for i in range(args.runs)]
        walls = [wall for _, wall in runs]
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        values[workload] = {}
        for metric in metrics:
            name = metric["name"]
            series = [r["metrics"][name]["value"] for r, _ in runs]
            values[workload][name] = series
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if name != "setup_s" and spread >= metric["bound"] / 3:
                mark = "  <- spread >= bound/3"
                flagged += 1
            old = previous.get(workload, {}).get(name)
            if old:
                drift = worse_by(metric, statistics.median(old), med)
                mark += f"  drift {drift:+.3f}"
                if drift > metric["bound"]:
                    mark += " <- worse than bound"
                    flagged += 1
            print(f"  {name:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {metric['bound']:>6}{mark}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
