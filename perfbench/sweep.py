#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --runs 10 --out results.json [--first-seed 1]
                               [--workloads decide-hard,eval-file] [--trace 0]

Runs are interleaved (seed by seed, every workload per seed), so a slow
stretch of the host spreads over all workloads instead of one. The output
file holds every result line by workload; compare.py reads two of them. The
report gives, per workload and metric, the median and the spread — the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4) — against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def report(results, spec, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    for workload, runs in results.items():
        ok = sum(1 for r in runs if r["correct"])
        print("%s: %d runs, %d correct" % (workload, len(runs), ok))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, s = spread(values)
            bound = m.get("bound")
            note = ""
            if bound is not None:
                note = ("ok" if s <= bound / 3 else
                        "within bound" if s <= bound else "UNSTEADY")
            print("  %-34s median %-14.6g spread %6.3f %s %s" % (
                m["name"], median, s,
                "" if bound is None else "bound %.2f" % bound, note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=REPO, stdout=subprocess.PIPE)
            lines = done.stdout.decode().strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)" % (w, seed, done.returncode),
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[w].append(result)
            print("%s seed %d: correct=%s" % (w, seed, result["correct"]),
                  file=sys.stderr, flush=True)
            with open(args.out, "w") as f:
                json.dump({"trace": args.trace, "results": results}, f)
    report(results, spec, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
