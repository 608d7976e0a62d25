#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library (src/) and the benchmark program (perfbench/src/) are compiled into
.bench_build/ (or $CARGO_TARGET_DIR when set) with CMake in Release mode; a
build that is up to date costs about a second. The last line of stdout is the
program's JSON result; build logs and check failures go to stderr. The exit
code is 0 when the workload ran, whatever its checks found ("correct" says
that), and non-zero when the benchmark could not build or run.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("decide-hard", "eval-file")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures and builds the benchmark program; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def expected_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO, "src", "semacyc", "engine.h")):
        return fail("no library sources under " + os.path.join(REPO, "src"))
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    build_dir = os.path.join(
        REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--pool", os.path.join(HERE, "pool.tsv"),
               "--work-dir", os.path.join(build_dir, "work")]
    try:
        done = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return fail("benchmark program exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("malformed result line")
    if list(result["metrics"]) != expected_metrics(args.trace):
        return fail("metrics differ from BENCHMARK.json")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
