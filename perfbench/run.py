#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cold-analysis, tiered-service or pf-baseline. The first run
configures and builds perfbench/ (and the analyzer sources under src/)
with CMake into .bench_build/perfbench; later runs only check that the
build is up to date. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A traced run
also writes Chrome trace-event JSON to .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: '{' '.join(cmd)}' failed ({result.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Analyzer.h")):
        sys.exit(f"perfbench: no analyzer sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step(["cmake", "--build", BUILD, "--parallel", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-analysis", "tiered-service",
                                 "pf-baseline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data", HERE]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
