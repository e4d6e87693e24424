#!/usr/bin/env python3
"""Builds and runs the dpc end-to-end benchmark (perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-airline --seed 1 \
        --seconds 20 --trace 0

Workloads: solve-airline, solve-household, serve-explore (BENCHMARK.json
lists solve-airline and serve-explore). The C++ program
(perfbench/main.cc) is configured and built with CMake under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build) on first use and
brought up to date on every run. Its stdout is passed through; the last
line is the JSON result object. Per-run detail files (bench JSON with the
host stamp, Chrome trace of traced runs) land in <build>/results.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the program fails or overruns its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", source, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "--target",
                      "dpc_perfbench", "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(build_dir, "dpc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 = the stand-in spec's seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for required in ("CMakeLists.txt", os.path.join("core", "dpc.h")):
        if not os.path.isfile(os.path.join(root, required)):
            fail(f"library source {required} not found under {root}")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(root, build_dir)

    results = os.path.join(build_dir, "results")
    tmp = os.path.join(build_dir, "tmp", f"run-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results, "--tmp", tmp]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    except (ValueError, IndexError):
        missing = {"result line"}
    if missing:
        sys.stderr.write(done.stdout)
        fail(f"benchmark output lacks {sorted(missing)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
