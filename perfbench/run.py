#!/usr/bin/env python3
"""Builds the perfbench harness (with the engine library) and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tpcc_nvm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The build is an optimised CMake build of ../src plus perfbench/src under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set).
Build output goes to stderr; the harness's own output, whose last line is
the JSON result, goes to stdout. Data directories and span files live in
.bench_build/perfbench-work.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
WORK_DIR = os.path.join(OUT_DIR, "perfbench-work")
WORKLOADS = ("tpcc_nvm", "tpcc_wal", "kv_wire")


def build():
    """Configures (once) and builds; exits non-zero when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness's own tests instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    os.makedirs(WORK_DIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", WORK_DIR],
        timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
