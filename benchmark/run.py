#!/usr/bin/env python3
"""Build the simulator and its benchmark harness, then run one workload.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload fig04_grid --seed 0 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; results and Chrome traces go to its out/ directory. The
harness's standard output is passed through: its last line is the JSON
result. Build output goes to standard error. The exit code is the
harness's (0 = every correctness check passed), or 1 when the build
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig04_grid", "scale64", "txn_contention")


def build(build_dir):
    """Configure (once) and build sst_bench; return its path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "sst_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(cmake_dir, "sst_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    out_dir = os.path.join(build_dir, "out")
    exe = os.path.join(build_dir, "cmake", "sst_bench")
    before = os.path.getmtime(exe) if os.path.exists(exe) else None
    if build(build_dir) is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if before != os.path.getmtime(exe):
        # Digests stored by an earlier build are not comparable.
        shutil.rmtree(os.path.join(out_dir, "digests"), ignore_errors=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
