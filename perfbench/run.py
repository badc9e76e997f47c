#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the benchmark's own
CMake project (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
strings_perfbench with the same arguments. Build output goes to stderr, so
the last stdout line is its JSON result. The traced pass (--trace 1) also
writes a prefix of its spans to spans-<workload>.csv in the build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if run_quiet(configure) != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if run_quiet(configure) != 0:
            return False
    step = ["cmake", "--build", out, "--target", "strings_perfbench", "-j", BUILD_JOBS]
    return run_quiet(step) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        os.path.join(out, "strings_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(out, "spans-%s.csv" % args.workload)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
