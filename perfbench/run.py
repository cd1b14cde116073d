#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's sources plus the driver) in Release mode into
$CARGO_TARGET_DIR, default .bench_build; later runs only check that the
build is up to date. Build output goes to stderr, so the last line of
stdout is the driver's result line. Exits with the driver's status, or 2
when the sources or the build are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_source", "compiled_cases", "edit_reverify", "serve_stream")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smallest", action="store_true", help="smallest inputs (self-test)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip one byte of the reference (self-test)")
    args = ap.parse_args()

    for needed in ("src/core/verifier.hpp", "tools/scaldtv.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("run.py: the build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", build_dir]
    if args.smallest:
        cmd.append("--smallest")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
