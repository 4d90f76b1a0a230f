#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic|search|oltp --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the traced run's spans are written there too. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # expected rows plus the measured run, after the build


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cbqt", "engine.h")):
        sys.exit("perfbench: engine sources (src/) not found under " + root)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def build(cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)

    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            build(["cmake", "-S", bench_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
        build(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    binary = os.path.join(build_dir, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Expected rows come from a reference engine in a process of its own;
    # they are kept per workload and seed until the binary is rebuilt.
    expected = os.path.join(build_dir, "expected-%s-%d.txt"
                            % (args.workload, args.seed))
    try:
        if (not os.path.isfile(expected) or
                os.path.getmtime(expected) < os.path.getmtime(binary)):
            subprocess.run([binary] + common + ["--write-expected", expected],
                           check=True, stdout=sys.stderr,
                           timeout=deadline - time.monotonic())
        result = subprocess.run(
            [binary] + common + ["--seconds", str(args.seconds), "--trace",
                                 args.trace, "--spans-dir", build_dir,
                                 "--expected", expected],
            timeout=max(1, deadline - time.monotonic()))
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: expected rows failed: %s" % e)
    except subprocess.TimeoutExpired as e:
        sys.exit("perfbench: timed out: %s" % e)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
