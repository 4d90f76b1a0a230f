#!/usr/bin/env python3
"""The benchmark's own test: counts that later changes may cite must repeat.

At a fixed seed, the traced run's per-query counts on the single-session
workloads must be identical across runs, and no query may fail. Run from the
root of a checkout (builds the benchmark on first use):

    python3 perfbench/test_determinism.py [--seed N]
"""
import argparse
import json
import os
import subprocess
import sys

DETERMINISTIC = [
    "cbqt.states_per_query",
    "cbqt.blocks_planned_per_query",
    "exec.rows_processed_per_query",
    "plan_cache.hit_ratio",
]
SINGLE_SESSION = ["analytic", "search"]


def traced_run(workload, seed):
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    ok = True
    for workload in SINGLE_SESSION:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        for result in (first, second):
            if not result["correct"] or result["failed"] != 0:
                print("FAIL %s: run not correct (%d failed)"
                      % (workload, result["failed"]))
                ok = False
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "FAIL"
            ok = ok and a == b
            print("%s %s %s: %r vs %r" % (status, workload, name, a, b))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
