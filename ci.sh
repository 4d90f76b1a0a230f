#!/usr/bin/env bash
# CI entry point: builds the Release, ThreadSanitizer, and Address/UB
# sanitizer configurations and runs the test suite on each. TSan must
# report zero races — the parallel CBQT search (ThreadPool + sharded
# AnnotationCache), the fault-injection tests (test_fault_injection,
# injected faults + budget under num_threads >= 4), the tenant scheduler's
# concurrent admission/dispatch legs (test_scheduler, multi-tenant threads
# hammering one TenantScheduler), and the COW + join-order
# memo equivalence sweeps (CowMemoMatchesFullClones in test_equivalence and
# CowMemoEscapeHatchBitIdentical in test_paper_queries, both at
# num_threads = 4) are exercised in every config. ASan/UBSan additionally
# covers the robustness corpus (test_parser_robustness, test_governor), plans
# borrowed from annotation-cache entries that are evicted or cleared while
# held (test_annotation_cache), and the spill-to-disk pipeline
# (test_batch_executor forces sort / hash-join / aggregation / distinct
# state through SpillManager temp files under a tiny memory budget, so the
# serialize/partition/merge paths run under ASan).
#
#   $ ./ci.sh              # release + tsan + asan + bench-smoke + fuzz-smoke
#                          #   + perfbench-smoke
#   $ ./ci.sh release      # just the release config
#   $ ./ci.sh tsan         # just the thread-sanitizer config
#   $ ./ci.sh asan         # just the address/UB-sanitizer config
#   $ ./ci.sh bench-smoke  # quick Release run of the perf benches
#   $ ./ci.sh fuzz-smoke   # time-boxed metamorphic differential fuzz leg
#   $ ./ci.sh perfbench-smoke  # builds the end-to-end benchmark, checks
#                              # its deterministic counts (seeds 1, 20061)
set -euo pipefail
cd "$(dirname "$0")"

want="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_config() {
  local name="$1"; shift
  local dir="build-ci-${name}"
  echo "=== [${name}] configure + build ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [${name}] ctest ==="
  (cd "${dir}" && ctest --output-on-failure -j "${jobs}")
}

if [[ "${want}" == "all" || "${want}" == "release" ]]; then
  run_config release -DCMAKE_BUILD_TYPE=Release
fi

if [[ "${want}" == "all" || "${want}" == "tsan" ]]; then
  # TSAN_OPTIONS makes any reported race fail the run (exit code != 0).
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" run_config tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
fi

if [[ "${want}" == "all" || "${want}" == "bench-smoke" ]]; then
  # Smoke-runs the perf benches on the Release build with minimal reps, so a
  # change that breaks bench linkage or the plan cache's warm-Prepare speedup
  # (>= 10x, asserted by bench_plan_cache itself) fails CI without paying for
  # a full measurement campaign.
  dir="build-ci-release"
  echo "=== [bench-smoke] configure + build ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${dir}" -j "${jobs}" \
    --target bench_table1_reuse bench_plan_cache bench_plan_warmstart \
    bench_state_eval bench_guardrails bench_executor bench_mqo bench_tenants
  echo "=== [bench-smoke] bench_table1_reuse ==="
  (cd "${dir}" && ./bench/bench_table1_reuse)
  echo "=== [bench-smoke] bench_plan_cache ==="
  (cd "${dir}" && ./bench/bench_plan_cache --reps 3)
  # bench_plan_warmstart asserts the persistence gates: snapshot warm-start
  # >= 10x faster than a cold optimize at bit-identical plans, instance B
  # importing every shape from the shared store on first touch, and
  # fuzz-corpus plans executing row-identically after a serde round-trip.
  echo "=== [bench-smoke] bench_plan_warmstart ==="
  (cd "${dir}" && ./bench/bench_plan_warmstart --reps 3)
  # bench_state_eval asserts its own gates: bit-identical plans between
  # COW+memo and forced full clones, and >= 2x states/sec.
  echo "=== [bench-smoke] bench_state_eval ==="
  (cd "${dir}" && ./bench/bench_state_eval --reps 3)
  # bench_guardrails asserts the runtime-guardrail gates: < 5% end-to-end
  # overhead with every polling/charging site active, p99 cancel latency
  # < 2x the polling quantum, and an 8-seed probabilistic fault-injection
  # sweep over a mixed workload that must complete process-level (counts
  # reconcile; injected failures stay per-query).
  echo "=== [bench-smoke] bench_guardrails ==="
  # 5 reps (not 3): the overhead gate is a best-of comparison of two ~100 ms
  # runs, and on a loaded single-core box 3 reps leaves enough noise to brush
  # the 5% gate.
  (cd "${dir}" && ./bench/bench_guardrails --reps 5 --cancel-samples 15)
  # bench_executor asserts the vectorized-executor gate: >= 2x rows/sec over
  # a faithful row-at-a-time baseline on scan / filter / hash-join /
  # hash-aggregate, with bit-identical result rows. 5 reps for the same
  # noise reason as bench_guardrails (best-of comparison on a loaded box).
  echo "=== [bench-smoke] bench_executor ==="
  (cd "${dir}" && ./bench/bench_executor --reps 5)
  # bench_mqo asserts the multi-query-optimization gate: 8 concurrent
  # sessions over repeated scan-dominated templates must reach >= 1.5x
  # aggregate throughput with MQO on vs off, with every execution's rows
  # verified bit-identical (canonically sorted) against an MQO-off
  # reference.
  echo "=== [bench-smoke] bench_mqo ==="
  (cd "${dir}" && ./bench/bench_mqo)
  # bench_tenants asserts the noisy-neighbor isolation gates: a well-behaved
  # tenant's p99 under a low-priority analytic flood stays <= 2x its
  # isolated baseline, every query completes or fails typed (zero
  # starvation, no untyped failures), and victim rows produced mid-flood are
  # bit-identical to a serial reference.
  echo "=== [bench-smoke] bench_tenants ==="
  (cd "${dir}" && CBQT_BENCH_QUERIES=60 ./bench/bench_tenants)
fi

if [[ "${want}" == "all" || "${want}" == "fuzz-smoke" ]]; then
  # Time-boxed metamorphic differential fuzzing (fixed seed, so the leg is
  # reproducible): random queries + equivalence-preserving mutants, every
  # execution differenced across the full oracle deck (4 search strategies,
  # transform masks, 1/4 threads, batch/spill settings) against the
  # reference interpreter. Three gates:
  #   1. ~60 s fuzz run with >= 500 differential executions, zero diffs;
  #   2. canary proof: --canary seeds a known bug, the run MUST catch it
  #      (a fuzzer that cannot find the canary is not testing anything);
  #   3. fault sweep: probabilistic fault injection at the planner and
  #      executor sites must degrade cleanly (clean error or clean result,
  #      never wrong rows).
  dir="build-ci-release"
  echo "=== [fuzz-smoke] configure + build ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${dir}" -j "${jobs}" --target fuzz_cbqt
  # --serde-roundtrip additionally pushes every deck engine's chosen plan
  # through the binary plan serde (serialize -> deserialize -> re-serialize
  # must be bit-identical), so the fuzz deck doubles as the serde corpus.
  echo "=== [fuzz-smoke] differential fuzz (60s, seed 7) ==="
  (cd "${dir}" && ./tools/fuzz_cbqt --seed 7 --time-box-ms 60000 \
      --min-execs 500 --serde-roundtrip)
  echo "=== [fuzz-smoke] canary proof ==="
  if (cd "${dir}" && ./tools/fuzz_cbqt --seed 11 --canary --rounds 20 \
      --time-box-ms 0 --mutants 0 >/dev/null 2>&1); then
    echo "FAIL: canary bug was not detected" >&2
    exit 1
  fi
  echo "canary caught (exit 1 as required)"
  echo "=== [fuzz-smoke] fault-injection sweep ==="
  (cd "${dir}" && ./tools/fuzz_cbqt --seed 3 --rounds 40 --time-box-ms 0 \
      --fault-sweep "exec-batch:p=0.02;planner:every=7;exec-spill-write:p=0.01" \
      --fault-seed 5)
fi

if [[ "${want}" == "all" || "${want}" == "perfbench-smoke" ]]; then
  # perfbench (BENCHMARK.json) compiles src/ through its own CMake build,
  # which no other leg runs, so an engine API change could otherwise break
  # the end-to-end benchmark unseen. test_determinism.py builds it on first
  # use, then requires two short traced runs of each single-session
  # workload to agree on the deterministic per-query counts with every
  # result row correct, at seed 1 and at the held-out seed 20061. Its search
  # counts (states/query, blocks planned/query) show whether a planner
  # change kept the same search.
  echo "=== [perfbench-smoke] build + determinism (seed 1) ==="
  python3 perfbench/test_determinism.py --seed 1
  echo "=== [perfbench-smoke] determinism (held-out seed 20061) ==="
  python3 perfbench/test_determinism.py --seed 20061
fi

if [[ "${want}" == "all" || "${want}" == "asan" ]]; then
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" run_config asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
fi

echo "=== CI OK (${want}) ==="
