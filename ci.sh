#!/usr/bin/env bash
# CI entry point: builds the Release, ThreadSanitizer, and Address/UB
# sanitizer configurations and runs the test suite on each. TSan must
# report zero races — the parallel CBQT search (ThreadPool + sharded
# AnnotationCache), the one sharded LRU map behind the annotation cache,
# the plan cache and the cursor table (common/sharded_lru.h: the tracked
# Put/Find/Clear/EvictBytes stress ParallelPutFindClearEvictStress in
# test_parallel_search, and the concurrent plan-cache legs of
# test_plan_cache: the 4-session OLTP stream
# ConcurrentOltpStreamMatchesCacheOffReference and
# ConcurrentSharedEngineRunsAreSafe, threads sharing one cached engine), the
# fault-injection tests (test_fault_injection,
# injected faults + budget under num_threads >= 4), the tenant scheduler's
# concurrent admission/dispatch legs (test_scheduler, multi-tenant threads
# hammering one TenantScheduler), the COW + join-order memo equivalence
# sweeps (CowMemoMatchesFullClones in test_equivalence and
# CowMemoEscapeHatchBitIdentical in test_paper_queries, both at
# num_threads = 4), the shared-plan leg
# (ConcurrentExecutionsShareOneCachedPlan in test_batch_executor: four
# threads preparing and executing one immutable cached plan), and
# concurrent sessions over one engine (ConcurrentSessionsStayCorrect in
# test_workload: 4 threads x 2 rounds, rows against a serial run) are
# exercised in every config. ASan/UBSan additionally covers the robustness
# corpus (test_parser_robustness, test_governor), shared plans that outlive their
# evicted or cleared annotation-cache entry (test_annotation_cache), and the
# spill-to-disk pipeline
# (test_batch_executor forces sort / hash-join / aggregation / distinct
# state through SpillManager temp files under a tiny memory budget, so the
# serialize/partition/merge paths run under ASan), the executor's one key
# table (exec/key_table.h; JoinTableTest in test_batch_executor: the hash
# join's duplicate, Int/Real and NULL keys, and a 110k-distinct-key build
# that grows the table many times, joined in memory, from reloaded spill
# partitions and in chunks; the one-slot probe that reads the key in place,
# with two-column, expression and NULL keys; GroupByEmitsGroupsInFirstSeenOrder,
# KeysCompareStructurally, ManyKeysKeepFirstSeenOrderAndSpill and
# SetOperationsMatchReference for the aggregate, COUNT(DISTINCT), DISTINCT
# and set-operation tables; NanKeysMatchReference: NaN keys of every sign
# and payload are one key apart from every number, in GROUP BY, DISTINCT
# and the set operations, as in the reference interpreter;
# NanJoinKeysAndOrderByFollowOneNumericRule: SQL comparison's one NaN rule,
# a NaN equal to a NaN and above every number, in the hash join, the
# nested loop, the IN semijoin and ORDER BY), the charged drains of buffered inputs
# (DrainedInputsAreChargedToTheQueryBudget in test_batch_executor),
# the compiled expression fast path against the tree evaluator (CompiledExpr
# tests in test_eval, including by-reference leaf operands), the typed
# scan filter kernels (ScanKernelTest in test_batch_executor: kernels read
# the stored column arrays and dictionary codes over a selection vector of
# rowids, checked against the tree evaluator over every value kind, NaNs,
# the infinities and int64 beyond 2^53, and against the NaN rule itself for
# NaN and infinite constants, in table and index scans at batch sizes 1, 3
# and 1024; OuterBoundKernelsInReopenedSubplansMatchReference: correlated
# EXISTS and scalar-aggregate subqueries whose inner scan tests its
# correlated conjunct as an outer-bound kernel, every comparison in both
# operand orders, outer arithmetic, NULL, NaN, infinite, beyond-2^53,
# dictionary-absent and other-kind outer values, one subplan tree re-opened
# per correlation key, against the reference interpreter), the reference
# interpreter itself (test_reference_oracle whole, gbp cases included: WHERE
# runs as the last FROM entry's rows form, so no FROM product is held), and
# the column store (test_storage: ColumnStorage reads every
# inserted value back through the typed, dictionary and generic columns
# with its kind and bits; IndexOrderTest probes the rowid-permutation
# indexes against a brute-force scan and the row-key sort, including the
# caller-owned lookup vector). The fuzz-smoke leg's spill sweep injects
# memory pressure into every pipeline breaker's charge across the fuzz
# deck, so the hash join's partition reload and chunked passes, the
# recursive aggregate and distinct partitions and the sort runs all execute
# against the reference interpreter; the leg fails when nothing spilled.
#
#   $ ./ci.sh              # release + tsan + asan + bench-smoke + fuzz-smoke
#                          #   + perfbench-smoke
#   $ ./ci.sh release      # just the release config
#   $ ./ci.sh tsan         # just the thread-sanitizer config
#   $ ./ci.sh asan         # just the address/UB-sanitizer config
#   $ ./ci.sh bench-smoke  # quick Release run of the perf benches; runs
#                          #   every bench, then fails if any gate failed
#   $ ./ci.sh fuzz-smoke   # time-boxed metamorphic differential fuzz leg,
#                          #   with fault and spill sweeps
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
    bench_state_eval bench_guardrails bench_executor bench_tenants
  # Every bench runs even when an earlier one fails its gate; the failed
  # benches are listed at the end and fail the leg.
  bench_failed=()
  run_bench() {
    local name="$1"; shift
    echo "=== [bench-smoke] ${name} ==="
    if ! (cd "${dir}" && "$@"); then
      bench_failed+=("${name}")
    fi
  }
  run_bench bench_table1_reuse ./bench/bench_table1_reuse
  run_bench bench_plan_cache ./bench/bench_plan_cache --reps 3
  # bench_plan_warmstart asserts the persistence gates: snapshot warm-start
  # >= 10x faster than a cold optimize at bit-identical plans, and
  # fuzz-corpus plans executing row-identically after a serde round-trip.
  run_bench bench_plan_warmstart ./bench/bench_plan_warmstart --reps 3
  # bench_state_eval asserts its own gates: bit-identical plans between
  # COW+memo and forced full clones, and >= 2x states/sec.
  run_bench bench_state_eval ./bench/bench_state_eval --reps 3
  # bench_guardrails asserts the runtime-guardrail gates: < 5% end-to-end
  # overhead with every polling/charging site active, p99 cancel latency
  # < 2x the polling quantum, and an 8-seed probabilistic fault-injection
  # sweep over a mixed workload that must complete process-level (counts
  # reconcile; injected failures stay per-query).
  # 5 reps (not 3): the overhead gate is a best-of comparison of two ~100 ms
  # runs, and on a loaded single-core box 3 reps leaves enough noise to brush
  # the 5% gate.
  run_bench bench_guardrails ./bench/bench_guardrails --reps 5 \
    --cancel-samples 15
  # bench_executor asserts the vectorized-executor gate: >= 2x rows/sec over
  # a faithful row-at-a-time baseline on scan / filter / hash-join /
  # hash-aggregate, with bit-identical result rows. 5 reps for the same
  # noise reason as bench_guardrails (best-of comparison on a loaded box).
  run_bench bench_executor ./bench/bench_executor --reps 5
  # bench_tenants asserts the noisy-neighbor isolation gates: a well-behaved
  # tenant's p99 under a low-priority analytic flood stays <= 2x its
  # isolated baseline, every query completes or fails typed (zero
  # starvation, no untyped failures), and victim rows produced mid-flood are
  # bit-identical to a serial reference.
  # 1000 victim queries put at least 10 beyond the p99 the gate reads.
  run_bench bench_tenants env CBQT_BENCH_QUERIES=1000 ./bench/bench_tenants
  if (( ${#bench_failed[@]} > 0 )); then
    echo "FAIL: bench-smoke gates failed: ${bench_failed[*]}" >&2
    exit 1
  fi
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
  #      never wrong rows);
  #   4. spill sweep: injected memory pressure fails pipeline-breaker
  #      charges at random, so hash-join builds (reloaded partitions and
  #      chunks), aggregates, distincts and sorts take their spill paths,
  #      differenced against the reference. It fails on any divergence, and
  #      when no operator spilled (a sweep that spills nothing tests
  #      nothing, as a canary run that catches nothing proves nothing).
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
  echo "=== [fuzz-smoke] spill sweep ==="
  if ! spill_out="$(cd "${dir}" && ./tools/fuzz_cbqt --seed 3 --rounds 40 \
      --time-box-ms 0 --fault-sweep "memory-pressure:p=0.02" \
      --fault-seed 5)"; then
    echo "${spill_out}"
    exit 1
  fi
  echo "${spill_out}"
  spilled="$(sed -n 's/.* \([0-9][0-9]*\) spilled operators.*/\1/p' \
      <<< "${spill_out}")"
  if [[ -z "${spilled}" || "${spilled}" -eq 0 ]]; then
    echo "FAIL: the spill sweep spilled no operator" >&2
    exit 1
  fi
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
