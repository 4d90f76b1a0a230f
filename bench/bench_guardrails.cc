// Runtime-guardrail benchmark + gates:
//
//   1. Overhead: the Table-2 search query run end-to-end with guardrails
//      off vs on (generous engine/query byte budgets + admission control +
//      a live cancellation token, i.e. every polling site active but no
//      guardrail ever trips). Gate: < 5% end-to-end overhead.
//   2. Cancel latency: a query whose every transformation state stalls one
//      polling quantum (kSlowState, 5 ms) is cancelled by id from another
//      thread; we time Cancel() -> Run() returning kCancelled. Gate: p99
//      latency < 2x the polling quantum.
//   3. Fault sweep: a mixed workload run under probabilistic fault
//      injection on every site, for 8 seeds. Gate: every run completes
//      process-level (counts reconcile, no crash, failures stay per-query).
//
//   $ ./build/bench/bench_guardrails [--reps 7] [--cancel-samples 30]
//
// Results go to BENCH_guardrails.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "workload/query_gen.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

using namespace cbqt;

namespace {

// The Table-2 query (paper §4.4): three outer tables, four unnestable
// subqueries — a 16-state exhaustive search plus a real execution, so both
// the optimizer-side and executor-side polling/charging sites are on the
// measured path.
const char* kQuery =
    "SELECT e.employee_name FROM employees e, departments d, locations l "
    "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
    "AND e.emp_id NOT IN (SELECT o.emp_id FROM orders o, customers c, "
    "products p WHERE o.cust_id = c.cust_id AND p.product_id = o.order_id "
    "AND o.total > 100) "
    "AND EXISTS (SELECT 1 FROM job_history j, jobs jb, employees e2 WHERE "
    "j.job_id = jb.job_id AND e2.emp_id = j.emp_id AND j.emp_id = e.emp_id) "
    "AND NOT EXISTS (SELECT 1 FROM orders o2, customers c2, locations l2 "
    "WHERE o2.cust_id = c2.cust_id AND c2.country_id = l2.country_id AND "
    "o2.emp_id = e.emp_id AND o2.status = 'CANCELLED') "
    "AND e.dept_id IN (SELECT d2.dept_id FROM departments d2, locations l3, "
    "jobs jb2 WHERE d2.loc_id = l3.loc_id AND jb2.job_id = d2.dept_id AND "
    "l3.country_id = 'US')";

constexpr double kPollingQuantumMs = 5.0;  // injected per-state stall

CbqtConfig GuardrailsOnConfig() {
  CbqtConfig cfg;
  cfg.guardrails.engine_memory_bytes = int64_t{1} << 30;  // generous: 1 GiB
  cfg.guardrails.query_memory_bytes = int64_t{256} << 20;
  // One global admission queue: the one-tenant scheduler configuration.
  SchedulerConfig& sched = cfg.guardrails.scheduler;
  sched.enabled = true;
  sched.max_concurrent = 8;
  sched.queue_timeout_ms = 1000;
  sched.default_tenant.priority = 0;
  sched.default_tenant.max_queued = 8;
  sched.budget_shrink_occupancy = 1;
  sched.max_queued_total = 0;
  return cfg;
}

// Best-of-`reps` end-to-end (Prepare + Execute) time of the Table-2 query,
// measured for the guardrails-off and guardrails-on configurations in
// alternation (off, on, off, on, ...) so machine-level noise — scheduler
// hiccups, VM steal time — lands on both configurations instead of biasing
// whichever one a sequential all-off-then-all-on phase happened to overlap.
// The on-config runs with a live (never tripped) cancellation token so the
// token-polling cost is included.
bool MeasureOverheadMs(const Database& db, int reps, double* off_ms,
                       double* on_ms) {
  QueryEngine off_engine(db, CbqtConfig{});
  QueryEngine on_engine(db, GuardrailsOnConfig());
  CancellationToken live_token;
  auto one = [&](QueryEngine& engine, CancellationToken* token,
                 double* best) -> bool {
    double t0 = NowMs();
    auto r = engine.Run(kQuery, {.cancel = token});
    double t1 = NowMs();
    if (!r.ok()) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
      return false;
    }
    if (best != nullptr) *best = std::min(*best, t1 - t0);
    return true;
  };
  // Warm both engines (plan caches are off in these configs, but allocator
  // and page-cache state still settle on the first run).
  if (!one(off_engine, nullptr, nullptr) ||
      !one(on_engine, &live_token, nullptr)) {
    return false;
  }
  *off_ms = 1e18;
  *on_ms = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    if (!one(off_engine, nullptr, off_ms) ||
        !one(on_engine, &live_token, on_ms)) {
      return false;
    }
  }
  return true;
}

// Times Cancel(id) -> Run() unwinding, on a query whose states each stall
// one polling quantum. Returns sorted latencies (ms), `samples` of them.
std::vector<double> MeasureCancelLatencies(const Database& db, int samples) {
  CbqtConfig cfg;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec slow;
  slow.every_n = 1;
  slow.delay_ms = static_cast<int>(kPollingQuantumMs);
  cfg.fault_injector->Arm(FaultSite::kSlowState, slow);
  QueryEngine engine(db, cfg);

  std::vector<double> latencies;
  int attempts = 0;
  while (static_cast<int>(latencies.size()) < samples &&
         attempts < samples * 4) {
    ++attempts;
    Status worker_status;
    double worker_done_ms = 0;
    std::thread worker([&] {
      auto r = engine.Run(kQuery);
      worker_done_ms = NowMs();
      worker_status = r.ok() ? Status::OK() : r.status();
    });
    // Wait for admission, let the search get into its stalled states, then
    // cancel and time until the worker unwinds.
    while (engine.ActiveQueryIds().empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto ids = engine.ActiveQueryIds();
    double t0 = NowMs();
    bool tripped = !ids.empty() && engine.Cancel(ids[0]);
    worker.join();
    if (tripped && worker_status.code() == StatusCode::kCancelled) {
      latencies.push_back(worker_done_ms - t0);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

struct SweepResult {
  uint64_t seed = 0;
  int attempted = 0;
  int succeeded = 0;
  int failed = 0;
  int cancelled = 0;
  int resource_exhausted = 0;
  bool reconciled = false;
};

// One workload run under probabilistic faults on every injection site.
SweepResult RunFaultSweep(const Database& db,
                          const std::vector<WorkloadQuery>& queries,
                          uint64_t seed) {
  CbqtConfig cfg = GuardrailsOnConfig();
  cfg.guardrails.query_memory_bytes = int64_t{64} << 20;
  cfg.plan_cache.capacity = 64;
  cfg.fault_injector = std::make_shared<FaultInjector>(seed);
  auto arm = [&](FaultSite site, double p) {
    FaultSpec spec;
    spec.probability = p;
    cfg.fault_injector->Arm(site, spec);
  };
  // Optimizer sites fire per state/block; executor sites fire per row (or
  // per buffered row), so their probabilities are orders of magnitude
  // smaller to keep the per-query fault odds comparable.
  arm(FaultSite::kStateEval, 0.05);
  arm(FaultSite::kPlanner, 0.02);
  arm(FaultSite::kExecBatch, 0.00002);
  arm(FaultSite::kExecSpillCheck, 0.0001);
  arm(FaultSite::kMemoryPressure, 0.0001);
  arm(FaultSite::kCancelAt, 0.00002);

  WorkloadRunner runner(db);
  auto report = runner.RunAll(queries, cfg);

  SweepResult r;
  r.seed = seed;
  r.attempted = report.attempted;
  r.succeeded = report.succeeded;
  r.failed = report.failed;
  r.cancelled = report.cancelled;
  r.resource_exhausted = report.resource_exhausted;
  // Process-level completion: every query accounted for, every success
  // measured. Untyped failures are expected here — injected kInternal
  // faults are exactly the per-query failures isolation must contain.
  r.reconciled =
      report.attempted == static_cast<int>(queries.size()) &&
      report.succeeded + report.failed == report.attempted &&
      static_cast<int>(report.measurements.size()) == report.succeeded;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 7;
  int cancel_samples = 30;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--cancel-samples") == 0) {
      cancel_samples = std::atoi(argv[i + 1]);
    }
  }
  if (reps < 1) reps = 1;
  if (cancel_samples < 5) cancel_samples = 5;

  std::printf("=== Runtime-guardrail overhead, cancel latency, fault sweep "
              "===\n");
  SchemaConfig schema;
  Database db;
  Status st = BuildHrDatabase(schema, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "schema build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- 1. Overhead gate -----------------------------------------------
  double off_ms = 0, on_ms = 0;
  if (!MeasureOverheadMs(db, reps, &off_ms, &on_ms)) return 1;
  double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
  std::printf("\n  end-to-end (Table-2 query, best of %d):\n", reps);
  std::printf("    guardrails off: %8.2f ms\n", off_ms);
  std::printf("    guardrails on:  %8.2f ms   overhead %+.2f%% (gate < 5%%)\n",
              on_ms, overhead_pct);

  // --- 2. Cancel latency gate -----------------------------------------
  auto latencies = MeasureCancelLatencies(db, cancel_samples);
  double p50 = 0, p99 = 0;
  if (!latencies.empty()) {
    p50 = latencies[latencies.size() / 2];
    p99 = latencies[std::min(latencies.size() - 1,
                             static_cast<size_t>(latencies.size() * 99 /
                                                 100))];
  }
  std::printf("\n  cancel latency (%zu samples, quantum %.0f ms):\n",
              latencies.size(), kPollingQuantumMs);
  std::printf("    p50 %.2f ms, p99 %.2f ms (gate < %.0f ms)\n", p50, p99,
              2 * kPollingQuantumMs);

  // --- 3. Fault-injection sweep ---------------------------------------
  auto queries = GenerateMixedWorkload(40, 0.3, schema, /*seed=*/11);
  std::printf("\n  fault sweep: %zu queries x 8 seeds\n", queries.size());
  std::printf("    %6s %9s %9s %7s %9s %8s %8s\n", "seed", "attempted",
              "succeeded", "failed", "cancelled", "memfail", "reconc");
  std::vector<SweepResult> sweep;
  bool sweep_ok = true;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SweepResult r = RunFaultSweep(db, queries, seed);
    sweep.push_back(r);
    sweep_ok = sweep_ok && r.reconciled && r.succeeded > 0;
    std::printf("    %6llu %9d %9d %7d %9d %8d %8s\n",
                static_cast<unsigned long long>(r.seed), r.attempted,
                r.succeeded, r.failed, r.cancelled, r.resource_exhausted,
                r.reconciled ? "yes" : "NO");
  }

  // --- JSON + gates ---------------------------------------------------
  std::string sweep_json;
  for (const auto& r : sweep) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"seed\": %llu, \"attempted\": %d, "
                  "\"succeeded\": %d, \"failed\": %d, \"cancelled\": %d, "
                  "\"resource_exhausted\": %d, \"reconciled\": %s}",
                  sweep_json.empty() ? "" : ",",
                  static_cast<unsigned long long>(r.seed), r.attempted,
                  r.succeeded, r.failed, r.cancelled, r.resource_exhausted,
                  r.reconciled ? "true" : "false");
    sweep_json += buf;
  }
  char json[2048];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"off_ms\": %.3f,\n"
                "  \"on_ms\": %.3f,\n"
                "  \"overhead_pct\": %.3f,\n"
                "  \"cancel_p50_ms\": %.3f,\n"
                "  \"cancel_p99_ms\": %.3f,\n"
                "  \"polling_quantum_ms\": %.1f,\n"
                "  \"fault_sweep\": [%s\n  ]\n"
                "}\n",
                off_ms, on_ms, overhead_pct, p50, p99, kPollingQuantumMs,
                sweep_json.c_str());
  if (FILE* f = std::fopen("BENCH_guardrails.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
    std::printf("\n  wrote BENCH_guardrails.json\n");
  }

  bool ok = true;
  if (overhead_pct >= 5.0) {
    std::fprintf(stderr, "FAIL: guardrail overhead %.2f%% >= 5%%\n",
                 overhead_pct);
    ok = false;
  }
  if (latencies.size() < static_cast<size_t>(cancel_samples) / 2) {
    std::fprintf(stderr, "FAIL: too few cancel-latency samples (%zu)\n",
                 latencies.size());
    ok = false;
  }
  if (p99 >= 2 * kPollingQuantumMs) {
    std::fprintf(stderr, "FAIL: cancel p99 %.2f ms >= 2x quantum (%.0f ms)\n",
                 p99, 2 * kPollingQuantumMs);
    ok = false;
  }
  if (!sweep_ok) {
    std::fprintf(stderr, "FAIL: fault sweep did not reconcile on all seeds\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
