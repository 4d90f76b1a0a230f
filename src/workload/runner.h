#ifndef CBQT_WORKLOAD_RUNNER_H_
#define CBQT_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/result_compare.h"
#include "common/status.h"
#include "exec/executor.h"
#include "storage/database.h"
#include "workload/query_gen.h"

namespace cbqt {

/// Optimizer configurations used by the experiments.
enum class OptimizerMode {
  kCostBased,       ///< full CBQT (Figure 2 "on")
  kHeuristicOnly,   ///< transformations by legacy rules (Figure 2 "off")
  kUnnestOff,       ///< all unnesting disabled (Figure 3 baseline)
  kJppdOff,         ///< JPPD disabled (Figure 4 baseline)
  kGbpOff,          ///< group-by placement disabled (§4.3 baseline)
};

CbqtConfig ConfigForMode(OptimizerMode mode);

/// Measurements of one optimization + execution run.
struct RunMeasurement {
  double opt_ms = 0;
  double exec_ms = 0;
  double total_ms() const { return opt_ms + exec_ms; }
  int64_t rows_processed = 0;  ///< deterministic work units
  size_t result_rows = 0;
  double est_cost = 0;
  std::string plan_shape;
  CbqtStats cbqt;
  bool from_plan_cache = false;  ///< plan served from the engine plan cache
};

/// Monotonic wall clock in milliseconds.
double NowMs();

/// Per-tenant digest of one multi-tenant run (RunTenants): user-observed
/// latencies (queue wait + retries included) and throughput.
struct TenantRunReport {
  std::string tenant;
  int attempted = 0;
  int succeeded = 0;
  int failed = 0;
  /// kTenantThrottled turn-aways that were retried after the backoff.
  int throttled_retries = 0;
  /// Queries that stayed throttled through every retry and were dropped.
  int gave_up_throttled = 0;
  double p50_ms = 0;  ///< median end-to-end latency of successful queries
  double p99_ms = 0;
  double max_ms = 0;
  double wall_ms = 0;  ///< this tenant's first-submit-to-last-finish span
  double qps = 0;      ///< succeeded / wall seconds
};

/// Aggregate report of one batch run. A failing query no longer aborts the
/// whole workload: its error is recorded and the run continues, so one
/// pathological query cannot take down a measurement campaign (or, in
/// production terms, one bad tenant query cannot starve the rest).
struct WorkloadRunReport {
  /// Per-query measurements, one per *successful* query, in input order.
  std::vector<RunMeasurement> measurements;
  int attempted = 0;
  int succeeded = 0;
  int failed = 0;
  /// "query <id> [family]: <status>" for the first kMaxErrorMessages
  /// failures (the count above covers the rest).
  std::vector<std::string> error_messages;

  // Guardrail outcome categories (subsets of `failed`): every failure under
  // a configured guardrail should fall into one of these typed buckets —
  // anything left over (failed minus the three) is a process-level failure
  // the robustness acceptance test treats as a bug.
  int cancelled = 0;           ///< queries that unwound with kCancelled
  int resource_exhausted = 0;  ///< ... with kResourceExhausted
  int tenant_throttled = 0;    ///< ... turned away by the tenant scheduler
  /// failed minus the typed guardrail categories above.
  int untyped_failures() const {
    return failed - cancelled - resource_exhausted - tenant_throttled;
  }

  // Governor telemetry aggregated over the successful queries.
  int budget_exhausted_queries = 0;  ///< queries whose optimizer budget tripped
  int searches_degraded = 0;         ///< searches that fell back to heuristics
  int failed_states = 0;             ///< fault-isolated state evaluations

  // End-of-run telemetry snapshots of the shared engine (the cache,
  // scheduler and MQO registry live for the duration of one run's engine;
  // each is all-zero when its layer is off).
  PlanCacheStats plan_cache;
  SchedulerStats scheduler;
  MqoStats mqo;

  // Guardrail telemetry from the shared engine (zero when guardrails off).
  int64_t engine_peak_memory_bytes = 0;  ///< root tracker high-water mark
  int64_t memory_victims = 0;            ///< queries failed as pressure victims
  /// Largest per-query tracker peak over the successful queries.
  int64_t max_query_peak_bytes = 0;

  // Spill telemetry aggregated over the successful queries: how many
  // completed by degrading a pipeline breaker to disk, and total spill I/O.
  int64_t spilled_queries = 0;
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;

  /// Per-tenant latency/throughput digests (RunTenants only; empty
  /// otherwise), in the order the TenantSessions were given.
  std::vector<TenantRunReport> per_tenant;

  static constexpr int kMaxErrorMessages = 5;

  /// One-paragraph human-readable error summary (empty when failed == 0).
  std::string ErrorSummary() const;
};

/// Measurement wrapper for the experiments: runs queries through the
/// QueryEngine facade (the single place the pipeline is wired) and shapes
/// the timings/telemetry into RunMeasurement.
class WorkloadRunner {
 public:
  explicit WorkloadRunner(const Database& db, CostParams params = {})
      : db_(db), params_(params) {}

  /// Full pipeline with timing.
  Result<RunMeasurement> Run(const std::string& sql,
                             const CbqtConfig& config) const;

  /// Runs a whole workload under one config, isolating per-query failures:
  /// errors are recorded in the report and the run continues with the next
  /// query. Never fails wholesale.
  WorkloadRunReport RunAll(const std::vector<WorkloadQuery>& queries,
                           const CbqtConfig& config) const;

  /// Concurrent-sessions variant — the MQO measurement axis: `sessions`
  /// threads share one engine, queries are dealt round-robin by input index
  /// (deterministic partition: session s runs queries s, s+sessions, ...),
  /// and the merged report keeps measurements in input order. With
  /// `config.mqo.enabled` the concurrently admitted queries form MQO
  /// batches and share sub-plans and scans; with it off this is a plain
  /// concurrency baseline over the same engine. `sessions <= 1` degenerates
  /// to RunAll.
  WorkloadRunReport RunAllConcurrent(const std::vector<WorkloadQuery>& queries,
                                     const CbqtConfig& config,
                                     int sessions) const;

  /// One tenant's traffic in a multi-tenant run.
  struct TenantSession {
    std::string tenant;  ///< scheduler tenant name ("" = default tenant)
    std::vector<WorkloadQuery> queries;
    int sessions = 1;     ///< concurrent threads submitting this traffic
    int max_retries = 3;  ///< retries after a kTenantThrottled turn-away
    double pace_ms = 0;   ///< think time between queries per session
  };

  /// Multi-tenant variant: every TenantSession's threads run against one
  /// shared engine, each query submitted under its tenant's name
  /// (QueryOptions::tenant). A kTenantThrottled turn-away is retried up to
  /// `max_retries` times with a jittered backoff honoring the status's
  /// retry-after-ms hint (deterministic jitter, seeded per query). The
  /// report's per_tenant digests carry user-observed p50/p99/throughput
  /// per tenant; a query that stays throttled through every retry counts
  /// as one tenant_throttled failure.
  WorkloadRunReport RunTenants(const std::vector<TenantSession>& tenants,
                               const CbqtConfig& config) const;

  /// Executes and returns the result rows, canonically sorted — used by
  /// the correctness tests to prove transformation equivalence across
  /// optimizer modes.
  Result<std::vector<Row>> RunToSortedRows(const std::string& sql,
                                           const CbqtConfig& config) const;

 private:
  const Database& db_;
  CostParams params_;
};

// SortRowsCanonical lives in common/result_compare.h (included above); the
// declaration used to be here and call sites still reach it through this
// header.

}  // namespace cbqt

#endif  // CBQT_WORKLOAD_RUNNER_H_
