#ifndef CBQT_EXEC_EXECUTOR_H_
#define CBQT_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/spill.h"
#include "optimizer/plan.h"
#include "storage/database.h"

namespace cbqt {

/// Execution counters. `rows_processed` is a deterministic work measure
/// (rows flowing through operators) used by the benchmarks alongside wall
/// time; the subquery counters expose the TIS caching behaviour
/// (paper §2.1.1: "the execution engine caches the results ... for the
/// tuples in the left table"); the spill counters report how pipeline
/// breakers degraded to disk under memory pressure.
struct ExecStats {
  int64_t rows_processed = 0;
  /// CountBatch invocations — the number of budget/guardrail polling quanta
  /// (one per batch of rows, not one per row).
  int64_t batches = 0;
  int64_t subquery_executions = 0;
  int64_t subquery_cache_hits = 0;
  /// Pipeline breakers (sort / hash-join build / aggregation / distinct)
  /// that switched to spilling when their reservation hit the budget.
  int64_t spilled_operators = 0;
  SpillStats spill;
};

/// Everything that configures one Executor — the single way to run a plan.
/// `budget` and `guards` are borrowed (not owned) and may be null/empty.
struct ExecOptions {
  /// Caps the rows pushed through operators (OptimizerBudget::
  /// max_exec_rows): a runaway query fails fast with kBudgetExhausted.
  BudgetTracker* budget = nullptr;
  /// Runtime guardrails: cancellation polled once per batch, pipeline
  /// breakers charge buffered bytes against the per-query memory tracker,
  /// fault-injection sites armed through `guards.faults`.
  QueryGuards guards;
  /// Rows per operator batch. Smaller batches poll guardrails more often
  /// (tests pin this low to land injected faults deterministically).
  size_t batch_size = kDefaultBatchSize;
  /// Directory for spill temp files; empty = the system temp directory.
  std::string spill_dir;
  /// When true (default), a pipeline breaker whose reservation exceeds the
  /// memory budget spills partitions to disk and the query completes;
  /// when false the charge failure surfaces as kResourceExhausted.
  bool enable_spill = true;
};

/// What Execute returns: the result rows plus the execution counters. The
/// executor always owns its stats block internally — there is no caller
/// out-param to leave null (the old API's latent null-deref).
struct ExecResult {
  std::vector<Row> rows;
  ExecStats stats;
};

/// Vectorized pull-model executor: the plan tree is compiled into an
/// Operator tree (exec/operators.h) exchanging RowBatch containers, and the
/// root is drained to completion. Faithful to the plan's choices: join
/// methods and order, index probes, semijoin early-out, null-aware
/// antijoin, TIS subquery evaluation with correlation-value caching, lazy
/// ROWNUM filters, grouping sets, windows. Pipeline breakers degrade to
/// disk via SpillManager instead of failing when the memory budget is hit.
class Executor {
 public:
  explicit Executor(const Database& db, ExecOptions options = {})
      : db_(db), options_(std::move(options)) {}

  /// Runs the plan to completion and returns the result rows (matching
  /// `plan.output`) together with the execution stats. `plan` is only read,
  /// so any number of executions may share one plan concurrently.
  Result<ExecResult> Execute(const PlanNode& plan);

 private:
  const Database& db_;
  ExecOptions options_;
};

}  // namespace cbqt

#endif  // CBQT_EXEC_EXECUTOR_H_
