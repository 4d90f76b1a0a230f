#ifndef CBQT_EXEC_OPERATORS_H_
#define CBQT_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/budget.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/eval.h"
#include "exec/executor.h"
#include "exec/spill.h"
#include "optimizer/plan.h"
#include "storage/database.h"

namespace cbqt {

/// Shared execution state for one query: the database, the run's options,
/// the evaluation context (frame stack / ROWNUM / subquery resolver), the
/// stats block the executor owns (never a caller pointer), and the lazily
/// created spill manager. One ExecContext per Execute() call; every
/// operator of the tree borrows it.
struct ExecContext {
  /// `options.batch_size` is clamped to at least 1.
  ExecContext(const Database& database, const ExecOptions& opts);

  const Database* db;
  const ExecOptions options;
  EvalContext eval;
  ExecStats stats;

  /// Derived from `options`: whether any guardrail is armed, and the row
  /// budget (max_exec_rows, unbounded when unset).
  const bool has_guards;
  const int64_t row_cap;

  /// Counts `n` rows of operator work — one batch, one poll. The per-batch
  /// cost is one add, one predictable compare, and one branch on the
  /// guardrail flag; cancellation and the kExecBatch fault site fire at
  /// batch granularity (the polling quantum is now a batch, not a row).
  Status CountBatch(int64_t n);

  /// Cancellation/guardrail poll without counting work — used inside spill
  /// partition processing, where the rows were already counted when first
  /// consumed. Does not consume kExecBatch fault hits.
  Status PollOnly() {
    return has_guards ? options.guards.Poll() : Status::OK();
  }

  /// True when pipeline breakers must account their buffered bytes (a
  /// memory tracker is attached, or fault injection wants the charge
  /// sites). Call sites skip computing byte estimates entirely otherwise.
  bool charge_memory() const {
    return options.guards.memory != nullptr || options.guards.faults != nullptr;
  }

  /// Buffered bytes accumulate locally and hit the tracker's atomics once
  /// per page of growth; budget enforcement lags by at most this many
  /// bytes per open buffer.
  static constexpr int64_t kChargeQuantumBytes = 4096;

  /// A reservation for one pipeline breaker's buffer, page-batched.
  ScopedReservation BufferReservation() {
    ScopedReservation res(options.guards.memory);
    res.set_flush_quantum(kChargeQuantumBytes);
    return res;
  }

  /// Charges `bytes` of a pipeline breaker's buffer via `res`, firing the
  /// kExecSpillCheck / kMemoryPressure injection sites.
  Status ChargeBuffered(ScopedReservation& res, int64_t bytes);

  /// Charges one buffered row (plus `extra` structure bytes). Zero cost
  /// (no byte estimate computed) when no guardrails are configured.
  Status ChargeBufferedRow(ScopedReservation& res, const Row& row,
                           int64_t extra = 0) {
    if (!charge_memory()) return Status::OK();
    return ChargeBuffered(res, EstimateRowBytes(row) + extra);
  }

  /// True when a failed charge should degrade to disk instead of failing
  /// the query: spill is enabled and the failure is a memory one (other
  /// statuses — injected kInternal faults, cancellation — propagate).
  bool ShouldSpill(const Status& s) const {
    return options.enable_spill && s.code() == StatusCode::kResourceExhausted;
  }

  /// The query's spill manager, created on first use so in-memory queries
  /// never touch the filesystem.
  Result<SpillManager*> GetSpill();

 private:
  std::unique_ptr<SpillManager> spill_mgr_;
};

/// The vectorized pull-model operator interface. Lifecycle:
/// Open() → NextBatch()* → Close(), repeatable (a nested-loop rescan
/// re-Opens its right subtree per outer row). NextBatch fills `out` with up
/// to ExecContext::batch_size rows and returns true, or returns false at
/// end of stream; a true return with an *empty* batch is legal (a scan
/// whose batch was fully filtered) and callers must keep pulling. Batch
/// rows are owned by the caller once returned and are invalidated by the
/// caller's next NextBatch call on the same operator.
class Operator {
 public:
  Operator(ExecContext* ctx, const PlanNode* node) : ctx_(ctx), node_(node) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual Status Open() = 0;
  virtual Result<bool> NextBatch(RowBatch* out) = 0;
  virtual void Close() {}

  const PlanNode& node() const { return *node_; }
  ExecContext* context() const { return ctx_; }

 protected:
  ExecContext* ctx_;
  const PlanNode* node_;
};

/// Builds the operator tree for a plan by walking the PlanNode tree — one
/// subclass per plan operator kind.
class OperatorFactory {
 public:
  static Result<std::unique_ptr<Operator>> Build(const PlanNode& node,
                                                 ExecContext* ctx);
};

/// Open → pull every batch → Close, materializing the full result. Used by
/// the executor for the root and internally for buffered inputs and TIS
/// subplans. With `charge`, a query that accounts memory charges each row
/// to it as it arrives, and a failed charge fails the drain (typed
/// kResourceExhausted over budget; there is no spill path); the caller
/// releases `charge` when it drops the rows. The executor's root drain is
/// the caller's result and passes none.
Result<std::vector<Row>> DrainOperator(Operator* op,
                                       ScopedReservation* charge = nullptr);

}  // namespace cbqt

#endif  // CBQT_EXEC_OPERATORS_H_
