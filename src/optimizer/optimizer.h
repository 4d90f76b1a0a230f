#ifndef CBQT_OPTIMIZER_OPTIMIZER_H_
#define CBQT_OPTIMIZER_OPTIMIZER_H_

#include <limits>
#include <memory>

#include "cbqt/annotation_cache.h"
#include "common/budget.h"
#include "common/fault_injector.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "optimizer/planner.h"
#include "sql/query_block.h"
#include "storage/database.h"

namespace cbqt {

/// Result of physically optimizing a query tree.
struct PhysicalOptimization {
  /// The root is the caller's own copy; everything below it is shared.
  std::unique_ptr<PlanNode> plan;
  double cost = 0;
  double rows = 0;
  /// Query blocks fully optimized during this call (cache hits excluded) —
  /// the quantity Table 1 accounts for.
  int64_t blocks_planned = 0;
};

/// Per-call knobs of one physical optimization.
struct PhysicalOptimizeOptions {
  AnnotationCache* cache = nullptr;  ///< §3.4.2 sub-tree annotation reuse
  double cost_cutoff =
      std::numeric_limits<double>::infinity();  ///< §3.4.1 cut-off
  /// When non-null, the planner polls the optimization deadline per planned
  /// block and aborts with kBudgetExhausted once it trips — the caller
  /// (search / framework) degrades to its best-so-far answer.
  BudgetTracker* budget = nullptr;
  /// When non-null, cross-state join-order memoization: finished DP
  /// subproblems (per subset of a block's FROM list) are keyed by canonical
  /// fingerprints of the member relations and applicable predicates, so
  /// byte-identical join problems recurring across transformation states
  /// skip re-enumeration. Results are bit-identical with and without it.
  AnnotationCache* join_memo = nullptr;
  /// Runtime guardrails (cancellation token, per-query memory tracker,
  /// guardrail fault sites), polled at the per-block budget quantum.
  /// FaultSite::kPlanner of `guards.faults` fires once per Optimize call.
  QueryGuards guards;
};

/// Facade over the Planner: the "physical optimizer" box of the paper's
/// Figure 1. Stateless; each call may share an AnnotationCache to reuse
/// sub-tree cost annotations across transformation states (§3.4.2), a cost
/// cutoff (§3.4.1), and a resource budget (governor).
class PhysicalOptimizer {
 public:
  explicit PhysicalOptimizer(const Database& db, CostParams params = {})
      : db_(db), params_(params) {}

  Result<PhysicalOptimization> Optimize(
      const QueryBlock& qb, const PhysicalOptimizeOptions& options = {}) const;

  const CostParams& params() const { return params_; }

 private:
  const Database& db_;
  CostParams params_;
};

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_OPTIMIZER_H_
