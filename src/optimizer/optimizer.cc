#include "optimizer/optimizer.h"

namespace cbqt {

Result<PhysicalOptimization> PhysicalOptimizer::Optimize(
    const QueryBlock& qb, const PhysicalOptimizeOptions& options) const {
  if (options.faults != nullptr) {
    CBQT_RETURN_IF_ERROR(options.faults->MaybeFail(FaultSite::kPlanner));
  }
  if (options.budget != nullptr && options.budget->CheckDeadline()) {
    return Status::BudgetExhausted(
        "optimization deadline exceeded before planning");
  }
  if (options.guards.any()) {
    CBQT_RETURN_IF_ERROR(options.guards.Poll());
  }
  Planner planner(db_, params_, options.cache, options.cost_cutoff,
                  options.budget, options.join_memo, options.guards,
                  options.relaxed_annotation_reuse);
  auto block = planner.PlanBlock(qb);
  if (!block.ok()) return block.status();
  PhysicalOptimization out;
  out.cost = block->plan->est_cost;
  out.rows = block->plan->est_rows;
  out.blocks_planned = planner.blocks_planned();
  out.plan = block->plan.Take();
  return out;
}

}  // namespace cbqt
