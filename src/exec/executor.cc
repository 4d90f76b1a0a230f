#include "exec/executor.h"

#include <limits>
#include <utility>

#include "exec/operators.h"
#include "exec/prune.h"

namespace cbqt {

Result<ExecResult> Executor::Execute(const PlanNode& plan) {
  // The context must outlive the operator tree (operators release
  // reservations and drop spill files against it in their destructors), so
  // it is declared first.
  ExecContext ctx;
  ctx.db = &db_;
  ctx.budget = options_.budget;
  ctx.guards = options_.guards;
  ctx.has_guards = options_.guards.any();
  if (options_.budget != nullptr &&
      options_.budget->budget().max_exec_rows > 0) {
    ctx.row_cap = options_.budget->budget().max_exec_rows;
  }
  ctx.batch_size = options_.batch_size == 0 ? 1 : options_.batch_size;
  ctx.enable_spill = options_.enable_spill;
  ctx.spill_dir = options_.spill_dir;

  // Column pruning copies only the nodes it narrows (and their ancestors);
  // the copy must outlive the operator tree, which holds pointers into it.
  PlanPtr pruned = PruneScanColumns(plan);

  auto root = OperatorFactory::Build(pruned != nullptr ? *pruned : plan, &ctx);
  if (!root.ok()) return root.status();
  auto rows = DrainOperator(root.value().get());
  if (!rows.ok()) return rows.status();

  ExecResult out;
  out.rows = std::move(rows.value());
  out.stats = ctx.stats;
  return out;
}

}  // namespace cbqt
