#include "exec/executor.h"

#include <utility>

#include "exec/operators.h"
#include "exec/prune.h"

namespace cbqt {

Result<ExecResult> Executor::Execute(const PlanNode& plan) {
  // The context must outlive the operator tree (operators release
  // reservations and drop spill files against it in their destructors), so
  // it is declared first.
  ExecContext ctx(db_, options_);

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
