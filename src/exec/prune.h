#ifndef CBQT_EXEC_PRUNE_H_
#define CBQT_EXEC_PRUNE_H_

#include "optimizer/plan.h"

namespace cbqt {

/// Executor-side column pruning (late materialization).
///
/// Narrows the output schemas of scan nodes to the slots actually referenced
/// by their ancestors, then recomputes the schemas of pass-through operators
/// (filter, sort, limit, window) and joins bottom-up so every node's `output`
/// stays consistent with what its operator emits. The root's schema is never
/// changed, so results are identical; only the width of intermediate rows
/// shrinks. Because expressions bind to slots by (alias, name) — both in the
/// compiled fast path and in the tree evaluator's frame search — narrowing a
/// schema never re-binds a reference: a ref that resolved locally keeps its
/// slot (the analysis marks it required), and a ref that resolved through an
/// enclosing frame still fails locally (pruning only removes slots).
///
/// Conservative cases keep every column: DISTINCT and set operations (whole-
/// row equality semantics), subquery-filter children and rescanning nested-
/// loop left sides (correlated references resolve into their frames by name),
/// and any expression containing a subquery.
///
/// The plan is never modified: the result is a copy of just the nodes whose
/// schemas narrow and their ancestors, sharing every unchanged subtree with
/// `root`. Returns null when nothing narrows (execute `root` itself).
PlanPtr PruneScanColumns(const PlanNode& root);

}  // namespace cbqt

#endif  // CBQT_EXEC_PRUNE_H_
