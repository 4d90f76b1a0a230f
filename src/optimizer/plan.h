#ifndef CBQT_OPTIMIZER_PLAN_H_
#define CBQT_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/query_block.h"

namespace cbqt {

/// One output column of a plan operator. Expressions reference slots by
/// (alias, name); an empty slot alias matches refs with empty alias.
struct ColumnSlot {
  std::string alias;
  std::string name;
  DataType type = DataType::kUnknown;
};

using Schema = std::vector<ColumnSlot>;

/// Index of the slot matching (alias, name); alias "" in the ref matches any
/// slot with that name. Returns -1 if absent.
int FindSlot(const Schema& schema, const std::string& alias,
             const std::string& name);

/// Physical operator kinds.
enum class PlanOp {
  kTableScan,       ///< full scan of a base table (+ pushed filter)
  kIndexScan,       ///< index probe on a base table (+ residual filter)
  kFilter,          ///< predicate on child rows
  kProject,         ///< computes select expressions
  kNestedLoopJoin,  ///< left outer loop; right re-evaluated per row
  kHashJoin,        ///< equi-join; builds on the right child
  kAggregate,       ///< hash aggregation (plain or grouping sets)
  kSort,
  kDistinct,
  kSetOp,           ///< UNION ALL / UNION / INTERSECT / MINUS over children
  kLimit,           ///< ROWNUM cutoff with optional lazy filter
  kWindow,          ///< window aggregates over partitions
  kSubqueryFilter,  ///< TIS evaluation of subquery predicates, with caching
};

struct PlanNode;

/// A built, immutable plan subtree, shared by every parent, cache and
/// execution that holds it.
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A node of the physical plan tree. Expressions inside a node reference
/// the node's *input* schema (its children's concatenated output for joins)
/// at corr_depth 0, and enclosing TIS/lateral frames at higher depths.
///
/// A node is mutable only until it is handed to a parent or a cache as a
/// PlanPtr; reusing a subtree is a pointer copy.
struct PlanNode {
  PlanOp op;
  std::vector<PlanPtr> children;
  Schema output;

  // kTableScan / kIndexScan
  std::string table_name;
  std::string table_alias;
  std::string index_name;
  /// Probe expressions for kIndexScan (equality on the index's leading
  /// key columns, in index order). May reference outer frames.
  std::vector<ExprPtr> probes;

  /// Residual predicate evaluated on this node's produced rows (scans,
  /// joins, filter nodes, lazy limit filter).
  std::vector<ExprPtr> filter;

  // joins
  JoinKind join_kind = JoinKind::kInner;
  /// Generic join conditions evaluated on the combined row (NL join), or
  /// the non-equi residuals for hash joins.
  std::vector<ExprPtr> join_conds;
  /// Equi-key pairs for hash joins (parallel vectors; left keys
  /// reference the left child, right keys the right child).
  std::vector<ExprPtr> hash_left_keys;
  std::vector<ExprPtr> hash_right_keys;
  /// Null-aware antijoin (NOT IN semantics).
  bool null_aware = false;
  /// Nested-loop joins only: re-execute the right child once per left row
  /// (index probes / lateral views referencing the left row). When false the
  /// right child is materialized once and rescanned.
  bool rescan_right = false;

  // kAggregate
  std::vector<ExprPtr> group_keys;
  std::vector<ExprPtr> agg_exprs;  ///< kAggregate-kind expressions
  std::vector<std::vector<int>> grouping_sets;  ///< indices into group_keys

  // kProject
  std::vector<ExprPtr> projections;

  // kSort
  std::vector<ExprPtr> sort_keys;
  std::vector<bool> sort_ascending;

  // kSetOp
  SetOpKind set_op = SetOpKind::kNone;

  // kLimit
  int64_t limit = -1;

  // kWindow: each expression is a kWindow expr computing one new slot.
  std::vector<ExprPtr> window_exprs;

  // kSubqueryFilter: `filter` holds the predicates; `subplans[i]` is the
  // plan of the i-th kSubquery node in pre-order over `filter` (and
  // `projections` for scalar subqueries in the select list).
  std::vector<PlanPtr> subplans;
  /// Per subplan: expressions over the outer row forming the TIS cache key
  /// (the correlated outer columns, paper §3.4.4 caching / §2.2.1 TIS).
  std::vector<std::vector<ExprPtr>> subplan_corr_keys;

  // Optimizer annotations.
  double est_rows = 0;
  double est_cost = 0;

  PlanNode() : op(PlanOp::kTableScan) {}
  explicit PlanNode(PlanOp o) : op(o) {}
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// A mutable copy of this node alone: its own fields and expressions are
  /// copied, its children and subplans are shared.
  std::unique_ptr<PlanNode> Clone() const;

  /// Approximate in-memory footprint of this plan tree (node structs,
  /// strings, expressions, subplans), for the memory accounting layer —
  /// plan-cache entries are charged by this estimate. A shared subtree is
  /// charged to each holder.
  int64_t EstimateBytes() const;
};

/// One-line-per-node rendering of a plan tree with cost annotations, for
/// EXPLAIN-style output and plan-diff experiments (Figure 2 counts plan
/// changes).
std::string PlanToString(const PlanNode& node, int indent = 0);

/// A canonical structural string of the plan *shape* (operators, join
/// methods, access paths, join order) without cost annotations — two plans
/// with equal shape strings are "the same execution plan" for Figure 2's
/// plan-change accounting.
std::string PlanShape(const PlanNode& node);

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_PLAN_H_
