#include "exec/prune.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "sql/expr_util.h"

namespace cbqt {
namespace {

void MarkAll(std::vector<bool>* req) {
  std::fill(req->begin(), req->end(), true);
}

std::vector<size_t> IdentityKept(size_t n) {
  std::vector<size_t> kept(n);
  for (size_t i = 0; i < n; ++i) kept[i] = i;
  return kept;
}

/// Marks the slots of `schema` that `e` binds to. Returns false when the
/// expression contains a subquery — its subplan reaches this schema through
/// frames in ways the walk cannot enumerate, so the caller must keep all
/// slots. References that do not resolve in `schema` belong to an enclosing
/// frame (kept whole by the conservative cases below) or to an alternate
/// naming of the same positions (derived-table renames; callers mark against
/// both namings). Over-marking is always safe; only a missed local binding
/// would be a bug.
bool MarkRefs(const Expr* e, const Schema& schema, std::vector<bool>* req) {
  bool precise = true;
  VisitExprConst(e, [&](const Expr* x) {
    if (x->kind == ExprKind::kSubquery) precise = false;
    if (x->kind != ExprKind::kColumnRef) return;
    int slot = FindSlot(schema, x->table_alias, x->column_name);
    if (slot >= 0) (*req)[static_cast<size_t>(slot)] = true;
  });
  return precise;
}

bool MarkList(const std::vector<ExprPtr>& list, const Schema& schema,
              std::vector<bool>* req) {
  bool precise = true;
  for (const auto& e : list) precise = MarkRefs(e.get(), schema, req) && precise;
  return precise;
}

Schema Select(const Schema& schema, const std::vector<size_t>& kept) {
  Schema out;
  out.reserve(kept.size());
  for (size_t i : kept) out.push_back(schema[i]);
  return out;
}

std::vector<size_t> PruneNode(const PlanNode& node, std::vector<bool> required,
                              std::unique_ptr<PlanNode>* copy);

/// The node's own copy, made on the first change under or at it.
PlanNode* CopyOf(const PlanNode& node, std::unique_ptr<PlanNode>* copy) {
  if (*copy == nullptr) *copy = node.Clone();
  return copy->get();
}

std::vector<bool> AllSlots(const PlanNode& node) {
  return std::vector<bool>(node.output.size(), true);
}

std::vector<size_t> PruneChild(const PlanNode& node, size_t i,
                               std::vector<bool> required,
                               std::unique_ptr<PlanNode>* copy) {
  std::unique_ptr<PlanNode> pruned;
  std::vector<size_t> kept =
      PruneNode(*node.children[i], std::move(required), &pruned);
  if (pruned != nullptr) CopyOf(node, copy)->children[i] = std::move(pruned);
  return kept;
}

/// Narrows the node's output to the slots at `kept` when that drops any.
std::vector<size_t> Narrow(const PlanNode& node, std::vector<size_t> kept,
                           std::unique_ptr<PlanNode>* copy) {
  if (kept.size() != node.output.size()) {
    CopyOf(node, copy)->output = Select(node.output, kept);
  }
  return kept;
}

/// Prunes under `node` given `required[i]` = some ancestor needs slot i of
/// node.output. Returns the original positions the node still produces, in
/// order. The plan is shared and never modified: when the node or anything
/// under it changes, `*copy` receives a copy of the node pointing at the
/// pruned children, and every unchanged child stays shared. Each node
/// rebuilds its output from its *own* original slots at the kept positions —
/// never from the child's — because pass-through nodes at derived-table
/// boundaries rename slots (same positions, different (alias, name)) and
/// ancestors bind against the renamed schema.
std::vector<size_t> PruneNode(const PlanNode& node, std::vector<bool> required,
                              std::unique_ptr<PlanNode>* copy) {
  switch (node.op) {
    case PlanOp::kTableScan:
    case PlanOp::kIndexScan: {
      // The pushed filter evaluates against the scan's own output; probes
      // resolve through enclosing frames before any row exists, so they
      // impose nothing on the output (a name collision just over-marks).
      if (!MarkList(node.filter, node.output, &required)) MarkAll(&required);
      MarkList(node.probes, node.output, &required);
      std::vector<size_t> kept;
      for (size_t i = 0; i < node.output.size(); ++i) {
        if (required[i]) kept.push_back(i);
      }
      return Narrow(node, std::move(kept), copy);
    }

    case PlanOp::kFilter:
    case PlanOp::kSort:
    case PlanOp::kLimit: {
      // Pass-through: output slot i is child slot i, possibly renamed.
      // Expressions on these nodes compile against the node's own schema
      // (filters) or the child's (sort keys); mark against both namings.
      const Schema& child_output = node.children[0]->output;
      std::vector<bool> creq = required;
      bool ok = MarkList(node.filter, node.output, &creq);
      ok = MarkList(node.filter, child_output, &creq) && ok;
      ok = MarkList(node.sort_keys, node.output, &creq) && ok;
      ok = MarkList(node.sort_keys, child_output, &creq) && ok;
      if (!ok) MarkAll(&creq);
      return Narrow(node, PruneChild(node, 0, std::move(creq), copy), copy);
    }

    case PlanOp::kDistinct:
      // Deduplicates on the whole row — every column is semantic.
      PruneChild(node, 0, AllSlots(*node.children[0]), copy);
      return IdentityKept(node.output.size());

    case PlanOp::kSetOp:
      // Branch outputs align by position and row equality drives the set
      // semantics; pruning any branch would misalign or change results.
      for (size_t i = 0; i < node.children.size(); ++i) {
        PruneChild(node, i, AllSlots(*node.children[i]), copy);
      }
      return IdentityKept(node.output.size());

    case PlanOp::kWindow: {
      const Schema& child_output = node.children[0]->output;
      size_t cn = child_output.size();
      std::vector<bool> creq(cn, false);
      for (size_t i = 0; i < cn && i < required.size(); ++i) {
        creq[i] = required[i];
      }
      bool ok = MarkList(node.window_exprs, child_output, &creq);
      std::vector<bool> own(node.output.size(), false);
      ok = MarkList(node.window_exprs, node.output, &own) && ok;
      for (size_t i = 0; i < cn; ++i) creq[i] = creq[i] || own[i];
      if (!ok) MarkAll(&creq);
      std::vector<size_t> kept = PruneChild(node, 0, std::move(creq), copy);
      // Appended window slots stay at the tail of the output.
      for (size_t i = cn; i < node.output.size(); ++i) kept.push_back(i);
      return Narrow(node, std::move(kept), copy);
    }

    case PlanOp::kProject: {
      // Output is defined by the projections, not the child.
      if (!node.children.empty()) {
        const Schema& child_output = node.children[0]->output;
        std::vector<bool> creq(child_output.size(), false);
        bool ok = MarkList(node.projections, child_output, &creq);
        ok = MarkList(node.filter, child_output, &creq) && ok;
        if (!ok) MarkAll(&creq);
        PruneChild(node, 0, std::move(creq), copy);
      }
      return IdentityKept(node.output.size());
    }

    case PlanOp::kAggregate: {
      // Output is keys + aggregates, independent of the input width.
      const Schema& child_output = node.children[0]->output;
      std::vector<bool> creq(child_output.size(), false);
      bool ok = MarkList(node.group_keys, child_output, &creq);
      ok = MarkList(node.agg_exprs, child_output, &creq) && ok;
      ok = MarkList(node.filter, child_output, &creq) && ok;
      if (!ok) MarkAll(&creq);
      PruneChild(node, 0, std::move(creq), copy);
      return IdentityKept(node.output.size());
    }

    case PlanOp::kNestedLoopJoin:
    case PlanOp::kHashJoin: {
      const Schema& left_output = node.children[0]->output;
      const Schema& right_output = node.children[1]->output;
      size_t ln = left_output.size();
      size_t rn = right_output.size();
      bool left_only = node.join_kind == JoinKind::kSemi ||
                       node.join_kind == JoinKind::kAnti ||
                       node.join_kind == JoinKind::kAntiNA;
      std::vector<bool> lreq(ln, false);
      std::vector<bool> rreq(rn, false);
      for (size_t i = 0; i < required.size(); ++i) {
        if (!required[i]) continue;
        if (i < ln) {
          lreq[i] = true;
        } else if (!left_only && i - ln < rn) {
          rreq[i - ln] = true;
        }
      }
      bool ok = MarkList(node.hash_left_keys, left_output, &lreq);
      ok = MarkList(node.hash_right_keys, right_output, &rreq) && ok;
      // Generic conditions and residual filters see the combined row.
      Schema combined = left_output;
      combined.insert(combined.end(), right_output.begin(),
                      right_output.end());
      std::vector<bool> creq(ln + rn, false);
      ok = MarkList(node.join_conds, combined, &creq) && ok;
      ok = MarkList(node.filter, combined, &creq) && ok;
      for (size_t i = 0; i < ln; ++i) lreq[i] = lreq[i] || creq[i];
      for (size_t i = 0; i < rn; ++i) rreq[i] = rreq[i] || creq[ln + i];
      if (!ok) {
        MarkAll(&lreq);
        MarkAll(&rreq);
      }
      // A rescanning right subtree resolves outer references into the left
      // row's frame by name; keep the left side whole.
      if (node.op == PlanOp::kNestedLoopJoin && node.rescan_right) {
        MarkAll(&lreq);
      }
      std::vector<size_t> kept = PruneChild(node, 0, std::move(lreq), copy);
      std::vector<size_t> rkept = PruneChild(node, 1, std::move(rreq), copy);
      if (!left_only) {
        for (size_t i : rkept) kept.push_back(ln + i);
      }
      return Narrow(node, std::move(kept), copy);
    }

    case PlanOp::kSubqueryFilter:
      // Subplans resolve correlated references into the outer row's frame by
      // name; keep the child whole, and prune inside each subplan on its own.
      PruneChild(node, 0, AllSlots(*node.children[0]), copy);
      for (size_t i = 0; i < node.subplans.size(); ++i) {
        PlanPtr sub = PruneScanColumns(*node.subplans[i]);
        if (sub != nullptr) CopyOf(node, copy)->subplans[i] = std::move(sub);
      }
      return IdentityKept(node.output.size());
  }
  return IdentityKept(node.output.size());
}

}  // namespace

PlanPtr PruneScanColumns(const PlanNode& root) {
  // The caller consumes the root schema as-is.
  std::unique_ptr<PlanNode> copy;
  PruneNode(root, AllSlots(root), &copy);
  return copy;
}

}  // namespace cbqt
