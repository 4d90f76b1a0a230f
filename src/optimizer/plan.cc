#include "optimizer/plan.h"

#include "common/str_util.h"
#include "sql/unparser.h"

namespace cbqt {

int FindSlot(const Schema& schema, const std::string& alias,
             const std::string& name) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name != name) continue;
    if (alias.empty() || schema[i].alias == alias) return static_cast<int>(i);
  }
  return -1;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto out = std::make_unique<PlanNode>(op);
  out->children = children;
  out->output = output;
  out->table_name = table_name;
  out->table_alias = table_alias;
  out->index_name = index_name;
  for (const auto& e : probes) out->probes.push_back(e->Clone());
  for (const auto& e : filter) out->filter.push_back(e->Clone());
  out->join_kind = join_kind;
  for (const auto& e : join_conds) out->join_conds.push_back(e->Clone());
  for (const auto& e : hash_left_keys) out->hash_left_keys.push_back(e->Clone());
  for (const auto& e : hash_right_keys) {
    out->hash_right_keys.push_back(e->Clone());
  }
  out->null_aware = null_aware;
  out->rescan_right = rescan_right;
  for (const auto& e : group_keys) out->group_keys.push_back(e->Clone());
  for (const auto& e : agg_exprs) out->agg_exprs.push_back(e->Clone());
  out->grouping_sets = grouping_sets;
  for (const auto& e : projections) out->projections.push_back(e->Clone());
  for (const auto& e : sort_keys) out->sort_keys.push_back(e->Clone());
  out->sort_ascending = sort_ascending;
  out->set_op = set_op;
  out->limit = limit;
  for (const auto& e : window_exprs) out->window_exprs.push_back(e->Clone());
  out->subplans = subplans;
  for (const auto& keys : subplan_corr_keys) {
    std::vector<ExprPtr> copy;
    for (const auto& k : keys) copy.push_back(k->Clone());
    out->subplan_corr_keys.push_back(std::move(copy));
  }
  out->est_rows = est_rows;
  out->est_cost = est_cost;
  return out;
}

int64_t PlanNode::EstimateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(PlanNode));
  for (const auto& slot : output) {
    bytes += static_cast<int64_t>(sizeof(ColumnSlot) + slot.alias.capacity() +
                                  slot.name.capacity());
  }
  bytes += static_cast<int64_t>(table_name.capacity() +
                                table_alias.capacity() +
                                index_name.capacity());
  auto exprs = [&bytes](const std::vector<ExprPtr>& list) {
    for (const auto& e : list) bytes += e->EstimateBytes();
  };
  exprs(probes);
  exprs(filter);
  exprs(join_conds);
  exprs(hash_left_keys);
  exprs(hash_right_keys);
  exprs(group_keys);
  exprs(agg_exprs);
  for (const auto& set : grouping_sets) {
    bytes += static_cast<int64_t>(set.size() * sizeof(int));
  }
  exprs(projections);
  exprs(sort_keys);
  exprs(window_exprs);
  for (const auto& keys : subplan_corr_keys) exprs(keys);
  for (const auto& c : children) bytes += c->EstimateBytes();
  for (const auto& s : subplans) bytes += s->EstimateBytes();
  return bytes;
}

namespace {

const char* OpName(PlanOp op) {
  switch (op) {
    case PlanOp::kTableScan:
      return "TableScan";
    case PlanOp::kIndexScan:
      return "IndexScan";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kAggregate:
      return "Aggregate";
    case PlanOp::kSort:
      return "Sort";
    case PlanOp::kDistinct:
      return "Distinct";
    case PlanOp::kSetOp:
      return "SetOp";
    case PlanOp::kLimit:
      return "Limit";
    case PlanOp::kWindow:
      return "Window";
    case PlanOp::kSubqueryFilter:
      return "SubqueryFilter";
  }
  return "?";
}

const char* JoinName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "inner";
    case JoinKind::kLeftOuter:
      return "left";
    case JoinKind::kSemi:
      return "semi";
    case JoinKind::kAnti:
      return "anti";
    case JoinKind::kAntiNA:
      return "anti-na";
  }
  return "?";
}

std::string NodeLabel(const PlanNode& node, bool with_costs) {
  std::string out = OpName(node.op);
  switch (node.op) {
    case PlanOp::kTableScan:
      out += " " + node.table_name + " as " + node.table_alias;
      break;
    case PlanOp::kIndexScan: {
      out += " " + node.table_name + " as " + node.table_alias + " via " +
             node.index_name + " (";
      std::vector<std::string> probes;
      for (const auto& p : node.probes) probes.push_back(ExprToSql(*p));
      out += JoinStrings(probes, ", ") + ")";
      break;
    }
    case PlanOp::kNestedLoopJoin:
    case PlanOp::kHashJoin:
      out += std::string(" [") + JoinName(node.join_kind) +
             (node.null_aware ? ",null-aware" : "") + "]";
      break;
    case PlanOp::kSetOp:
      switch (node.set_op) {
        case SetOpKind::kUnionAll:
          out += " UNION ALL";
          break;
        case SetOpKind::kUnion:
          out += " UNION";
          break;
        case SetOpKind::kIntersect:
          out += " INTERSECT";
          break;
        case SetOpKind::kMinus:
          out += " MINUS";
          break;
        default:
          break;
      }
      break;
    case PlanOp::kLimit:
      out += " " + std::to_string(node.limit);
      break;
    case PlanOp::kAggregate:
      if (!node.grouping_sets.empty()) {
        out += " [" + std::to_string(node.grouping_sets.size()) + " sets]";
      }
      break;
    default:
      break;
  }
  if (!node.filter.empty()) {
    std::vector<std::string> preds;
    for (const auto& f : node.filter) preds.push_back(ExprToSql(*f));
    out += " filter(" + JoinStrings(preds, " AND ") + ")";
  }
  if (node.op == PlanOp::kHashJoin && !node.hash_left_keys.empty()) {
    std::vector<std::string> keys;
    for (size_t i = 0; i < node.hash_left_keys.size(); ++i) {
      keys.push_back(ExprToSql(*node.hash_left_keys[i]) + "=" +
                     ExprToSql(*node.hash_right_keys[i]));
    }
    out += " on(" + JoinStrings(keys, ",") + ")";
  }
  if (node.op == PlanOp::kNestedLoopJoin && !node.join_conds.empty()) {
    std::vector<std::string> keys;
    for (const auto& c : node.join_conds) keys.push_back(ExprToSql(*c));
    out += " on(" + JoinStrings(keys, " AND ") + ")";
  }
  if (with_costs) {
    out += StrFormat("  {rows=%.0f cost=%.1f}", node.est_rows, node.est_cost);
  }
  return out;
}

void PlanToStringRec(const PlanNode& node, int indent, bool with_costs,
                     std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(NodeLabel(node, with_costs));
  out->append("\n");
  for (const auto& c : node.children) {
    PlanToStringRec(*c, indent + 1, with_costs, out);
  }
  for (const auto& s : node.subplans) {
    out->append(static_cast<size_t>(indent + 1) * 2, ' ');
    out->append("[subplan]\n");
    PlanToStringRec(*s, indent + 2, with_costs, out);
  }
}

}  // namespace

std::string PlanToString(const PlanNode& node, int indent) {
  std::string out;
  PlanToStringRec(node, indent, /*with_costs=*/true, &out);
  return out;
}

std::string PlanShape(const PlanNode& node) {
  std::string out;
  PlanToStringRec(node, 0, /*with_costs=*/false, &out);
  return out;
}

}  // namespace cbqt
