#include "sql/signature.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "sql/unparser.h"

namespace cbqt {

namespace {

const char* SigBopSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kNullSafeEq:
      return "IS NOT DISTINCT FROM";
  }
  return "?";
}

const char* SigAggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

const char* SigSetOpName(SetOpKind k) {
  switch (k) {
    case SetOpKind::kUnionAll:
      return "UNION ALL";
    case SetOpKind::kUnion:
      return "UNION";
    case SetOpKind::kIntersect:
      return "INTERSECT";
    case SetOpKind::kMinus:
      return "MINUS";
    case SetOpKind::kNone:
      return "";
  }
  return "";
}

const char* SigJoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "JOIN";
    case JoinKind::kLeftOuter:
      return "LEFT OUTER JOIN";
    case JoinKind::kSemi:
      return "SEMI JOIN";
    case JoinKind::kAnti:
      return "ANTI JOIN";
    case JoinKind::kAntiNA:
      return "NA-ANTI JOIN";
  }
  return "";
}

bool IsCommutative(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kAdd:
    case BinaryOp::kMul:
    case BinaryOp::kNullSafeEq:
      return true;
    default:
      return false;
  }
}

/// Renders one canonicalized expression.
std::string CanonExpr(const Expr& e);

std::string CanonBlock(const QueryBlock& qb);

std::string CanonExprList(const std::vector<ExprPtr>& list) {
  std::vector<std::string> parts;
  parts.reserve(list.size());
  for (const auto& x : list) parts.push_back(CanonExpr(*x));
  return JoinStrings(parts, ", ");
}

/// Flattens a same-operator AND/OR chain into its leaves.
void FlattenChain(const Expr& e, BinaryOp op,
                  std::vector<const Expr*>* leaves) {
  if (e.kind == ExprKind::kBinary && e.bop == op) {
    FlattenChain(*e.children[0], op, leaves);
    FlattenChain(*e.children[1], op, leaves);
    return;
  }
  leaves->push_back(&e);
}

std::string CanonExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      std::string out;
      if (!e.table_alias.empty()) out = e.table_alias + ".";
      out += e.column_name;
      // Correlation depth distinguishes a local a.x from an outer-block a.x
      // of the same spelling (the unparsed text relies on context for it).
      if (e.corr_depth > 0) out += "@" + std::to_string(e.corr_depth);
      return out;
    }
    case ExprKind::kLiteral:
      return SqlLiteral(e.literal);
    case ExprKind::kBinary: {
      // AND/OR chains flatten to a sorted leaf list: (a AND b) AND c and
      // c AND (b AND a) render identically.
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        std::vector<const Expr*> leaves;
        FlattenChain(e, e.bop, &leaves);
        std::vector<std::string> parts;
        parts.reserve(leaves.size());
        for (const Expr* leaf : leaves) parts.push_back(CanonExpr(*leaf));
        std::sort(parts.begin(), parts.end());
        return "(" +
               JoinStrings(parts,
                           std::string(" ") + SigBopSymbol(e.bop) + " ") +
               ")";
      }
      std::string l = CanonExpr(*e.children[0]);
      std::string r = CanonExpr(*e.children[1]);
      BinaryOp op = e.bop;
      // Commutative operands sort; mirrored comparisons normalize so
      // (a > b) and (b < a) render identically.
      if (IsCommutative(op)) {
        if (r < l) std::swap(l, r);
      } else if (IsComparisonOp(op)) {
        if (r < l) {
          std::swap(l, r);
          op = SwapComparison(op);
        }
      }
      return "(" + l + " " + SigBopSymbol(op) + " " + r + ")";
    }
    case ExprKind::kUnary: {
      std::string x = CanonExpr(*e.children[0]);
      switch (e.uop) {
        case UnaryOp::kNot:
          return "(NOT " + x + ")";
        case UnaryOp::kNeg:
          return "(-" + x + ")";
        case UnaryOp::kIsNull:
          return "(" + x + " IS NULL)";
        case UnaryOp::kIsNotNull:
          return "(" + x + " IS NOT NULL)";
        case UnaryOp::kLnnvl:
          return "LNNVL(" + x + ")";
      }
      return "?";
    }
    case ExprKind::kAggregate: {
      if (e.agg == AggFunc::kCountStar) return "COUNT(*)";
      std::string arg = CanonExpr(*e.children[0]);
      std::string d = e.agg_distinct ? "DISTINCT " : "";
      return std::string(SigAggName(e.agg)) + "(" + d + arg + ")";
    }
    case ExprKind::kFuncCall:
      return ToUpper(e.func_name) + "(" + CanonExprList(e.children) + ")";
    case ExprKind::kSubquery: {
      std::string sub = "(" + CanonBlock(*e.subquery) + ")";
      switch (e.subkind) {
        case SubqueryKind::kExists:
          return "EXISTS " + sub;
        case SubqueryKind::kNotExists:
          return "NOT EXISTS " + sub;
        case SubqueryKind::kIn:
          return "(" + CanonExprList(e.children) + ") IN " + sub;
        case SubqueryKind::kNotIn:
          return "(" + CanonExprList(e.children) + ") NOT IN " + sub;
        case SubqueryKind::kAnyCmp:
          return "(" + CanonExpr(*e.children[0]) + " " +
                 SigBopSymbol(e.sub_cmp) + " ANY " + sub + ")";
        case SubqueryKind::kAllCmp:
          return "(" + CanonExpr(*e.children[0]) + " " +
                 SigBopSymbol(e.sub_cmp) + " ALL " + sub + ")";
        case SubqueryKind::kScalar:
          return sub;
      }
      return "?";
    }
    case ExprKind::kWindow: {
      std::string arg =
          e.children.empty() ? "*" : CanonExpr(*e.children[0]);
      std::string out =
          std::string(SigAggName(e.win_func)) + "(" + arg + ") OVER (";
      if (!e.partition_by.empty()) {
        // PARTITION BY keys are a set: order does not affect the frames.
        std::vector<std::string> keys;
        keys.reserve(e.partition_by.size());
        for (const auto& p : e.partition_by) keys.push_back(CanonExpr(*p));
        std::sort(keys.begin(), keys.end());
        out += "PARTITION BY " + JoinStrings(keys, ", ");
      }
      if (!e.win_order_by.empty()) {
        if (!e.partition_by.empty()) out += " ";
        out += "ORDER BY " + CanonExprList(e.win_order_by);
      }
      out += ")";
      return out;
    }
    case ExprKind::kRownum:
      return "ROWNUM";
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      while (i + 1 < e.children.size()) {
        out += " WHEN " + CanonExpr(*e.children[i]) + " THEN " +
               CanonExpr(*e.children[i + 1]);
        i += 2;
      }
      if (i < e.children.size()) {
        out += " ELSE " + CanonExpr(*e.children[i]);
      }
      out += " END";
      return out;
    }
  }
  return "?";
}

std::string CanonConjuncts(const std::vector<ExprPtr>& conds) {
  std::vector<std::string> parts;
  parts.reserve(conds.size());
  for (const auto& c : conds) parts.push_back(CanonExpr(*c));
  std::sort(parts.begin(), parts.end());
  return JoinStrings(parts, " & ");
}

std::string CanonTableRef(const TableRef& tr) {
  std::string body;
  if (tr.IsBaseTable()) {
    body = tr.table_name;
  } else {
    body = (tr.lateral ? "LATERAL (" : "(") + CanonBlock(*tr.derived) + ")";
  }
  body += " " + tr.alias;
  if (tr.no_merge) body += " /*no_merge*/";
  if (tr.join != JoinKind::kInner || !tr.join_conds.empty()) {
    body = std::string(SigJoinKindName(tr.join)) + " " + body;
    if (!tr.join_conds.empty()) {
      body += " ON (" + CanonConjuncts(tr.join_conds) + ")";
    }
  }
  return body;
}

std::string CanonBlock(const QueryBlock& qb) {
  if (qb.IsSetOp()) {
    std::vector<std::string> parts;
    parts.reserve(qb.branches.size());
    for (const auto& b : qb.branches) {
      std::string s = CanonBlock(*b);
      parts.push_back(b->IsSetOp() ? "(" + s + ")" : std::move(s));
    }
    std::string body =
        JoinStrings(parts, std::string(" ") + SigSetOpName(qb.set_op) + " ");
    if (qb.rownum_limit >= 0) {
      body += " FETCH " + std::to_string(qb.rownum_limit);
    }
    return body;
  }
  std::string out = "SELECT ";
  if (qb.distinct) out += "DISTINCT ";
  {
    std::vector<std::string> items;
    items.reserve(qb.select.size());
    for (const auto& item : qb.select) {
      std::string s = CanonExpr(*item.expr);
      if (!item.alias.empty()) s += " AS " + item.alias;
      items.push_back(std::move(s));
    }
    out += JoinStrings(items, ", ");
  }
  if (!qb.from.empty()) {
    // Render every FROM entry, then sort each maximal contiguous run of
    // non-lateral inner entries: inner join order is declaratively free,
    // while outer/semi/anti joins and lateral views bind to "everything
    // before them" and must keep their place (and fence the runs).
    std::vector<std::string> refs;
    refs.reserve(qb.from.size());
    for (const auto& tr : qb.from) refs.push_back(CanonTableRef(tr));
    size_t i = 0;
    while (i < refs.size()) {
      if (qb.from[i].join != JoinKind::kInner || qb.from[i].lateral) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < refs.size() && qb.from[j].join == JoinKind::kInner &&
             !qb.from[j].lateral) {
        ++j;
      }
      std::sort(refs.begin() + static_cast<long>(i),
                refs.begin() + static_cast<long>(j));
      i = j;
    }
    out += " FROM " + JoinStrings(refs, ", ");
  }
  if (!qb.where.empty() || qb.rownum_limit >= 0) {
    out += " WHERE " + CanonConjuncts(qb.where);
    if (qb.rownum_limit >= 0) {
      out += " & (ROWNUM <= " + std::to_string(qb.rownum_limit) + ")";
    }
  }
  if (!qb.group_by.empty()) {
    // GROUP BY keys keep their order: grouping sets index into them and the
    // key order shows through in the planner's aggregate output layout.
    std::vector<std::string> keys;
    keys.reserve(qb.group_by.size());
    for (const auto& g : qb.group_by) keys.push_back(CanonExpr(*g));
    if (qb.grouping_sets.empty()) {
      out += " GROUP BY " + JoinStrings(keys, ", ");
    } else {
      out += " GROUP BY GROUPING SETS (";
      std::vector<std::string> sets;
      for (const auto& gs : qb.grouping_sets) {
        std::vector<std::string> set_keys;
        set_keys.reserve(gs.size());
        for (int gi : gs) set_keys.push_back(keys[static_cast<size_t>(gi)]);
        sets.push_back("(" + JoinStrings(set_keys, ", ") + ")");
      }
      out += JoinStrings(sets, ", ") + ")";
    }
  }
  if (!qb.having.empty()) {
    out += " HAVING " + CanonConjuncts(qb.having);
  }
  if (!qb.order_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(qb.order_by.size());
    for (const auto& o : qb.order_by) {
      keys.push_back(CanonExpr(*o.expr) + (o.ascending ? "" : " DESC"));
    }
    out += " ORDER BY " + JoinStrings(keys, ", ");
  }
  return out;
}

}  // namespace

std::string BlockSignature(const QueryBlock& qb) { return CanonBlock(qb); }

}  // namespace cbqt
