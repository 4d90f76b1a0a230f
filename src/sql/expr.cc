#include "sql/expr.h"

#include "sql/query_block.h"

namespace cbqt {

Expr::Expr() = default;
Expr::~Expr() = default;

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->table_alias = table_alias;
  out->column_name = column_name;
  out->corr_depth = corr_depth;
  out->literal = literal;
  out->param_index = param_index;
  out->token_ordinal = token_ordinal;
  out->bop = bop;
  out->uop = uop;
  out->agg = agg;
  out->agg_distinct = agg_distinct;
  out->func_name = func_name;
  out->subkind = subkind;
  out->sub_cmp = sub_cmp;
  if (subquery != nullptr) out->subquery = subquery->Clone();
  out->win_func = win_func;
  for (const auto& e : partition_by) out->partition_by.push_back(e->Clone());
  for (const auto& e : win_order_by) out->win_order_by.push_back(e->Clone());
  for (const auto& e : children) out->children.push_back(e->Clone());
  out->type = type;
  return out;
}

ExprPtr Expr::CloneCow() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->table_alias = table_alias;
  out->column_name = column_name;
  out->corr_depth = corr_depth;
  out->literal = literal;
  out->param_index = param_index;
  out->token_ordinal = token_ordinal;
  out->bop = bop;
  out->uop = uop;
  out->agg = agg;
  out->agg_distinct = agg_distinct;
  out->func_name = func_name;
  out->subkind = subkind;
  out->sub_cmp = sub_cmp;
  out->subquery = subquery.Share();
  out->win_func = win_func;
  for (const auto& e : partition_by) {
    out->partition_by.push_back(e->CloneCow());
  }
  for (const auto& e : win_order_by) {
    out->win_order_by.push_back(e->CloneCow());
  }
  for (const auto& e : children) out->children.push_back(e->CloneCow());
  out->type = type;
  return out;
}

int64_t Expr::EstimateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(Expr));
  bytes += static_cast<int64_t>(table_alias.capacity() +
                                column_name.capacity() +
                                func_name.capacity());
  if (literal.kind() == ValueKind::kString) {
    bytes += static_cast<int64_t>(literal.AsString().capacity());
  }
  if (subquery != nullptr && !subquery.shared()) {
    bytes += subquery->EstimateBytes();
  }
  for (const auto& e : partition_by) bytes += e->EstimateBytes();
  for (const auto& e : win_order_by) bytes += e->EstimateBytes();
  for (const auto& e : children) bytes += e->EstimateBytes();
  return bytes;
}

ExprPtr MakeColumnRef(std::string table_alias, std::string column_name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_alias = std::move(table_alias);
  e->column_name = std::move(column_name);
  return e;
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->children.push_back(std::move(left));
  e->children.push_back(std::move(right));
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeAggregate(AggFunc f, ExprPtr arg, bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = f;
  e->agg_distinct = distinct;
  if (arg != nullptr) e->children.push_back(std::move(arg));
  return e;
}

ExprPtr MakeCountStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = AggFunc::kCountStar;
  return e;
}

ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  e->func_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr MakeSubquery(SubqueryKind kind, std::unique_ptr<QueryBlock> subquery) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kSubquery;
  e->subkind = kind;
  e->subquery = std::move(subquery);
  return e;
}

ExprPtr MakeRownum() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kRownum;
  return e;
}

ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return MakeLiteral(Value::Boolean(true));
  ExprPtr out = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = MakeBinary(BinaryOp::kAnd, std::move(out), std::move(conjuncts[i]));
  }
  return out;
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kColumnRef:
      if (a.table_alias != b.table_alias || a.column_name != b.column_name) {
        return false;
      }
      break;
    case ExprKind::kLiteral:
      if (!(a.literal == b.literal)) return false;
      break;
    case ExprKind::kBinary:
      if (a.bop != b.bop) return false;
      break;
    case ExprKind::kUnary:
      if (a.uop != b.uop) return false;
      break;
    case ExprKind::kAggregate:
      if (a.agg != b.agg || a.agg_distinct != b.agg_distinct) return false;
      break;
    case ExprKind::kFuncCall:
      if (a.func_name != b.func_name) return false;
      break;
    case ExprKind::kSubquery: {
      if (a.subkind != b.subkind || a.sub_cmp != b.sub_cmp) return false;
      if ((a.subquery == nullptr) != (b.subquery == nullptr)) return false;
      if (a.subquery != nullptr && !BlockEquals(*a.subquery, *b.subquery)) {
        return false;
      }
      break;
    }
    case ExprKind::kWindow: {
      if (a.win_func != b.win_func) return false;
      if (a.partition_by.size() != b.partition_by.size()) return false;
      for (size_t i = 0; i < a.partition_by.size(); ++i) {
        if (!ExprEquals(*a.partition_by[i], *b.partition_by[i])) return false;
      }
      if (a.win_order_by.size() != b.win_order_by.size()) return false;
      for (size_t i = 0; i < a.win_order_by.size(); ++i) {
        if (!ExprEquals(*a.win_order_by[i], *b.win_order_by[i])) return false;
      }
      break;
    }
    case ExprKind::kRownum:
      break;
    case ExprKind::kCase:
      break;
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp SwapComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

BinaryOp NegateComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return BinaryOp::kNe;
    case BinaryOp::kNe:
      return BinaryOp::kEq;
    case BinaryOp::kLt:
      return BinaryOp::kGe;
    case BinaryOp::kLe:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLe;
    case BinaryOp::kGe:
      return BinaryOp::kLt;
    default:
      return op;
  }
}

}  // namespace cbqt
