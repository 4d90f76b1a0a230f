#include "exec/eval.h"

#include <cmath>

#include "common/str_util.h"
#include "exec/key_table.h"

namespace cbqt {

namespace {

int g_expensive_work = 2000;

Value Tribool(Ordering ord, BinaryOp op) {
  if (ord == Ordering::kUnknown) return Value::Null();
  bool r = false;
  switch (op) {
    case BinaryOp::kEq:
      r = ord == Ordering::kEqual;
      break;
    case BinaryOp::kNe:
      r = ord != Ordering::kEqual;
      break;
    case BinaryOp::kLt:
      r = ord == Ordering::kLess;
      break;
    case BinaryOp::kLe:
      r = ord != Ordering::kGreater;
      break;
    case BinaryOp::kGt:
      r = ord == Ordering::kGreater;
      break;
    case BinaryOp::kGe:
      r = ord != Ordering::kLess;
      break;
    default:
      return Value::Null();
  }
  return Value::Boolean(r);
}

Value EvalCompare(const Value& a, const Value& b, BinaryOp op) {
  return EvalCompareOp(a, b, op);
}

Value EvalArith(const Value& a, const Value& b, BinaryOp op) {
  return EvalArithOp(a, b, op);
}

// Subquery predicate evaluation over its materialized rows.
Result<Value> EvalSubqueryPredicate(const Expr& e,
                                    const SubqueryResultView& view,
                                    EvalContext& ctx) {
  const std::vector<Row>& rows = *view.rows;
  switch (e.subkind) {
    case SubqueryKind::kExists:
      return Value::Boolean(!rows.empty());
    case SubqueryKind::kNotExists:
      return Value::Boolean(rows.empty());
    case SubqueryKind::kScalar:
      if (rows.empty()) return Value::Null();
      return rows[0][0];
    case SubqueryKind::kIn:
    case SubqueryKind::kNotIn: {
      Row left;
      bool left_has_null = false;
      for (const auto& c : e.children) {
        auto v = EvalExpr(*c, ctx);
        if (!v.ok()) return v.status();
        if (v->is_null()) left_has_null = true;
        left.push_back(std::move(v.value()));
      }
      // Fast path: hash probe. Valid when the probe row is null-free and a
      // miss is decided: with one column a NULL in the result makes it
      // unknown, but a multi-column result row holding a NULL can still be
      // definitely unequal, so that needs per-row three-valued comparison.
      if (view.row_set != nullptr && !left_has_null &&
          (left.size() == 1 || !view.has_null)) {
        if (view.row_set->Find(left) != KeyTable::kNone) {
          return Value::Boolean(e.subkind == SubqueryKind::kIn);
        }
        if (view.has_null) return Value::Null();
        return Value::Boolean(e.subkind != SubqueryKind::kIn);
      }
      bool any_unknown = false;
      for (const Row& r : rows) {
        bool all_true = true;
        bool row_unknown = false;
        for (size_t i = 0; i < left.size(); ++i) {
          Ordering ord = CompareValues(left[i], r[i]);
          if (ord == Ordering::kUnknown) {
            row_unknown = true;
            all_true = false;
          } else if (ord != Ordering::kEqual) {
            all_true = false;
            row_unknown = false;
            break;
          }
        }
        if (all_true) {
          return Value::Boolean(e.subkind == SubqueryKind::kIn);
        }
        if (row_unknown) any_unknown = true;
      }
      if (any_unknown) return Value::Null();
      return Value::Boolean(e.subkind != SubqueryKind::kIn);
    }
    case SubqueryKind::kAnyCmp:
    case SubqueryKind::kAllCmp: {
      auto left = EvalExpr(*e.children[0], ctx);
      if (!left.ok()) return left.status();
      bool any_unknown = false;
      bool any_true = false;
      bool all_true = true;
      for (const Row& r : rows) {
        Value cmp = EvalCompare(left.value(), r[0], e.sub_cmp);
        if (cmp.is_null()) {
          any_unknown = true;
          all_true = false;
        } else if (cmp.AsBool()) {
          any_true = true;
        } else {
          all_true = false;
        }
      }
      if (e.subkind == SubqueryKind::kAnyCmp) {
        if (any_true) return Value::Boolean(true);
        if (any_unknown) return Value::Null();
        return Value::Boolean(false);
      }
      // ALL: vacuously true on empty input.
      if (all_true) return Value::Boolean(true);
      if (any_unknown) return Value::Null();
      // Some comparison was definitively false.
      for (const Row& r : rows) {
        Value cmp = EvalCompare(left.value(), r[0], e.sub_cmp);
        if (!cmp.is_null() && !cmp.AsBool()) return Value::Boolean(false);
      }
      return Value::Null();
    }
  }
  return Status::Internal("unhandled subquery kind");
}

Result<Value> EvalFuncCall(const Expr& e, EvalContext& ctx) {
  std::vector<Value> args;
  args.reserve(e.children.size());
  for (const auto& c : e.children) {
    auto v = EvalExpr(*c, ctx);
    if (!v.ok()) return v.status();
    args.push_back(std::move(v.value()));
  }
  const std::string& f = e.func_name;
  if (StartsWith(f, "expensive_")) {
    // Spin to make wall time reflect the cost model's expensive_call.
    volatile double sink = 0;
    for (int i = 0; i < g_expensive_work; ++i) {
      sink = sink + std::sqrt(i + 1.0);
    }
    (void)sink;
    if (args.empty()) return Value::Real(1.0);
    if (args[0].is_null()) return Value::Null();
    if (args.size() >= 2 && !args[1].is_null()) {
      int64_t m = static_cast<int64_t>(args[1].NumericValue());
      if (m <= 0) m = 1;
      uint64_t h = args[0].Hash();
      return Value::Real((h % static_cast<uint64_t>(m)) == 0 ? 1.0 : 0.0);
    }
    return Value::Real(args[0].NumericValue());
  }
  if (f == "abs") {
    if (args[0].is_null()) return Value::Null();
    return Value::Real(std::fabs(args[0].NumericValue()));
  }
  if (f == "mod") {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Value::Null();
    }
    int64_t b = static_cast<int64_t>(args[1].NumericValue());
    if (b == 0) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].NumericValue()) % b);
  }
  if (f == "floor") {
    if (args[0].is_null()) return Value::Null();
    return Value::Real(std::floor(args[0].NumericValue()));
  }
  if (f == "upper") {
    if (args[0].is_null()) return Value::Null();
    return Value::Str(ToUpper(args[0].AsString()));
  }
  if (f == "lower") {
    if (args[0].is_null()) return Value::Null();
    return Value::Str(ToLower(args[0].AsString()));
  }
  return Status::NotSupported("unknown function: " + f);
}

}  // namespace

Value EvalCompareOp(const Value& a, const Value& b, BinaryOp op) {
  return Tribool(CompareValues(a, b), op);
}

Value EvalArithOp(const Value& a, const Value& b, BinaryOp op) {
  if (a.is_null() || b.is_null()) return Value::Null();
  bool both_int =
      a.kind() == ValueKind::kInt64 && b.kind() == ValueKind::kInt64;
  double x = a.NumericValue();
  double y = b.NumericValue();
  // int64 results wrap on overflow (two's complement); the operation runs on
  // uint64_t so that the wrap is defined behaviour.
  const uint64_t i = both_int ? static_cast<uint64_t>(a.AsInt()) : 0;
  const uint64_t j = both_int ? static_cast<uint64_t>(b.AsInt()) : 0;
  switch (op) {
    case BinaryOp::kAdd:
      return both_int ? Value::Int(static_cast<int64_t>(i + j))
                      : Value::Real(x + y);
    case BinaryOp::kSub:
      return both_int ? Value::Int(static_cast<int64_t>(i - j))
                      : Value::Real(x - y);
    case BinaryOp::kMul:
      return both_int ? Value::Int(static_cast<int64_t>(i * j))
                      : Value::Real(x * y);
    case BinaryOp::kDiv:
      if (y == 0) return Value::Null();
      return Value::Real(x / y);
    default:
      return Value::Null();
  }
}

void SetExpensiveFunctionWork(int iterations) {
  g_expensive_work = iterations;
}

int GetExpensiveFunctionWork() { return g_expensive_work; }

bool IsTruthy(const Value& v) {
  return v.kind() == ValueKind::kBool && v.AsBool();
}

Result<Value> EvalExpr(const Expr& e, EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef: {
      for (auto it = ctx.frames.rbegin(); it != ctx.frames.rend(); ++it) {
        int slot = FindSlot(*it->schema, e.table_alias, e.column_name);
        if (slot >= 0) return (*it->row)[static_cast<size_t>(slot)];
      }
      return Status::Internal("unresolved column at execution: " +
                              e.table_alias + "." + e.column_name);
    }
    case ExprKind::kBinary: {
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        auto l = EvalExpr(*e.children[0], ctx);
        if (!l.ok()) return l.status();
        bool is_and = e.bop == BinaryOp::kAnd;
        // Short circuit.
        if (!l->is_null() && l->kind() == ValueKind::kBool) {
          if (is_and && !l->AsBool()) return Value::Boolean(false);
          if (!is_and && l->AsBool()) return Value::Boolean(true);
        }
        auto r = EvalExpr(*e.children[1], ctx);
        if (!r.ok()) return r.status();
        bool l_known = !l->is_null();
        bool r_known = !r->is_null();
        if (is_and) {
          if (r_known && !r->AsBool()) return Value::Boolean(false);
          if (l_known && r_known) return Value::Boolean(l->AsBool() && r->AsBool());
          return Value::Null();
        }
        if (r_known && r->AsBool()) return Value::Boolean(true);
        if (l_known && r_known) return Value::Boolean(l->AsBool() || r->AsBool());
        return Value::Null();
      }
      auto l = EvalExpr(*e.children[0], ctx);
      if (!l.ok()) return l.status();
      auto r = EvalExpr(*e.children[1], ctx);
      if (!r.ok()) return r.status();
      if (e.bop == BinaryOp::kNullSafeEq) {
        return Value::Boolean(NullSafeEqual(l.value(), r.value()));
      }
      if (IsComparisonOp(e.bop)) return EvalCompare(l.value(), r.value(), e.bop);
      return EvalArith(l.value(), r.value(), e.bop);
    }
    case ExprKind::kUnary: {
      auto v = EvalExpr(*e.children[0], ctx);
      if (!v.ok()) return v.status();
      switch (e.uop) {
        case UnaryOp::kNot:
          if (v->is_null()) return Value::Null();
          return Value::Boolean(!v->AsBool());
        case UnaryOp::kNeg:
          if (v->is_null()) return Value::Null();
          if (v->kind() == ValueKind::kInt64) return Value::Int(-v->AsInt());
          return Value::Real(-v->NumericValue());
        case UnaryOp::kIsNull:
          return Value::Boolean(v->is_null());
        case UnaryOp::kIsNotNull:
          return Value::Boolean(!v->is_null());
        case UnaryOp::kLnnvl:
          // TRUE iff the operand is FALSE or UNKNOWN.
          return Value::Boolean(!IsTruthy(v.value()));
      }
      return Status::Internal("unhandled unary op");
    }
    case ExprKind::kFuncCall:
      return EvalFuncCall(e, ctx);
    case ExprKind::kSubquery: {
      if (ctx.subquery_resolver == nullptr) {
        return Status::Internal("subquery evaluated without resolver");
      }
      auto view = ctx.subquery_resolver->Resolve(&e);
      if (!view.ok()) return view.status();
      return EvalSubqueryPredicate(e, view.value(), ctx);
    }
    case ExprKind::kRownum:
      return Value::Int(ctx.rownum);
    case ExprKind::kCase: {
      size_t i = 0;
      while (i + 1 < e.children.size()) {
        auto cond = EvalExpr(*e.children[i], ctx);
        if (!cond.ok()) return cond.status();
        if (IsTruthy(cond.value())) return EvalExpr(*e.children[i + 1], ctx);
        i += 2;
      }
      if (i < e.children.size()) return EvalExpr(*e.children[i], ctx);
      return Value::Null();
    }
    case ExprKind::kAggregate:
    case ExprKind::kWindow:
      return Status::Internal(
          "aggregate/window expression reached the row evaluator (planner "
          "substitution bug)");
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace cbqt
