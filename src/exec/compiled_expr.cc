#include "exec/compiled_expr.h"

#include <cmath>
#include <limits>

namespace cbqt {

CompiledExpr CompiledExpr::Compile(const Expr* e, const Schema* schema) {
  CompiledExpr c;
  c.expr_ = e;
  c.nodes_.reserve(8);
  int root = c.CompileNode(*e, *schema);
  c.fast_ = root >= 0;
  c.root_ = root;
  if (!c.fast_) {
    c.nodes_.clear();
    c.children_.clear();
  }
  return c;
}

bool CompiledExpr::AsSlotCompare(int* slot, BinaryOp* op,
                                 const Value** constant) const {
  if (!fast_) return false;
  const Node& n = nodes_[root_];
  if (n.op != Op::kCmp) return false;
  const Node& l = nodes_[children_[n.child_begin]];
  const Node& r = nodes_[children_[n.child_begin + 1]];
  BinaryOp bop = n.bop;
  const Node* s = &l;
  const Node* c = &r;
  if (l.op == Op::kConst && r.op == Op::kSlot) {
    // const <cmp> slot reads as slot <swapped cmp> const: CompareValues is
    // antisymmetric, so the verdict is the same for every pair.
    s = &r;
    c = &l;
    bop = SwapComparison(bop);
  }
  if (s->op != Op::kSlot || c->op != Op::kConst || c->constant.is_null()) {
    return false;
  }
  *slot = s->slot;
  *op = bop;
  *constant = &c->constant;
  return true;
}

int CompiledExpr::CompileNode(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = Op::kConst;
      nodes_[idx].constant = e.literal;
      return idx;
    }
    case ExprKind::kColumnRef: {
      int slot = FindSlot(schema, e.table_alias, e.column_name);
      if (slot < 0) return -1;  // resolves through an outer frame
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = Op::kSlot;
      nodes_[idx].slot = slot;
      return idx;
    }
    case ExprKind::kRownum: {
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = Op::kRownum;
      return idx;
    }
    case ExprKind::kBinary: {
      Op op;
      if (e.bop == BinaryOp::kAnd) {
        op = Op::kAnd;
      } else if (e.bop == BinaryOp::kOr) {
        op = Op::kOr;
      } else if (e.bop == BinaryOp::kNullSafeEq) {
        op = Op::kNullSafeEq;
      } else if (IsComparisonOp(e.bop)) {
        op = Op::kCmp;
      } else {
        op = Op::kArith;
      }
      int l = CompileNode(*e.children[0], schema);
      if (l < 0) return -1;
      int r = CompileNode(*e.children[1], schema);
      if (r < 0) return -1;
      int cb = static_cast<int>(children_.size());
      children_.push_back(l);
      children_.push_back(r);
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = op;
      nodes_[idx].bop = e.bop;
      nodes_[idx].child_begin = cb;
      nodes_[idx].child_count = 2;
      return idx;
    }
    case ExprKind::kUnary: {
      Op op = Op::kNot;
      switch (e.uop) {
        case UnaryOp::kNot:
          op = Op::kNot;
          break;
        case UnaryOp::kNeg:
          op = Op::kNeg;
          break;
        case UnaryOp::kIsNull:
          op = Op::kIsNull;
          break;
        case UnaryOp::kIsNotNull:
          op = Op::kIsNotNull;
          break;
        case UnaryOp::kLnnvl:
          op = Op::kLnnvl;
          break;
      }
      int c = CompileNode(*e.children[0], schema);
      if (c < 0) return -1;
      int cb = static_cast<int>(children_.size());
      children_.push_back(c);
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = op;
      nodes_[idx].child_begin = cb;
      nodes_[idx].child_count = 1;
      return idx;
    }
    case ExprKind::kCase: {
      std::vector<int> kids;
      kids.reserve(e.children.size());
      for (const auto& c : e.children) {
        int k = CompileNode(*c, schema);
        if (k < 0) return -1;
        kids.push_back(k);
      }
      int cb = static_cast<int>(children_.size());
      for (int k : kids) children_.push_back(k);
      int idx = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[idx].op = Op::kCase;
      nodes_[idx].child_begin = cb;
      nodes_[idx].child_count = static_cast<int>(kids.size());
      return idx;
    }
    case ExprKind::kFuncCall:
    case ExprKind::kSubquery:
    case ExprKind::kAggregate:
    case ExprKind::kWindow:
      return -1;
  }
  return -1;
}

const Value& CompiledExpr::Operand(int idx, const Row& row, int64_t rownum,
                                   Value* scratch) const {
  const Node& n = nodes_[idx];
  if (n.op == Op::kSlot) return row[static_cast<size_t>(n.slot)];
  if (n.op == Op::kConst) return n.constant;
  *scratch = EvalNode(idx, row, rownum);
  return *scratch;
}

// Mirrors EvalExpr's semantics exactly for the compiled subset; any change
// here must track exec/eval.cc (the oracle-equivalence tests in
// test_batch_executor compare the two paths row for row). Leaf operands are
// read by reference through Operand(), so a comparison copies no value.
Value CompiledExpr::EvalNode(int idx, const Row& row, int64_t rownum) const {
  const Node& n = nodes_[idx];
  switch (n.op) {
    case Op::kConst:
      return n.constant;
    case Op::kSlot:
      return row[static_cast<size_t>(n.slot)];
    case Op::kRownum:
      return Value::Int(rownum);
    case Op::kCmp:
    case Op::kArith:
    case Op::kNullSafeEq: {
      Value ls, rs;
      const Value& l = Operand(children_[n.child_begin], row, rownum, &ls);
      const Value& r = Operand(children_[n.child_begin + 1], row, rownum, &rs);
      if (n.op == Op::kCmp) return EvalCompareOp(l, r, n.bop);
      if (n.op == Op::kArith) return EvalArithOp(l, r, n.bop);
      return Value::Boolean(NullSafeEqual(l, r));
    }
    case Op::kAnd: {
      Value l = EvalNode(children_[n.child_begin], row, rownum);
      if (!l.is_null() && l.kind() == ValueKind::kBool && !l.AsBool()) {
        return Value::Boolean(false);  // short circuit
      }
      Value r = EvalNode(children_[n.child_begin + 1], row, rownum);
      bool l_known = !l.is_null();
      bool r_known = !r.is_null();
      if (r_known && !r.AsBool()) return Value::Boolean(false);
      if (l_known && r_known) return Value::Boolean(l.AsBool() && r.AsBool());
      return Value::Null();
    }
    case Op::kOr: {
      Value l = EvalNode(children_[n.child_begin], row, rownum);
      if (!l.is_null() && l.kind() == ValueKind::kBool && l.AsBool()) {
        return Value::Boolean(true);  // short circuit
      }
      Value r = EvalNode(children_[n.child_begin + 1], row, rownum);
      bool l_known = !l.is_null();
      bool r_known = !r.is_null();
      if (r_known && r.AsBool()) return Value::Boolean(true);
      if (l_known && r_known) return Value::Boolean(l.AsBool() || r.AsBool());
      return Value::Null();
    }
    case Op::kNot: {
      Value scratch;
      const Value& v = Operand(children_[n.child_begin], row, rownum, &scratch);
      if (v.is_null()) return Value::Null();
      return Value::Boolean(!v.AsBool());
    }
    case Op::kNeg: {
      Value scratch;
      const Value& v = Operand(children_[n.child_begin], row, rownum, &scratch);
      if (v.is_null()) return Value::Null();
      if (v.kind() == ValueKind::kInt64) return Value::Int(-v.AsInt());
      return Value::Real(-v.NumericValue());
    }
    case Op::kIsNull:
    case Op::kIsNotNull:
    case Op::kLnnvl: {
      Value scratch;
      const Value& v = Operand(children_[n.child_begin], row, rownum, &scratch);
      if (n.op == Op::kIsNull) return Value::Boolean(v.is_null());
      if (n.op == Op::kIsNotNull) return Value::Boolean(!v.is_null());
      return Value::Boolean(!IsTruthy(v));
    }
    case Op::kCase: {
      int i = 0;
      while (i + 1 < n.child_count) {
        Value cond = EvalNode(children_[n.child_begin + i], row, rownum);
        if (IsTruthy(cond)) {
          return EvalNode(children_[n.child_begin + i + 1], row, rownum);
        }
        i += 2;
      }
      if (i < n.child_count) {
        return EvalNode(children_[n.child_begin + i], row, rownum);
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

namespace {

// The verdict of comparison `kOp` on a known three-way order (c < 0 less,
// 0 equal, > 0 greater), as Tribool derives it from CompareValues.
template <BinaryOp kOp>
bool Holds(int c) {
  if constexpr (kOp == BinaryOp::kEq) return c == 0;
  if constexpr (kOp == BinaryOp::kNe) return c != 0;
  if constexpr (kOp == BinaryOp::kLt) return c < 0;
  if constexpr (kOp == BinaryOp::kLe) return c <= 0;
  if constexpr (kOp == BinaryOp::kGt) return c > 0;
  return c >= 0;  // kGe
}

// NumericOrder(x, y) for a constant y that is not a NaN (Make settles a NaN
// constant): a NaN x is neither < nor <= y, so it orders above y with no
// branch of its own.
int OrderToConstant(double x, double y) {
  return x < y ? -1 : (x <= y ? 0 : 1);
}

// The comparison against +-infinity that `x <op> NaN` reduces to under
// NumericOrder: x = NaN and x >= NaN hold only for a NaN x, x < NaN and
// x != NaN for every other number, x <= NaN always and x > NaN never.
void SettleNanConstant(BinaryOp* op, double* c) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (*op) {
    case BinaryOp::kEq:
    case BinaryOp::kGe:
      *op = BinaryOp::kGt;
      *c = kInf;
      return;
    case BinaryOp::kNe:
    case BinaryOp::kLt:
      *op = BinaryOp::kLe;
      *c = kInf;
      return;
    case BinaryOp::kLe:
      *op = BinaryOp::kGe;
      *c = -kInf;
      return;
    default:  // kGt
      *op = BinaryOp::kLt;
      *c = -kInf;
      return;
  }
}

// Keeps, in order, the rowids of sel[0, n) that `pass` accepts, and returns
// how many remain.
template <typename Pass>
size_t SelectWhere(int64_t* sel, size_t n, Pass pass) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t rowid = sel[i];
    sel[kept] = rowid;
    kept += pass(static_cast<size_t>(rowid)) ? 1 : 0;
  }
  return kept;
}

}  // namespace

bool FilterKernel::Make(const CompiledExpr& p, FilterKernel* out) {
  int slot = -1;
  BinaryOp op = BinaryOp::kEq;
  const Value* c = nullptr;
  return p.AsSlotCompare(&slot, &op, &c) && MakeCompare(slot, op, *c, out);
}

bool FilterKernel::MakeCompare(int slot, BinaryOp op, const Value& c,
                               FilterKernel* out) {
  switch (c.kind()) {
    case ValueKind::kInt64:
    case ValueKind::kDouble:
      out->family_ = Family::kNumeric;
      out->num_ = c.NumericValue();
      if (std::isnan(out->num_)) SettleNanConstant(&op, &out->num_);
      break;
    case ValueKind::kString:
      out->family_ = Family::kString;
      out->str_ = c.AsString();
      break;
    case ValueKind::kBool:
      out->family_ = Family::kBool;
      out->bool_ = c.AsBool();
      break;
    case ValueKind::kNull:
      return false;
  }
  out->slot_ = slot;
  out->op_ = op;
  return true;
}

void FilterKernel::Bind(const Column& column) {
  column_ = &column;
  code_ = family_ == Family::kString && column.kind() == ColumnKind::kString
              ? column.FindCode(str_)
              : -1;
}

template <BinaryOp kOp>
size_t FilterKernel::SelectOp(int64_t* sel, size_t n) const {
  const Column& col = *column_;
  const uint8_t* valid = col.validity();
  switch (col.kind()) {
    case ColumnKind::kNull:
      return 0;  // every value NULL: unknown
    case ColumnKind::kGeneric:
      // A column of mixed kinds: test each Value as CompareValues would.
      return SelectWhere(sel, n, [this, &col](size_t r) {
        const Value& v = col.values()[r];
        switch (family_) {
          case Family::kNumeric: {
            if (v.kind() != ValueKind::kInt64 &&
                v.kind() != ValueKind::kDouble) {
              return false;
            }
            return Holds<kOp>(OrderToConstant(v.NumericValue(), num_));
          }
          case Family::kString:
            return v.kind() == ValueKind::kString &&
                   Holds<kOp>(v.AsString().compare(str_));
          case Family::kBool:
            return v.kind() == ValueKind::kBool &&
                   Holds<kOp>((v.AsBool() ? 1 : 0) - (bool_ ? 1 : 0));
        }
        return false;
      });
    case ColumnKind::kInt64:
      if (family_ != Family::kNumeric) return 0;
      return SelectWhere(sel, n, [valid, xs = col.ints(), y = num_](size_t r) {
        return (valid[r] != 0) &
               Holds<kOp>(OrderToConstant(static_cast<double>(xs[r]), y));
      });
    case ColumnKind::kDouble:
      if (family_ != Family::kNumeric) return 0;
      return SelectWhere(sel, n, [valid, xs = col.doubles(), y = num_](size_t r) {
        return (valid[r] != 0) & Holds<kOp>(OrderToConstant(xs[r], y));
      });
    case ColumnKind::kString: {
      if (family_ != Family::kString) return 0;
      const uint32_t* codes = col.codes();
      if constexpr (kOp == BinaryOp::kEq || kOp == BinaryOp::kNe) {
        // Equal strings share one code; a constant no row holds has none.
        const int64_t code = code_;
        return SelectWhere(sel, n, [valid, codes, code](size_t r) {
          return (valid[r] != 0) &
                 Holds<kOp>(static_cast<int64_t>(codes[r]) == code ? 0 : 1);
        });
      } else {
        return SelectWhere(sel, n, [this, valid, codes, &col](size_t r) {
          return valid[r] != 0 &&
                 Holds<kOp>(col.DictEntry(codes[r]).compare(str_));
        });
      }
    }
    case ColumnKind::kBool: {
      if (family_ != Family::kBool) return 0;
      const int y = bool_ ? 1 : 0;
      return SelectWhere(sel, n, [valid, bs = col.bools(), y](size_t r) {
        return (valid[r] != 0) & Holds<kOp>(static_cast<int>(bs[r]) - y);
      });
    }
  }
  return n;
}

size_t FilterKernel::Select(int64_t* sel, size_t n) const {
  switch (op_) {
    case BinaryOp::kEq:
      return SelectOp<BinaryOp::kEq>(sel, n);
    case BinaryOp::kNe:
      return SelectOp<BinaryOp::kNe>(sel, n);
    case BinaryOp::kLt:
      return SelectOp<BinaryOp::kLt>(sel, n);
    case BinaryOp::kLe:
      return SelectOp<BinaryOp::kLe>(sel, n);
    case BinaryOp::kGt:
      return SelectOp<BinaryOp::kGt>(sel, n);
    default:
      return SelectOp<BinaryOp::kGe>(sel, n);
  }
}

CompiledList::CompiledList(const std::vector<ExprPtr>& exprs,
                           const Schema* schema)
    : schema_(schema) {
  exprs_.reserve(exprs.size());
  for (const auto& e : exprs) {
    exprs_.push_back(CompiledExpr::Compile(e.get(), schema));
    if (!exprs_.back().fast()) any_fallback_ = true;
  }
}

CompiledList::CompiledList(std::vector<CompiledExpr> exprs,
                           const Schema* schema)
    : exprs_(std::move(exprs)), schema_(schema) {
  for (const CompiledExpr& e : exprs_) {
    if (!e.fast()) any_fallback_ = true;
  }
}

Result<Value> CompiledList::TestFramed(EvalContext& ev, const Row& row) const {
  ScopedFrame frame(ev, schema_, &row);
  bool unknown = false;
  for (const CompiledExpr& p : exprs_) {
    auto v = p.Eval(row, ev);
    if (!v.ok()) return v.status();
    if (v->is_null()) {
      unknown = true;
      continue;
    }
    if (!v->AsBool()) return Value::Boolean(false);
  }
  if (unknown) return Value::Null();
  return Value::Boolean(true);
}

Status CompiledList::EvalFramed(EvalContext& ev, const Row& row, Row* out,
                                bool* has_null) const {
  ScopedFrame frame(ev, schema_, &row);
  out->clear();
  if (has_null != nullptr) *has_null = false;
  for (const CompiledExpr& e : exprs_) {
    auto v = e.Eval(row, ev);
    if (!v.ok()) return v.status();
    if (has_null != nullptr && v->is_null()) *has_null = true;
    out->push_back(std::move(v.value()));
  }
  return Status::OK();
}

}  // namespace cbqt
