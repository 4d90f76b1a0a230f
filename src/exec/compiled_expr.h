#ifndef CBQT_EXEC_COMPILED_EXPR_H_
#define CBQT_EXEC_COMPILED_EXPR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/eval.h"
#include "optimizer/plan.h"
#include "storage/column.h"

namespace cbqt {

/// A plan expression compiled against one input schema for the batch
/// executor's inner loops.
///
/// Compilation resolves column refs to slot indices *once* (FindSlot is a
/// per-frame string comparison in the tree evaluator — the dominant per-row
/// cost of the old executor) and flattens the common scalar subset
/// (literals, column refs, comparisons, arithmetic, AND/OR/NOT, IS [NOT]
/// NULL, LNNVL, CASE, ROWNUM) into a compact node array evaluated by a
/// switch — no string lookups, no frame-stack walk, no Status plumbing,
/// because nothing in the subset can fail.
///
/// Anything outside the subset (function calls, subqueries, column refs
/// that resolve through an *outer* frame) makes the whole program fall back
/// to EvalExpr. The fallback requires the caller to keep a frame with the
/// compiled schema and the current row as the innermost frame — the frame
/// CompiledList pushes for the row — so both paths see identical
/// resolution order and identical semantics.
class CompiledExpr {
 public:
  /// Compiles `e` against `schema` (the innermost frame's schema at eval
  /// time). Never fails; unsupported shapes compile to a fallback program.
  static CompiledExpr Compile(const Expr* e, const Schema* schema);

  /// True when the fast (no-fallback) path is available.
  bool fast() const { return fast_; }

  /// Fast-path evaluation; only valid when fast(). `rownum` feeds kRownum.
  Value EvalFast(const Row& row, int64_t rownum) const {
    return EvalNode(root_, row, rownum);
  }

  /// Appends the slots this fast program reads to `out`.
  void CollectSlots(std::vector<int>* out) const {
    for (const Node& n : nodes_) {
      if (n.op == Op::kSlot) out->push_back(n.slot);
    }
  }

  /// The slot this program reads when it is one plain column read, or -1.
  int AsSlot() const {
    return fast_ && nodes_[root_].op == Op::kSlot ? nodes_[root_].slot : -1;
  }

  /// True when this program is `slot <cmp> constant` or `constant <cmp>
  /// slot` with a non-NULL constant. Fills the slot, the comparison as seen
  /// with the slot on the left (mirrored when the constant was written
  /// first), and the constant, which points into this program.
  bool AsSlotCompare(int* slot, BinaryOp* op, const Value** constant) const;

  /// The fast path when available, else the tree evaluator under the
  /// caller's frame stack (the innermost frame must hold the compiled schema
  /// and current row).
  Result<Value> Eval(const Row& row, EvalContext& ctx) const {
    if (fast_) return EvalNode(root_, row, ctx.rownum);
    return EvalExpr(*expr_, ctx);
  }

 private:
  enum class Op : uint8_t {
    kConst,
    kSlot,
    kCmp,        // bop is a comparison
    kArith,      // bop is +,-,*,/
    kNullSafeEq,
    kAnd,
    kOr,
    kNot,
    kNeg,
    kIsNull,
    kIsNotNull,
    kLnnvl,
    kRownum,
    kCase,       // children alternate cond,value[,else]
  };

  struct Node {
    Op op = Op::kConst;
    BinaryOp bop = BinaryOp::kEq;
    int slot = -1;
    int child_begin = 0;
    int child_count = 0;
    Value constant;
  };

  /// Returns the new node's index, or -1 when `e` is outside the subset.
  int CompileNode(const Expr& e, const Schema& schema);

  Value EvalNode(int idx, const Row& row, int64_t rownum) const;

  /// An operand of node evaluation, read without copying: a slot or
  /// constant child is returned by reference (into `row` or the node
  /// array); any other child is evaluated into `*scratch`.
  const Value& Operand(int idx, const Row& row, int64_t rownum,
                       Value* scratch) const;

  const Expr* expr_ = nullptr;
  bool fast_ = false;
  int root_ = -1;
  std::vector<Node> nodes_;
  std::vector<int> children_;
};

/// A typed filter kernel: one `slot <cmp> constant` conjunct, specialized
/// by the constant's kind (numeric, string or bool), bound to the stored
/// column the slot reads, and run over that column's array. The constant is
/// a literal of the conjunct, specialized once, or a value of the enclosing
/// query's current row, specialized again each time the scan opens. It keeps
/// exactly the rows for which the compiled comparison is TRUE: numeric kinds
/// compare as double by NumericOrder, as CompareValues does (so Int meets
/// Real, int64 beyond 2^53 rounds, and a NaN equals only a NaN and sorts
/// above every other number); a stored value of another kind family, or
/// NULL, is unknown and rejects the row. A NaN constant is settled once, in
/// Make, into the equivalent comparison against an infinity.
class FilterKernel {
 public:
  /// The kernel of conjunct `p`; false when `p` is not of the kernel form.
  static bool Make(const CompiledExpr& p, FilterKernel* out);

  /// Specializes `out` to `slot <op> c`, keeping its bound column (Bind
  /// again to resolve a string constant's code); false, leaving `out`
  /// unchanged, when `c` is NULL.
  static bool MakeCompare(int slot, BinaryOp op, const Value& c,
                          FilterKernel* out);

  /// The slot of the conjunct's input schema the kernel tests.
  int slot() const { return slot_; }

  /// Points the kernel at the stored column its slot reads. A string
  /// equality resolves its constant to the column's dictionary code here,
  /// once.
  void Bind(const Column& column);

  /// Narrows the candidate rowids sel[0, n), in place and in order, to those
  /// whose value in the bound column passes; returns how many remain.
  size_t Select(int64_t* sel, size_t n) const;

 private:
  enum class Family : uint8_t { kNumeric, kString, kBool };

  template <BinaryOp kOp>
  size_t SelectOp(int64_t* sel, size_t n) const;

  int slot_ = -1;
  BinaryOp op_ = BinaryOp::kEq;
  Family family_ = Family::kNumeric;
  double num_ = 0;
  std::string str_;
  bool bool_ = false;
  const Column* column_ = nullptr;  // set by Bind
  int64_t code_ = -1;               // str_'s code in column_, or -1
};

/// One plan expression list compiled against one input schema: a filter,
/// join conditions, keys, projections or aggregate arguments. When every
/// member is fast, Test and Eval run inline with no frame push and no Status
/// plumbing — the batch executor's hot filter, join and key loops.
/// Otherwise they push one frame holding (schema, row) for the row, through
/// which the fallback members resolve exactly as the tree evaluator does.
class CompiledList {
 public:
  CompiledList() = default;
  CompiledList(const std::vector<ExprPtr>& exprs, const Schema* schema);
  CompiledList(std::vector<CompiledExpr> exprs, const Schema* schema);

  bool empty() const { return exprs_.empty(); }
  size_t size() const { return exprs_.size(); }
  /// True when some member falls back to the tree evaluator.
  bool needs_frame() const { return any_fallback_; }
  std::vector<CompiledExpr>::const_iterator begin() const {
    return exprs_.begin();
  }
  std::vector<CompiledExpr>::const_iterator end() const { return exprs_.end(); }

  /// The members as conjuncts over `row`, with three-valued semantics:
  /// TRUE, FALSE (at the first FALSE member), or NULL for unknown —
  /// mirroring the tree evaluator's EvalConjuncts.
  Result<Value> Test(EvalContext& ev, const Row& row) const {
    if (any_fallback_) return TestFramed(ev, row);
    bool unknown = false;
    for (const CompiledExpr& p : exprs_) {
      Value v = p.EvalFast(row, ev.rownum);
      if (v.is_null()) {
        unknown = true;
        continue;
      }
      if (!v.AsBool()) return Value::Boolean(false);
    }
    if (unknown) return Value::Null();
    return Value::Boolean(true);
  }

  /// Evaluates every member over `row` into `out` (cleared first). Sets
  /// *has_null when any value is NULL (pass null if not needed).
  Status Eval(EvalContext& ev, const Row& row, Row* out,
              bool* has_null = nullptr) const {
    if (any_fallback_) return EvalFramed(ev, row, out, has_null);
    out->clear();
    if (has_null != nullptr) *has_null = false;
    for (const CompiledExpr& e : exprs_) {
      Value v = e.EvalFast(row, ev.rownum);
      if (has_null != nullptr && v.is_null()) *has_null = true;
      out->push_back(std::move(v));
    }
    return Status::OK();
  }

 private:
  Result<Value> TestFramed(EvalContext& ev, const Row& row) const;
  Status EvalFramed(EvalContext& ev, const Row& row, Row* out,
                    bool* has_null) const;

  std::vector<CompiledExpr> exprs_;
  const Schema* schema_ = nullptr;
  bool any_fallback_ = false;
};

}  // namespace cbqt

#endif  // CBQT_EXEC_COMPILED_EXPR_H_
