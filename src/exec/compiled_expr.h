#ifndef CBQT_EXEC_COMPILED_EXPR_H_
#define CBQT_EXEC_COMPILED_EXPR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/eval.h"
#include "optimizer/plan.h"

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
/// compiled schema and the current row as the innermost frame — exactly the
/// hoisted batch frame every operator maintains — so both paths see
/// identical resolution order and identical semantics.
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

  /// Fallback: the tree evaluator under the caller's frame stack (the
  /// innermost frame must hold the compiled schema and current row).
  Result<Value> EvalSlow(EvalContext& ctx) const { return EvalExpr(*expr_, ctx); }

  /// Re-targets a fast program at another layout of the same columns: the
  /// node that read slot s reads slot `map[s]` instead. Returns false,
  /// leaving the program unchanged, when it is not fast or reads a slot
  /// with no image (`map[s] < 0`).
  bool RemapSlots(const std::vector<int>& map);

  /// Convenience dispatcher used by non-hot call sites.
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

/// Compiles every expression of `exprs` against `schema`.
std::vector<CompiledExpr> CompileExprList(const std::vector<ExprPtr>& exprs,
                                          const Schema* schema);

/// Conjunct-list evaluation with three-valued semantics (TRUE / FALSE /
/// UNKNOWN-as-NULL), mirroring the tree evaluator's EvalConjuncts. The
/// caller's innermost frame must hold (schema, row) for any fallback
/// member.
Result<Value> EvalCompiledConjuncts(const std::vector<CompiledExpr>& preds,
                                    const Row& row, EvalContext& ctx);

/// Evaluates an expression list into `out` (cleared first). Used for hash /
/// sort / group keys and projections. Sets *has_null when any value is
/// NULL (pass null if not needed).
Status EvalCompiledList(const std::vector<CompiledExpr>& exprs, const Row& row,
                        EvalContext& ctx, Row* out, bool* has_null = nullptr);

}  // namespace cbqt

#endif  // CBQT_EXEC_COMPILED_EXPR_H_
