#ifndef CBQT_EXEC_EVAL_H_
#define CBQT_EXEC_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "optimizer/plan.h"

namespace cbqt {

template <bool (*kEq)(const Value&, const Value&)>
class BasicKeyTable;
using KeyTable = BasicKeyTable<ValuesEqualStructural>;

/// One name-resolution frame: a schema plus the current row of that schema.
struct Frame {
  const Schema* schema;
  const Row* row;
};

/// Materialized subquery result plus a lazily built hash index used by
/// IN / NOT IN predicates (a linear scan per outer row would make TIS
/// quadratic).
struct SubqueryResultView {
  const std::vector<Row>* rows = nullptr;
  /// Key table over the result rows (structural equality). May be null
  /// when the resolver does not provide one; callers then scan `rows`.
  const KeyTable* row_set = nullptr;
  /// True if any result row contains a NULL (drives three-valued IN).
  bool has_null = false;
};

/// Callback the executor installs so EvalExpr can evaluate kSubquery nodes:
/// returns the materialized result of the subquery for the current outer
/// context (with TIS caching behind it).
class SubqueryResolver {
 public:
  virtual ~SubqueryResolver() = default;
  virtual Result<SubqueryResultView> Resolve(const Expr* subquery_node) = 0;
};

/// Evaluation context: a stack of frames (innermost last). Column refs
/// resolve by (alias, name) searching innermost-first — sound because the
/// binder guarantees globally unique table aliases.
struct EvalContext {
  std::vector<Frame> frames;
  int64_t rownum = 0;  ///< current ROWNUM for kRownum expressions
  SubqueryResolver* subquery_resolver = nullptr;
};

/// Pushes (schema, row) as the innermost frame of `ctx` for its lifetime.
class ScopedFrame {
 public:
  ScopedFrame(EvalContext& ctx, const Schema* schema, const Row* row)
      : ctx_(ctx) {
    ctx_.frames.push_back(Frame{schema, row});
  }
  ~ScopedFrame() { ctx_.frames.pop_back(); }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  EvalContext& ctx_;
};

/// Evaluates `e` under `ctx` with SQL three-valued semantics: the "unknown"
/// truth value is represented as a NULL Value.
Result<Value> EvalExpr(const Expr& e, EvalContext& ctx);

/// SQL predicate truth: TRUE only (NULL/unknown and FALSE both reject).
bool IsTruthy(const Value& v);

/// Three-valued comparison on already-evaluated operands: NULL when either
/// side is NULL, else the boolean result of `op` over CompareValues. Shared
/// by the tree evaluator and the compiled batch evaluator so the two paths
/// cannot diverge.
Value EvalCompareOp(const Value& a, const Value& b, BinaryOp op);

/// SQL arithmetic on already-evaluated operands: NULL-propagating, int64
/// preserved while both sides are int64 and wrapping on overflow (division
/// always real; division by zero yields NULL).
Value EvalArithOp(const Value& a, const Value& b, BinaryOp op);

/// Amount of spin work per expensive_* function call, to make wall-clock
/// execution time reflect the cost model's expensive_call constant.
/// Default 2000 iterations; tests may lower it.
void SetExpensiveFunctionWork(int iterations);
int GetExpensiveFunctionWork();

}  // namespace cbqt

#endif  // CBQT_EXEC_EVAL_H_
