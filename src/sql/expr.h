#ifndef CBQT_SQL_EXPR_H_
#define CBQT_SQL_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "sql/cow.h"
#include "sql/type.h"

namespace cbqt {

struct QueryBlock;

/// Expression node kinds. A single struct with a kind tag (rather than a
/// class hierarchy) keeps deep copy, structural equality, and the dozens of
/// pattern-matching transformations short and uniform.
enum class ExprKind {
  kColumnRef,   ///< table_alias.column_name (alias may be empty pre-binding)
  kLiteral,     ///< constant Value
  kBinary,      ///< children[0] <bop> children[1]
  kUnary,       ///< <uop> children[0]
  kAggregate,   ///< agg(children[0]) or COUNT(*)
  kFuncCall,    ///< scalar function call func_name(children...)
  kSubquery,    ///< EXISTS/IN/ANY/ALL/scalar subquery predicate
  kWindow,      ///< win_func(children[0]) OVER (PARTITION BY .. ORDER BY ..)
  kRownum,      ///< Oracle ROWNUM pseudo-column
  kCase,        ///< CASE WHEN c1 THEN v1 ... [ELSE vn]; children alternate
};

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAnd,
  kOr,
  kNullSafeEq,  ///< IS NOT DISTINCT FROM; NULLs match (set-op conversion)
};

enum class UnaryOp {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
  kLnnvl,  ///< Oracle LNNVL(p): TRUE iff p is FALSE or UNKNOWN (OR-expansion)
};

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

enum class SubqueryKind {
  kExists,
  kNotExists,
  kIn,       ///< children = left operand(s)
  kNotIn,
  kAnyCmp,   ///< children[0] <sub_cmp> ANY (subquery)
  kAllCmp,   ///< children[0] <sub_cmp> ALL (subquery)
  kScalar,   ///< scalar-valued subquery used as an expression
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A SQL expression tree node. Only the fields relevant to `kind` are
/// meaningful. Subquery nodes own their inner QueryBlock, making the whole
/// query tree a single ownership tree that `Clone()` deep-copies (the
/// "capability for deep copying query blocks and their constituents" the
/// CBQT framework requires, paper §3.1).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // -- kColumnRef --
  std::string table_alias;  ///< qualifier; empty means unresolved/unqualified
  std::string column_name;  ///< lower-cased; "rowid" is the pseudo-column
  int corr_depth = 0;       ///< 0 = local block; k>0 = k levels out (bound)

  // -- kLiteral --
  Value literal;
  /// Plan-cache parameter slot (see sql/parameterize.h): >= 0 marks a
  /// literal that stands for the i-th extracted parameter of the statement.
  /// The literal still carries its concrete value — every consumer
  /// (transformations, costing, execution) treats it as an ordinary
  /// constant — but a cached plan can be re-bound to new parameter values by
  /// rewriting all literals that share a slot. -1 = not parameterized.
  int param_index = -1;
  /// Position, in the statement's token stream (parser/lexer.h), of the
  /// literal token this literal was parsed from; -1 when no literal token
  /// spelled it (the NULL/TRUE/FALSE keywords, literals built by rewrites).
  /// The plan cache's cursor table reads it to map each literal token of a
  /// statement to its parameter slot (cbqt/plan_cache.h).
  int token_ordinal = -1;

  // -- kBinary / kUnary --
  BinaryOp bop = BinaryOp::kEq;
  UnaryOp uop = UnaryOp::kNot;

  // -- kAggregate --
  AggFunc agg = AggFunc::kCountStar;
  bool agg_distinct = false;

  // -- kFuncCall --
  std::string func_name;  ///< lower-cased

  // -- kSubquery --
  SubqueryKind subkind = SubqueryKind::kExists;
  BinaryOp sub_cmp = BinaryOp::kEq;  ///< for ANY/ALL
  /// Copy-on-write edge like TableRef::derived: CloneCow() shares the inner
  /// block, non-const access thaws it (sql/cow.h).
  CowPtr<QueryBlock> subquery;

  // -- kWindow --
  AggFunc win_func = AggFunc::kCountStar;
  std::vector<ExprPtr> partition_by;
  std::vector<ExprPtr> win_order_by;

  /// Operands / args / IN-left operands / CASE legs, depending on kind.
  std::vector<ExprPtr> children;

  /// Derived type (set by the binder; kUnknown before binding).
  DataType type = DataType::kUnknown;

  Expr();
  ~Expr();
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
  Expr(Expr&&) = default;
  Expr& operator=(Expr&&) = default;

  /// Deep copy, including any owned subquery blocks.
  ExprPtr Clone() const;

  /// Copy-on-write copy: the expression nodes are copied but a subquery
  /// block is *shared* (refcounted read-only until thawed). Used by
  /// QueryBlock::CloneCow for state copies in the CBQT framework.
  ExprPtr CloneCow() const;

  /// Approximate in-memory footprint of this expression tree, for the
  /// memory-accounting layer. Shared (COW) subquery edges count only as a
  /// pointer, so a state copy is charged for the blocks it privately owns.
  int64_t EstimateBytes() const;
};

// ---- constructors --------------------------------------------------------

ExprPtr MakeColumnRef(std::string table_alias, std::string column_name);
ExprPtr MakeLiteral(Value v);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeAggregate(AggFunc f, ExprPtr arg, bool distinct = false);
ExprPtr MakeCountStar();
ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeSubquery(SubqueryKind kind, std::unique_ptr<QueryBlock> subquery);
ExprPtr MakeRownum();

/// Builds the conjunction of `conjuncts` (returns TRUE literal if empty).
ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts);

/// Structural equality. Column refs compare by (alias, column); literals by
/// value; subqueries by recursive structure.
bool ExprEquals(const Expr& a, const Expr& b);

/// True for =, <>, <, <=, >, >=.
bool IsComparisonOp(BinaryOp op);

/// The comparison with its operands swapped (a < b == b > a).
BinaryOp SwapComparison(BinaryOp op);

/// The logical negation of a comparison (for ALL -> anti-join conversion:
/// NOT(a < b) == a >= b).
BinaryOp NegateComparison(BinaryOp op);

}  // namespace cbqt

#endif  // CBQT_SQL_EXPR_H_
