// Systematic tests of the expression evaluator: three-valued logic truth
// tables (parameterized sweeps), arithmetic/NULL propagation, scalar
// functions, subquery predicate semantics over a stub resolver, and the
// compiled fast path (CompiledExpr) agreeing with the tree evaluator.

#include "exec/eval.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "exec/compiled_expr.h"
#include "parser/parser.h"

namespace cbqt {
namespace {

// Parses `expr_text` as the WHERE clause of a dummy query and evaluates it
// with no frames (constants only).
Result<Value> EvalConst(const std::string& expr_text,
                        EvalContext* ctx = nullptr) {
  auto qb = ParseSql("SELECT x FROM t WHERE " + expr_text);
  EXPECT_TRUE(qb.ok()) << expr_text;
  EXPECT_EQ(qb.value()->where.size(), 1u);
  EvalContext local;
  return EvalExpr(*qb.value()->where[0], ctx != nullptr ? *ctx : local);
}

enum class Tri { kT, kF, kU };

Tri ToTri(const Value& v) {
  if (v.is_null()) return Tri::kU;
  return v.AsBool() ? Tri::kT : Tri::kF;
}

const char* TriLit(Tri t) {
  switch (t) {
    case Tri::kT:
      return "1 = 1";
    case Tri::kF:
      return "1 = 2";
    case Tri::kU:
      return "1 = NULL";
  }
  return "";
}

struct LogicCase {
  Tri a;
  Tri b;
  Tri and_result;
  Tri or_result;
};

class ThreeValuedLogicTest : public ::testing::TestWithParam<LogicCase> {};

ExprPtr ParsePredicate(const std::string& text) {
  auto qb = ParseSql("SELECT x FROM t WHERE " + text);
  EXPECT_TRUE(qb.ok()) << text;
  EXPECT_EQ(qb.value()->where.size(), 1u);
  return std::move(qb.value()->where[0]);
}

TEST_P(ThreeValuedLogicTest, AndOrTruthTable) {
  const LogicCase& c = GetParam();
  std::string a = TriLit(c.a);
  std::string b = TriLit(c.b);
  // Built directly (the parser splits top-level ANDs into conjuncts).
  EvalContext ctx;
  ExprPtr conj =
      MakeBinary(BinaryOp::kAnd, ParsePredicate(a), ParsePredicate(b));
  auto and_v = EvalExpr(*conj, ctx);
  ASSERT_TRUE(and_v.ok());
  EXPECT_EQ(ToTri(and_v.value()), c.and_result) << a << " AND " << b;
  ExprPtr disj =
      MakeBinary(BinaryOp::kOr, ParsePredicate(a), ParsePredicate(b));
  auto or_v = EvalExpr(*disj, ctx);
  ASSERT_TRUE(or_v.ok());
  EXPECT_EQ(ToTri(or_v.value()), c.or_result) << a << " OR " << b;
}

// The full Kleene truth table.
INSTANTIATE_TEST_SUITE_P(
    Kleene, ThreeValuedLogicTest,
    ::testing::Values(LogicCase{Tri::kT, Tri::kT, Tri::kT, Tri::kT},
                      LogicCase{Tri::kT, Tri::kF, Tri::kF, Tri::kT},
                      LogicCase{Tri::kT, Tri::kU, Tri::kU, Tri::kT},
                      LogicCase{Tri::kF, Tri::kT, Tri::kF, Tri::kT},
                      LogicCase{Tri::kF, Tri::kF, Tri::kF, Tri::kF},
                      LogicCase{Tri::kF, Tri::kU, Tri::kF, Tri::kU},
                      LogicCase{Tri::kU, Tri::kT, Tri::kU, Tri::kT},
                      LogicCase{Tri::kU, Tri::kF, Tri::kF, Tri::kU},
                      LogicCase{Tri::kU, Tri::kU, Tri::kU, Tri::kU}));

TEST(Eval, NotTruthTable) {
  EXPECT_EQ(ToTri(EvalConst("NOT 1 = 1").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("NOT 1 = 2").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("NOT 1 = NULL").value()), Tri::kU);
}

TEST(Eval, LnnvlSemantics) {
  // LNNVL(p): TRUE iff p is FALSE or UNKNOWN (Oracle's OR-expansion guard).
  auto qb = ParseSql("SELECT x FROM t WHERE a = 1");
  ASSERT_TRUE(qb.ok());
  for (auto [inner, expect] : std::vector<std::pair<const char*, Tri>>{
           {"1 = 1", Tri::kF}, {"1 = 2", Tri::kT}, {"1 = NULL", Tri::kT}}) {
    auto parsed = ParseSql(std::string("SELECT x FROM t WHERE ") + inner);
    ASSERT_TRUE(parsed.ok());
    ExprPtr lnnvl =
        MakeUnary(UnaryOp::kLnnvl, std::move(parsed.value()->where[0]));
    EvalContext ctx;
    auto v = EvalExpr(*lnnvl, ctx);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(ToTri(v.value()), expect) << inner;
  }
}

TEST(Eval, ComparisonOperators) {
  EXPECT_EQ(ToTri(EvalConst("2 < 3").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("3 <= 3").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("3 > 3").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("4 >= 5").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("4 <> 5").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("'abc' < 'abd'").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("2 = 2.0").value()), Tri::kT);
}

TEST(Eval, ArithmeticAndNullPropagation) {
  EXPECT_EQ(EvalConst("1 + 2 = 3").value().AsBool(), true);
  EXPECT_EQ(ToTri(EvalConst("1 + NULL = 2").value()), Tri::kU);
  EXPECT_EQ(ToTri(EvalConst("NULL * 0 = 0").value()), Tri::kU);
  // Integer arithmetic stays integral; division is real.
  auto qb = ParseSql("SELECT 7 / 2 FROM t");
  ASSERT_TRUE(qb.ok());
  EvalContext ctx;
  auto v = EvalExpr(*qb.value()->select[0].expr, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v->AsDouble(), 3.5);
}

TEST(Eval, DivisionByZeroYieldsNull) {
  EXPECT_EQ(ToTri(EvalConst("1 / 0 = 1").value()), Tri::kU);
}

TEST(Eval, IsNullOperators) {
  EXPECT_EQ(ToTri(EvalConst("NULL IS NULL").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("1 IS NULL").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("NULL IS NOT NULL").value()), Tri::kF);
  // IS NULL of an unknown comparison is TRUE (it is genuinely unknown).
  EXPECT_EQ(ToTri(EvalConst("(1 = NULL) IS NULL").value()), Tri::kT);
}

TEST(Eval, BetweenExpansion) {
  // `OR 1 = 2` keeps the expansion a single expression (top-level ANDs are
  // split into conjuncts by the parser); OR-with-FALSE is 3VL-transparent.
  EXPECT_EQ(ToTri(EvalConst("2 BETWEEN 1 AND 3 OR 1 = 2").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("0 BETWEEN 1 AND 3 OR 1 = 2").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("NULL BETWEEN 1 AND 3 OR 1 = 2").value()),
            Tri::kU);
  EXPECT_EQ(ToTri(EvalConst("0 NOT BETWEEN 1 AND 3 OR 1 = 2").value()),
            Tri::kT);
}

TEST(Eval, InValueList) {
  EXPECT_EQ(ToTri(EvalConst("2 IN (1, 2, 3)").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("9 IN (1, 2, 3)").value()), Tri::kF);
  EXPECT_EQ(ToTri(EvalConst("9 NOT IN (1, 2, 3)").value()), Tri::kT);
}

TEST(Eval, CaseExpression) {
  auto qb = ParseSql(
      "SELECT CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END "
      "FROM t");
  ASSERT_TRUE(qb.ok());
  EvalContext ctx;
  auto v = EvalExpr(*qb.value()->select[0].expr, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "b");
}

TEST(Eval, CaseWithoutElseIsNull) {
  auto qb = ParseSql("SELECT CASE WHEN 1 = 2 THEN 'a' END FROM t");
  ASSERT_TRUE(qb.ok());
  EvalContext ctx;
  auto v = EvalExpr(*qb.value()->select[0].expr, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(Eval, ScalarFunctions) {
  EXPECT_EQ(ToTri(EvalConst("mod(7, 3) = 1").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("abs(0 - 4) = 4").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("floor(3.7) = 3").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("upper('ab') = 'AB'").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("lower('AB') = 'ab'").value()), Tri::kT);
  EXPECT_EQ(ToTri(EvalConst("mod(7, 0) = 1").value()), Tri::kU);
}

TEST(Eval, UnknownFunctionIsError) {
  auto v = EvalConst("no_such_fn(1) = 1");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotSupported);
}

TEST(Eval, ExpensiveFunctionDeterministic) {
  SetExpensiveFunctionWork(10);  // keep the test fast
  auto a = EvalConst("expensive_filter(42, 5) = expensive_filter(42, 5)");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(ToTri(a.value()), Tri::kT);
  SetExpensiveFunctionWork(2000);
}

TEST(Eval, ColumnResolutionSearchesFramesInnermostFirst) {
  Schema outer{{"t1", "x", DataType::kInt64}};
  Row outer_row{Value::Int(1)};
  Schema inner{{"t2", "x", DataType::kInt64}};
  Row inner_row{Value::Int(2)};
  EvalContext ctx;
  ctx.frames.push_back(Frame{&outer, &outer_row});
  ctx.frames.push_back(Frame{&inner, &inner_row});
  // Qualified refs pick their own frame regardless of depth.
  auto r1 = EvalExpr(*MakeColumnRef("t1", "x"), ctx);
  auto r2 = EvalExpr(*MakeColumnRef("t2", "x"), ctx);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->AsInt(), 1);
  EXPECT_EQ(r2->AsInt(), 2);
  // Unqualified resolves innermost-first.
  auto r3 = EvalExpr(*MakeColumnRef("", "x"), ctx);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->AsInt(), 2);
}

TEST(Eval, UnresolvedColumnIsError) {
  EvalContext ctx;
  auto v = EvalExpr(*MakeColumnRef("zz", "c"), ctx);
  EXPECT_FALSE(v.ok());
}

// ---- subquery predicate semantics over a stub resolver ----

class StubResolver : public SubqueryResolver {
 public:
  explicit StubResolver(std::vector<Row> rows) : rows_(std::move(rows)) {}

  Result<SubqueryResultView> Resolve(const Expr*) override {
    SubqueryResultView view;
    view.rows = &rows_;
    return view;
  }

 private:
  std::vector<Row> rows_;
};

Result<Value> EvalWithSubquery(const std::string& where,
                               std::vector<Row> sub_rows) {
  auto qb = ParseSql("SELECT x FROM t WHERE " + where);
  EXPECT_TRUE(qb.ok());
  StubResolver resolver(std::move(sub_rows));
  EvalContext ctx;
  ctx.subquery_resolver = &resolver;
  return EvalExpr(*qb.value()->where[0], ctx);
}

TEST(EvalSubquery, Exists) {
  EXPECT_EQ(ToTri(EvalWithSubquery("EXISTS (SELECT y FROM s)",
                                   {{Value::Int(1)}})
                      .value()),
            Tri::kT);
  EXPECT_EQ(ToTri(EvalWithSubquery("EXISTS (SELECT y FROM s)", {}).value()),
            Tri::kF);
  EXPECT_EQ(ToTri(EvalWithSubquery("NOT EXISTS (SELECT y FROM s)", {}).value()),
            Tri::kT);
}

TEST(EvalSubquery, InThreeValued) {
  std::vector<Row> with_null{{Value::Int(1)}, {Value::Null()}};
  std::vector<Row> no_null{{Value::Int(1)}, {Value::Int(2)}};
  EXPECT_EQ(ToTri(EvalWithSubquery("1 IN (SELECT y FROM s)", no_null).value()),
            Tri::kT);
  EXPECT_EQ(ToTri(EvalWithSubquery("9 IN (SELECT y FROM s)", no_null).value()),
            Tri::kF);
  // Miss + NULL in the set: UNKNOWN.
  EXPECT_EQ(
      ToTri(EvalWithSubquery("9 IN (SELECT y FROM s)", with_null).value()),
      Tri::kU);
  // Hit wins over NULL.
  EXPECT_EQ(
      ToTri(EvalWithSubquery("1 IN (SELECT y FROM s)", with_null).value()),
      Tri::kT);
  // NOT IN mirrors.
  EXPECT_EQ(
      ToTri(EvalWithSubquery("9 NOT IN (SELECT y FROM s)", no_null).value()),
      Tri::kT);
  EXPECT_EQ(
      ToTri(EvalWithSubquery("9 NOT IN (SELECT y FROM s)", with_null).value()),
      Tri::kU);
  // Empty set: IN false, NOT IN true, even for NULL left operands.
  EXPECT_EQ(ToTri(EvalWithSubquery("NULL IN (SELECT y FROM s)", {}).value()),
            Tri::kF);
  EXPECT_EQ(
      ToTri(EvalWithSubquery("NULL NOT IN (SELECT y FROM s)", {}).value()),
      Tri::kT);
}

TEST(EvalSubquery, AnyAll) {
  std::vector<Row> vals{{Value::Int(5)}, {Value::Int(10)}};
  EXPECT_EQ(
      ToTri(EvalWithSubquery("7 > ANY (SELECT y FROM s)", vals).value()),
      Tri::kT);
  EXPECT_EQ(
      ToTri(EvalWithSubquery("3 > ANY (SELECT y FROM s)", vals).value()),
      Tri::kF);
  EXPECT_EQ(
      ToTri(EvalWithSubquery("11 > ALL (SELECT y FROM s)", vals).value()),
      Tri::kT);
  EXPECT_EQ(
      ToTri(EvalWithSubquery("7 > ALL (SELECT y FROM s)", vals).value()),
      Tri::kF);
  // ALL over the empty set is vacuously true; ANY is false.
  EXPECT_EQ(ToTri(EvalWithSubquery("7 > ALL (SELECT y FROM s)", {}).value()),
            Tri::kT);
  EXPECT_EQ(ToTri(EvalWithSubquery("7 > ANY (SELECT y FROM s)", {}).value()),
            Tri::kF);
  // NULL in the set makes a non-matching ANY unknown.
  std::vector<Row> with_null{{Value::Int(5)}, {Value::Null()}};
  EXPECT_EQ(
      ToTri(EvalWithSubquery("3 > ANY (SELECT y FROM s)", with_null).value()),
      Tri::kU);
}

TEST(EvalSubquery, ScalarValue) {
  auto v = EvalWithSubquery("3 < (SELECT y FROM s)", {{Value::Int(5)}});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToTri(v.value()), Tri::kT);
  // Empty scalar subquery evaluates to NULL -> unknown comparison.
  auto u = EvalWithSubquery("3 < (SELECT y FROM s)", {});
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(ToTri(u.value()), Tri::kU);
}

TEST(EvalSubquery, MissingResolverIsError) {
  auto qb = ParseSql("SELECT x FROM t WHERE EXISTS (SELECT y FROM s)");
  ASSERT_TRUE(qb.ok());
  EvalContext ctx;
  EXPECT_FALSE(EvalExpr(*qb.value()->where[0], ctx).ok());
}

// ---- compiled fast path vs the tree evaluator ----

// Operand values: NULL, Int/Real pairs with equal values, strings past the
// 15-byte small-string buffer (two equal, one different), and bools.
std::vector<Value> OperandGrid() {
  return {Value::Null(),
          Value::Int(2),
          Value::Real(2.0),
          Value::Int(-7),
          Value::Real(-7.0),
          Value::Real(3.5),
          Value::Str("a string well past sixteen bytes"),
          Value::Str("a string well past sixteen bytes"),
          Value::Str("another string past sixteen bytes"),
          Value::Boolean(true),
          Value::Boolean(false)};
}

bool IsLogical(const Value& v) {
  return v.is_null() || v.kind() == ValueKind::kBool;
}

// How an operand reaches its operator: a slot of the row, a constant, or a
// non-leaf child (CASE WHEN TRUE THEN <slot> END) that the compiled path
// evaluates into a scratch value.
enum class Shape { kSlot, kConst, kNonLeaf };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kSlot:
      return "slot";
    case Shape::kConst:
      return "const";
    case Shape::kNonLeaf:
      return "non-leaf";
  }
  return "";
}

ExprPtr MakeCase(std::vector<ExprPtr> legs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->children = std::move(legs);
  return e;
}

// An operand of shape `s` that evaluates to `v`, held in row slot `col`.
ExprPtr MakeOperand(Shape s, const std::string& col, const Value& v) {
  switch (s) {
    case Shape::kSlot:
      return MakeColumnRef("t", col);
    case Shape::kConst:
      return MakeLiteral(v);
    case Shape::kNonLeaf: {
      std::vector<ExprPtr> legs;
      legs.push_back(MakeLiteral(Value::Boolean(true)));
      legs.push_back(MakeColumnRef("t", col));
      return MakeCase(std::move(legs));
    }
  }
  return nullptr;
}

const Schema kCompiledSchema = {{"t", "a", DataType::kUnknown},
                                {"t", "b", DataType::kUnknown}};

// Evaluates `e` over `row` both ways and requires the same kind and value.
void ExpectFastMatchesTree(const Expr& e, const Row& row,
                           const std::string& label) {
  CompiledExpr c = CompiledExpr::Compile(&e, &kCompiledSchema);
  ASSERT_TRUE(c.fast()) << label;
  EvalContext ctx;
  ctx.rownum = 5;
  ctx.frames.push_back(Frame{&kCompiledSchema, &row});
  auto want = EvalExpr(e, ctx);
  ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  Value got = c.EvalFast(row, ctx.rownum);
  EXPECT_EQ(got.kind(), want->kind()) << label;
  EXPECT_TRUE(got == want.value())
      << label << ": fast " << got.ToString() << " tree "
      << want->ToString();
}

TEST(CompiledExpr, BinaryOpsMatchTreeEvaluator) {
  const BinaryOp ops[] = {
      BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,  BinaryOp::kLe,
      BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAdd, BinaryOp::kSub,
      BinaryOp::kMul, BinaryOp::kDiv, BinaryOp::kAnd, BinaryOp::kOr,
      BinaryOp::kNullSafeEq,
  };
  const Shape shapes[] = {Shape::kSlot, Shape::kConst, Shape::kNonLeaf};
  const std::vector<Value> grid = OperandGrid();
  int checked = 0;
  for (BinaryOp op : ops) {
    const bool logical = op == BinaryOp::kAnd || op == BinaryOp::kOr;
    for (const Value& x : grid) {
      for (const Value& y : grid) {
        // AND/OR take only truth values (the binder types them so).
        if (logical && !(IsLogical(x) && IsLogical(y))) continue;
        const Row row{x, y};
        for (Shape ls : shapes) {
          for (Shape rs : shapes) {
            ExprPtr e = MakeBinary(op, MakeOperand(ls, "a", x),
                                   MakeOperand(rs, "b", y));
            ExpectFastMatchesTree(
                *e, row,
                "op " + std::to_string(static_cast<int>(op)) + " " +
                    x.ToString() + " (" + ShapeName(ls) + "), " +
                    y.ToString() + " (" + ShapeName(rs) + ")");
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(CompiledExpr, UnaryOpsMatchTreeEvaluator) {
  const UnaryOp ops[] = {UnaryOp::kNot, UnaryOp::kNeg, UnaryOp::kIsNull,
                         UnaryOp::kIsNotNull, UnaryOp::kLnnvl};
  const Shape shapes[] = {Shape::kSlot, Shape::kConst, Shape::kNonLeaf};
  for (UnaryOp op : ops) {
    for (const Value& x : OperandGrid()) {
      // NOT takes only truth values (the binder types it so).
      if (op == UnaryOp::kNot && !IsLogical(x)) continue;
      const Row row{x, Value::Null()};
      for (Shape s : shapes) {
        ExprPtr e = MakeUnary(op, MakeOperand(s, "a", x));
        ExpectFastMatchesTree(*e, row,
                              "unary " + std::to_string(static_cast<int>(op)) +
                                  " " + x.ToString() + " (" + ShapeName(s) +
                                  ")");
      }
    }
  }
}

TEST(CompiledExpr, CaseAndNestedLogicMatchTreeEvaluator) {
  const std::vector<Value> grid = OperandGrid();
  for (const Value& x : grid) {
    for (const Value& y : grid) {
      const Row row{x, y};
      const std::string pair = x.ToString() + ", " + y.ToString();
      // CASE WHEN a = b THEN a WHEN a < b THEN b ELSE 'neither' END, and the
      // same without ELSE (NULL when no leg matches).
      for (bool with_else : {true, false}) {
        std::vector<ExprPtr> legs;
        legs.push_back(MakeBinary(BinaryOp::kEq, MakeColumnRef("t", "a"),
                                  MakeColumnRef("t", "b")));
        legs.push_back(MakeColumnRef("t", "a"));
        legs.push_back(MakeBinary(BinaryOp::kLt, MakeColumnRef("t", "a"),
                                  MakeColumnRef("t", "b")));
        legs.push_back(MakeColumnRef("t", "b"));
        if (with_else) legs.push_back(MakeLiteral(Value::Str("neither")));
        ExpectFastMatchesTree(*MakeCase(std::move(legs)), row,
                              "case else=" + std::to_string(with_else) + " " +
                                  pair);
      }
      // (a = b OR a IS NULL) AND NOT (a > b AND b IS NOT NULL) OR
      // LNNVL(a <= b): comparison leaves under two levels of AND/OR.
      ExprPtr nested = MakeBinary(
          BinaryOp::kOr,
          MakeBinary(
              BinaryOp::kAnd,
              MakeBinary(BinaryOp::kOr,
                         MakeBinary(BinaryOp::kEq, MakeColumnRef("t", "a"),
                                    MakeColumnRef("t", "b")),
                         MakeUnary(UnaryOp::kIsNull, MakeColumnRef("t", "a"))),
              MakeUnary(UnaryOp::kNot,
                        MakeBinary(BinaryOp::kAnd,
                                   MakeBinary(BinaryOp::kGt,
                                              MakeColumnRef("t", "a"),
                                              MakeColumnRef("t", "b")),
                                   MakeUnary(UnaryOp::kIsNotNull,
                                             MakeColumnRef("t", "b"))))),
          MakeUnary(UnaryOp::kLnnvl,
                    MakeBinary(BinaryOp::kLe, MakeColumnRef("t", "a"),
                               MakeColumnRef("t", "b"))));
      ExpectFastMatchesTree(*nested, row, "nested and/or " + pair);
    }
  }
}

}  // namespace
}  // namespace cbqt
