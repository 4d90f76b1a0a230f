// Property-style sweeps over the randomized workload families (TEST_P):
//  * parse -> unparse -> reparse yields a structurally equal tree;
//  * binding is idempotent;
//  * deep copies are independent;
//  * optimization is deterministic (same plan shape and cost every time);
//  * the transformed tree's SQL rendering re-parses and re-binds.

#include <gtest/gtest.h>

#include "cbqt/framework.h"
#include "sql/unparser.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

class PropertyDb {
 public:
  PropertyDb() {
    db_ = MakeSmallHrDb();
    schema_.locations = 10;
    schema_.departments = 20;
    schema_.employees = 500;
    schema_.customers = 100;
    schema_.orders = 600;
    schema_.products = 50;
    schema_.accounts = 10;
  }
  const Database& db() const { return *db_; }
  const SchemaConfig& schema() const { return schema_; }

 private:
  std::unique_ptr<Database> db_;
  SchemaConfig schema_;
};

PropertyDb& Shared() {
  static PropertyDb* db = new PropertyDb();
  return *db;
}

class WorkloadPropertyTest : public ::testing::TestWithParam<QueryFamily> {
 protected:
  std::vector<WorkloadQuery> Queries(uint64_t seed, int n = 4) {
    return GenerateFamily(GetParam(), n, Shared().schema(), seed);
  }
};

TEST_P(WorkloadPropertyTest, UnparseReparseRoundTrip) {
  for (const auto& q : Queries(11)) {
    auto first = ParseSql(q.sql);
    ASSERT_TRUE(first.ok()) << q.sql;
    std::string rendered = BlockToSql(*first.value());
    auto second = ParseSql(rendered);
    ASSERT_TRUE(second.ok()) << rendered;
    EXPECT_TRUE(BlockEquals(*first.value(), *second.value()))
        << q.sql << "\n-- rendered --\n" << rendered;
  }
}

TEST_P(WorkloadPropertyTest, BindingIsIdempotent) {
  for (const auto& q : Queries(12)) {
    auto qb = ParseAndBind(Shared().db(), q.sql);
    ASSERT_NE(qb, nullptr);
    auto before = qb->Clone();
    const std::string text = BlockToSql(*qb);
    ASSERT_TRUE(BindQuery(Shared().db(), qb.get()).ok());
    EXPECT_TRUE(BlockEquals(*before, *qb)) << q.sql;
    EXPECT_EQ(BlockToSql(*qb), text) << q.sql;
  }
}

TEST_P(WorkloadPropertyTest, CloneIsDeepAndEqual) {
  for (const auto& q : Queries(13)) {
    auto qb = ParseAndBind(Shared().db(), q.sql);
    ASSERT_NE(qb, nullptr);
    auto copy = qb->Clone();
    EXPECT_TRUE(BlockEquals(*qb, *copy));
    EXPECT_EQ(BlockToSql(*qb), BlockToSql(*copy));
    // Mutating the copy leaves the original untouched (compound blocks
    // have no select list of their own; mutate a branch instead).
    if (copy->IsSetOp()) {
      copy->branches[0]->select.clear();
      EXPECT_FALSE(BlockEquals(*qb, *copy));
      EXPECT_FALSE(qb->branches[0]->select.empty());
    } else {
      copy->select.clear();
      EXPECT_FALSE(BlockEquals(*qb, *copy));
      EXPECT_FALSE(qb->select.empty());
    }
  }
}

TEST_P(WorkloadPropertyTest, OptimizationIsDeterministic) {
  WorkloadRunner runner(Shared().db());
  for (const auto& q : Queries(14, 2)) {
    auto a = runner.Run(q.sql, ConfigForMode(OptimizerMode::kCostBased));
    auto b = runner.Run(q.sql, ConfigForMode(OptimizerMode::kCostBased));
    ASSERT_TRUE(a.ok() && b.ok()) << q.sql;
    EXPECT_EQ(a->plan_shape, b->plan_shape) << q.sql;
    EXPECT_DOUBLE_EQ(a->est_cost, b->est_cost) << q.sql;
  }
}

TEST_P(WorkloadPropertyTest, TransformedTreeRendersValidSql) {
  for (const auto& q : Queries(15, 2)) {
    auto parsed = ParseSql(q.sql);
    ASSERT_TRUE(parsed.ok());
    CbqtOptimizer opt(Shared().db(), ConfigForMode(OptimizerMode::kCostBased));
    auto r = opt.Optimize(*parsed.value());
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << q.sql;
    // The transformed tree must still bind (transformations preserve
    // well-formedness); its rendering is for diagnostics and may use the
    // non-standard SEMI/ANTI notation, so we re-bind rather than re-parse.
    auto copy = r->tree->Clone();
    EXPECT_TRUE(BindQuery(Shared().db(), copy.get()).ok())
        << BlockToSql(*r->tree);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorkloadPropertyTest,
    ::testing::Values(QueryFamily::kSpj, QueryFamily::kAggSubquery,
                      QueryFamily::kSemiSubquery, QueryFamily::kGbView,
                      QueryFamily::kDistinctView, QueryFamily::kUnionView,
                      QueryFamily::kGbp, QueryFamily::kFactorization,
                      QueryFamily::kPullup, QueryFamily::kSetOp,
                      QueryFamily::kOrExpansion, QueryFamily::kWindowView),
    [](const ::testing::TestParamInfo<QueryFamily>& info) {
      std::string name = QueryFamilyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- empty-input edge cases (not family-specific) ----

class EmptyTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef t;
    t.name = "empty_t";
    t.columns = {{"a", DataType::kInt64, false},
                 {"b", DataType::kString, true}};
    t.primary_key = {"a"};
    t.indexes = {{"empty_pk", {"a"}, true}};
    ASSERT_TRUE(db_.CreateTable(t).ok());
    TableDef u;
    u.name = "one_row";
    u.columns = {{"x", DataType::kInt64, false}};
    ASSERT_TRUE(db_.CreateTable(u).ok());
    ASSERT_TRUE(db_.Insert("one_row", {Value::Int(7)}).ok());
    ASSERT_TRUE(db_.Analyze().ok());
  }

  std::vector<Row> Run(const std::string& sql) {
    WorkloadRunner runner(db_);
    auto rows =
        runner.RunToSortedRows(sql, ConfigForMode(OptimizerMode::kCostBased));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << sql;
    return rows.ok() ? std::move(rows.value()) : std::vector<Row>{};
  }

  Database db_;
};

TEST_F(EmptyTableTest, ScanOfEmptyTable) {
  EXPECT_TRUE(Run("SELECT e.a FROM empty_t e").empty());
}

TEST_F(EmptyTableTest, JoinWithEmptyTable) {
  EXPECT_TRUE(Run("SELECT o.x FROM one_row o, empty_t e WHERE e.a = o.x")
                  .empty());
}

TEST_F(EmptyTableTest, OuterJoinWithEmptyRightSide) {
  auto rows = Run(
      "SELECT o.x, e.b FROM one_row o LEFT OUTER JOIN empty_t e ON e.a = "
      "o.x");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(EmptyTableTest, AggregatesOverEmptyInput) {
  auto rows = Run("SELECT COUNT(*), SUM(e.a), MIN(e.a) FROM empty_t e");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST_F(EmptyTableTest, GroupByOverEmptyInputYieldsNoGroups) {
  EXPECT_TRUE(Run("SELECT e.a, COUNT(*) FROM empty_t e GROUP BY e.a").empty());
}

TEST_F(EmptyTableTest, NotInEmptySubqueryKeepsEverything) {
  auto rows = Run(
      "SELECT o.x FROM one_row o WHERE o.x NOT IN (SELECT e.a FROM empty_t "
      "e)");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(EmptyTableTest, ExistsEmptySubqueryDropsEverything) {
  EXPECT_TRUE(
      Run("SELECT o.x FROM one_row o WHERE EXISTS (SELECT 1 FROM empty_t e)")
          .empty());
}

TEST_F(EmptyTableTest, SetOpsWithEmptyBranch) {
  EXPECT_EQ(Run("SELECT o.x FROM one_row o UNION ALL SELECT e.a FROM "
                "empty_t e")
                .size(),
            1u);
  EXPECT_TRUE(Run("SELECT o.x FROM one_row o INTERSECT SELECT e.a FROM "
                  "empty_t e")
                  .empty());
  EXPECT_EQ(Run("SELECT o.x FROM one_row o MINUS SELECT e.a FROM empty_t e")
                .size(),
            1u);
}

}  // namespace
}  // namespace cbqt
