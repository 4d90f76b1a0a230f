#include "optimizer/plan.h"

#include <gtest/gtest.h>

#include "optimizer/planner.h"
#include "tests/test_util.h"

namespace cbqt {
namespace {

TEST(PlanSchema, FindSlotMatchesAliasAndName) {
  Schema schema{{"e", "salary", DataType::kDouble},
                {"d", "dept_id", DataType::kInt64},
                {"", "$a0", DataType::kInt64}};
  EXPECT_EQ(FindSlot(schema, "e", "salary"), 0);
  EXPECT_EQ(FindSlot(schema, "d", "dept_id"), 1);
  // Empty alias in the reference matches any slot with the name.
  EXPECT_EQ(FindSlot(schema, "", "dept_id"), 1);
  EXPECT_EQ(FindSlot(schema, "", "$a0"), 2);
  // Wrong alias does not match.
  EXPECT_EQ(FindSlot(schema, "x", "salary"), -1);
  EXPECT_EQ(FindSlot(schema, "e", "missing"), -1);
}

TEST(PlanNode, CloneIsDeep) {
  PlanNode scan(PlanOp::kTableScan);
  scan.table_name = "t";
  scan.table_alias = "t1";
  scan.filter.push_back(MakeBinary(BinaryOp::kGt, MakeColumnRef("t1", "a"),
                                   MakeLiteral(Value::Int(5))));
  scan.output = {{"t1", "a", DataType::kInt64}};
  scan.est_rows = 10;
  scan.est_cost = 3;

  auto copy = scan.Clone();
  EXPECT_EQ(copy->table_name, "t");
  EXPECT_EQ(copy->filter.size(), 1u);
  EXPECT_DOUBLE_EQ(copy->est_rows, 10);
  // Mutating the copy leaves the original intact.
  copy->filter.clear();
  copy->table_name = "other";
  EXPECT_EQ(scan.filter.size(), 1u);
  EXPECT_EQ(scan.table_name, "t");
}

TEST(PlanNode, CloneCopiesSubplansAndKeys) {
  PlanNode filt(PlanOp::kSubqueryFilter);
  filt.subplans.push_back(std::make_unique<PlanNode>(PlanOp::kTableScan));
  filt.subplans[0]->table_name = "inner_t";
  std::vector<ExprPtr> keys;
  keys.push_back(MakeColumnRef("o", "k"));
  filt.subplan_corr_keys.push_back(std::move(keys));
  auto copy = filt.Clone();
  ASSERT_EQ(copy->subplans.size(), 1u);
  EXPECT_EQ(copy->subplans[0]->table_name, "inner_t");
  ASSERT_EQ(copy->subplan_corr_keys.size(), 1u);
  EXPECT_NE(copy->subplans[0].get(), filt.subplans[0].get());
}

class PlanShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<PlanNode> Plan(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return nullptr;
    Planner planner(*db_, CostParams{});
    auto bp = planner.PlanBlock(*qb);
    if (!bp.ok()) {
      ADD_FAILURE() << bp.status().ToString();
      return nullptr;
    }
    return bp->plan.Take();
  }
  std::unique_ptr<Database> db_;
};

TEST_F(PlanShapeTest, ShapeIgnoresCostsToStringIncludesThem) {
  auto plan = Plan("SELECT e.salary FROM employees e WHERE e.salary > 100");
  ASSERT_NE(plan, nullptr);
  std::string shape = PlanShape(*plan);
  std::string full = PlanToString(*plan);
  EXPECT_EQ(shape.find("rows="), std::string::npos);
  EXPECT_NE(full.find("rows="), std::string::npos);
  EXPECT_NE(shape.find("TableScan employees"), std::string::npos);
}

TEST_F(PlanShapeTest, ShapesDistinguishAccessPaths) {
  auto full_scan = Plan("SELECT e.salary FROM employees e WHERE e.salary > 1");
  auto index_scan = Plan("SELECT e.salary FROM employees e WHERE e.emp_id = 1");
  ASSERT_NE(full_scan, nullptr);
  ASSERT_NE(index_scan, nullptr);
  EXPECT_NE(PlanShape(*full_scan), PlanShape(*index_scan));
}

TEST_F(PlanShapeTest, IdenticalQueriesIdenticalShapes) {
  const char* sql =
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 50000";
  auto a = Plan(sql);
  auto b = Plan(sql);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(PlanShape(*a), PlanShape(*b));
}

TEST_F(PlanShapeTest, SubplansRenderedUnderMarker) {
  auto plan = Plan(
      "SELECT e.salary FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)");
  ASSERT_NE(plan, nullptr);
  std::string shape = PlanShape(*plan);
  EXPECT_NE(shape.find("[subplan]"), std::string::npos);
}

}  // namespace
}  // namespace cbqt
