#include "optimizer/planner.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace cbqt {
namespace {

class PlannerTest : public ::testing::Test {
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
      ADD_FAILURE() << "plan failed: " << bp.status().ToString();
      return nullptr;
    }
    return bp->plan.Take();
  }

  static bool ShapeContains(const PlanNode& plan, const std::string& text) {
    return PlanShape(plan).find(text) != std::string::npos;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, FullScanWithoutUsefulIndex) {
  auto plan = Plan("SELECT e.salary FROM employees e WHERE e.salary > 100");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "TableScan employees"));
}

TEST_F(PlannerTest, IndexScanForEqualityOnIndexedColumn) {
  auto plan = Plan("SELECT e.salary FROM employees e WHERE e.emp_id = 7");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "IndexScan employees"));
  EXPECT_TRUE(ShapeContains(*plan, "emp_pk"));
}

TEST_F(PlannerTest, HashJoinForUnindexedEquiJoin) {
  auto plan = Plan(
      "SELECT e.salary FROM employees e, job_history j WHERE e.job_id = "
      "j.job_id");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "HashJoin") ||
              ShapeContains(*plan, "MergeJoin"));
}

TEST_F(PlannerTest, IndexNestedLoopForSelectiveOuter) {
  // One department row driving into the employees dept index.
  auto plan = Plan(
      "SELECT e.salary FROM departments d, employees e WHERE d.dept_id = 3 "
      "AND e.dept_id = d.dept_id");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "NestedLoopJoin"));
  EXPECT_TRUE(ShapeContains(*plan, "emp_dept_idx"));
}

TEST_F(PlannerTest, AggregationPlansAggregateNode) {
  auto plan = Plan(
      "SELECT e.dept_id, AVG(e.salary) FROM employees e GROUP BY e.dept_id");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "Aggregate"));
}

TEST_F(PlannerTest, ScalarAggregateOneRow) {
  auto plan = Plan("SELECT COUNT(*) FROM employees e");
  ASSERT_NE(plan, nullptr);
  EXPECT_NEAR(plan->est_rows, 1.0, 0.01);
}

TEST_F(PlannerTest, DistinctAndOrderAndLimit) {
  auto plan = Plan(
      "SELECT DISTINCT e.dept_id FROM employees e ORDER BY e.dept_id");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "Distinct"));
  EXPECT_TRUE(ShapeContains(*plan, "Sort"));
}

TEST_F(PlannerTest, RownumBecomesLimit) {
  auto plan = Plan("SELECT e.salary FROM employees e WHERE rownum <= 5");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "Limit 5"));
}

TEST_F(PlannerTest, TisSubqueryFilterWithSubplan) {
  auto plan = Plan(
      "SELECT e.salary FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "SubqueryFilter"));
  EXPECT_TRUE(ShapeContains(*plan, "[subplan]"));
}

TEST_F(PlannerTest, TisCorrelatedSubplanUsesIndex) {
  auto plan = Plan(
      "SELECT e.salary FROM employees e WHERE EXISTS (SELECT 1 FROM "
      "employees e2 WHERE e2.dept_id = e.dept_id AND e2.salary > 1000)");
  ASSERT_NE(plan, nullptr);
  // Inside the TIS subplan the correlation acts like a constant: the
  // dept index applies.
  EXPECT_TRUE(ShapeContains(*plan, "emp_dept_idx"));
}

TEST_F(PlannerTest, SemiJoinKeepsLeftSchemaOnly) {
  auto qb = ParseAndBind(*db_, "SELECT d.dept_name FROM departments d");
  ASSERT_NE(qb, nullptr);
  TableRef semi;
  semi.alias = "e";
  semi.table_name = "employees";
  semi.join = JoinKind::kSemi;
  semi.join_conds.push_back(MakeBinary(BinaryOp::kEq,
                                       MakeColumnRef("e", "dept_id"),
                                       MakeColumnRef("d", "dept_id")));
  qb->from.push_back(std::move(semi));
  ASSERT_TRUE(BindQuery(*db_, qb.get()).ok());
  Planner planner(*db_, CostParams{});
  auto bp = planner.PlanBlock(*qb);
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  EXPECT_TRUE(ShapeContains(*bp->plan, "semi"));
}

TEST_F(PlannerTest, SetOpPlansBranches) {
  auto plan = Plan(
      "SELECT e.dept_id FROM employees e UNION ALL SELECT d.dept_id FROM "
      "departments d");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "SetOp UNION ALL"));
}

TEST_F(PlannerTest, WindowNodePlanned) {
  auto plan = Plan(
      "SELECT AVG(a.balance) OVER (PARTITION BY a.acct_id ORDER BY a.time) "
      "FROM accounts a");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ShapeContains(*plan, "Window"));
}

TEST_F(PlannerTest, LateralViewForcedNestedLoopAfterDependency) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT d.dept_name, v.cnt FROM departments d, LATERAL (SELECT "
      "COUNT(*) AS cnt FROM employees e WHERE e.dept_id = d.dept_id) v");
  ASSERT_NE(qb, nullptr);
  ASSERT_TRUE(qb->from[1].lateral);
  Planner planner(*db_, CostParams{});
  auto bp = planner.PlanBlock(*qb);
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  EXPECT_TRUE(ShapeContains(*bp->plan, "NestedLoopJoin"));
}

TEST_F(PlannerTest, CostCutoffAborts) {
  auto qb = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  ASSERT_NE(qb, nullptr);
  Planner planner(*db_, CostParams{}, nullptr, /*cost_cutoff=*/0.0001);
  auto bp = planner.PlanBlock(*qb);
  ASSERT_FALSE(bp.ok());
  EXPECT_EQ(bp.status().code(), StatusCode::kCostCutoff);
}

TEST_F(PlannerTest, EstimatesRoughlySane) {
  auto plan = Plan("SELECT e.salary FROM employees e WHERE e.dept_id = 1");
  ASSERT_NE(plan, nullptr);
  // 500 employees over 20 departments, skewed: estimate 500/ndv.
  EXPECT_GT(plan->est_rows, 1);
  EXPECT_LT(plan->est_rows, 200);
  EXPECT_GT(plan->est_cost, 0);
}

TEST_F(PlannerTest, OrderByNonSelectedColumnAddsHiddenSlotAndTrims) {
  auto plan = Plan(
      "SELECT e.employee_name FROM employees e ORDER BY e.salary DESC");
  ASSERT_NE(plan, nullptr);
  // Final output must be exactly the one select column.
  EXPECT_EQ(plan->output.size(), 1u);
  EXPECT_EQ(plan->output[0].name, "employee_name");
}

}  // namespace
}  // namespace cbqt
