// The strongest correctness property in the repository: the full pipeline
// (CBQT transformations -> physical plan -> executor) must return exactly
// the rows of the ReferenceExecutor — a naive interpreter of the bound
// query tree with no planner, no transformations, and no caching. Any bug
// in a transformation's legality, the planner's operator construction, or
// an executor operator shows up as a mismatch here.

#include "exec/reference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cbqt/framework.h"
#include "exec/executor.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

// Different plans sum doubles in different orders; compare with a relative
// tolerance instead of bitwise equality.
bool RowsApproxEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() && b[i].is_null()) continue;
    if (a[i].is_null() || b[i].is_null()) return false;
    if (a[i].kind() == ValueKind::kDouble || b[i].kind() == ValueKind::kDouble) {
      double x = a[i].NumericValue();
      double y = b[i].NumericValue();
      double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
      if (std::fabs(x - y) > 1e-9 * scale) return false;
      continue;
    }
    if (!RowsEqualStructural(Row{a[i]}, Row{b[i]})) return false;
  }
  return true;
}

class OracleDb {
 public:
  OracleDb() {
    auto db = std::make_unique<Database>();
    SchemaConfig cfg;
    // Small enough for O(n^2) reference evaluation, large enough for
    // duplicates, NULLs and skew to matter.
    cfg.locations = 6;
    cfg.departments = 10;
    cfg.employees = 120;
    cfg.job_history = 200;
    cfg.jobs = 6;
    cfg.customers = 40;
    cfg.orders = 150;
    cfg.order_items = 300;
    cfg.products = 20;
    cfg.accounts = 5;
    cfg.months = 8;
    cfg.seed = 1234;
    if (!BuildHrDatabase(cfg, db.get()).ok()) std::abort();
    db_ = std::move(db);
    schema_ = cfg;
  }
  const Database& db() const { return *db_; }
  const SchemaConfig& schema() const { return schema_; }

 private:
  std::unique_ptr<Database> db_;
  SchemaConfig schema_;
};

OracleDb& SharedDb() {
  static OracleDb* db = new OracleDb();
  return *db;
}

void CheckAgainstReference(const std::string& sql) {
  const Database& db = SharedDb().db();

  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << sql;
  auto bound = parsed.value()->Clone();
  ASSERT_TRUE(BindQuery(db, bound.get()).ok()) << sql;

  ReferenceExecutor reference(db);
  auto expected = reference.Execute(*bound);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n" << sql;
  SortRowsCanonical(&expected.value());

  WorkloadRunner runner(db);
  for (OptimizerMode mode :
       {OptimizerMode::kCostBased, OptimizerMode::kHeuristicOnly,
        OptimizerMode::kUnnestOff, OptimizerMode::kJppdOff}) {
    auto actual = runner.RunToSortedRows(sql, ConfigForMode(mode));
    ASSERT_TRUE(actual.ok()) << actual.status().ToString() << "\nmode="
                             << static_cast<int>(mode) << "\n" << sql;
    ASSERT_EQ(actual->size(), expected->size())
        << "mode=" << static_cast<int>(mode) << "\n" << sql;
    for (size_t i = 0; i < actual->size(); ++i) {
      ASSERT_TRUE(RowsApproxEqual((*actual)[i], (*expected)[i]))
          << "row " << i << " mode=" << static_cast<int>(mode) << "\n" << sql;
    }
  }
}

struct Case {
  QueryFamily family;
  uint64_t seed;
};

class ReferenceOracleTest : public ::testing::TestWithParam<Case> {};

TEST_P(ReferenceOracleTest, PipelineMatchesNaiveInterpreter) {
  const Case c = GetParam();
  auto queries = GenerateFamily(c.family, 3, SharedDb().schema(), c.seed);
  for (const auto& q : queries) CheckAgainstReference(q.sql);
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = QueryFamilyName(info.param.family);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_s" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ReferenceOracleTest,
    ::testing::Values(
        Case{QueryFamily::kSpj, 101}, Case{QueryFamily::kSpj, 102},
        Case{QueryFamily::kAggSubquery, 101},
        Case{QueryFamily::kAggSubquery, 102},
        Case{QueryFamily::kSemiSubquery, 101},
        Case{QueryFamily::kSemiSubquery, 102},
        Case{QueryFamily::kSemiSubquery, 103},
        Case{QueryFamily::kGbView, 101}, Case{QueryFamily::kGbView, 102},
        Case{QueryFamily::kDistinctView, 101},
        Case{QueryFamily::kUnionView, 101},
        Case{QueryFamily::kGbp, 101}, Case{QueryFamily::kGbp, 102},
        Case{QueryFamily::kFactorization, 101},
        Case{QueryFamily::kPullup, 101},
        Case{QueryFamily::kSetOp, 101}, Case{QueryFamily::kSetOp, 102},
        Case{QueryFamily::kOrExpansion, 101},
        Case{QueryFamily::kWindowView, 101}),
    CaseName);

// Hand-written cases targeting three-valued logic and duplicate semantics
// that random generation may not hit.
TEST(ReferenceOracleEdge, NullSemantics) {
  CheckAgainstReference(
      "SELECT e.employee_name FROM employees e WHERE e.mgr_id IS NULL");
  CheckAgainstReference(
      "SELECT e.emp_id FROM employees e WHERE e.emp_id NOT IN (SELECT "
      "o.emp_id FROM orders o)");
  CheckAgainstReference(
      "SELECT e.emp_id FROM employees e WHERE e.mgr_id IN (SELECT o.emp_id "
      "FROM orders o WHERE o.total > 2000)");
}

TEST(ReferenceOracleEdge, DuplicatePreservation) {
  // Joins multiply rows; DISTINCT and UNION ALL interact with that.
  CheckAgainstReference(
      "SELECT e.dept_id FROM employees e, job_history j WHERE e.emp_id = "
      "j.emp_id");
  CheckAgainstReference(
      "SELECT DISTINCT e.dept_id FROM employees e, job_history j WHERE "
      "e.emp_id = j.emp_id");
  CheckAgainstReference(
      "SELECT e.dept_id FROM employees e WHERE e.salary > 100000 UNION ALL "
      "SELECT e.dept_id FROM employees e WHERE e.salary > 140000");
}

TEST(ReferenceOracleEdge, OuterJoins) {
  CheckAgainstReference(
      "SELECT c.cust_name, o.total FROM customers c LEFT OUTER JOIN orders "
      "o ON o.cust_id = c.cust_id AND o.total > 4000");
  CheckAgainstReference(
      "SELECT e.employee_name, d.dept_name FROM employees e LEFT OUTER "
      "JOIN departments d ON e.dept_id = d.dept_id WHERE e.salary > "
      "120000");
}

TEST(ReferenceOracleEdge, GroupingSets) {
  CheckAgainstReference(
      "SELECT d.loc_id, d.dept_id, COUNT(*) FROM departments d GROUP BY "
      "ROLLUP(d.loc_id, d.dept_id)");
  CheckAgainstReference(
      "SELECT v.l, v.c FROM (SELECT d.loc_id AS l, COUNT(*) AS c FROM "
      "departments d GROUP BY GROUPING SETS ((d.loc_id), ())) v WHERE v.l "
      "IS NOT NULL");
}

TEST(ReferenceOracleEdge, CorrelatedQuantifiers) {
  CheckAgainstReference(
      "SELECT e.emp_id FROM employees e WHERE e.salary >= ALL (SELECT "
      "e2.salary FROM employees e2 WHERE e2.dept_id = e.dept_id)");
  CheckAgainstReference(
      "SELECT d.dept_name FROM departments d WHERE d.budget > ANY (SELECT "
      "e.salary * 3 FROM employees e WHERE e.dept_id = d.dept_id)");
}

// NOT IN and ALL over a nullable column need a null-aware antijoin. A hash
// antijoin can only decide that verdict for one connecting column and no
// correlation: then any NULL in the subquery result rejects every row. The
// correlated and two-column shapes must stay TIS (tuple iteration).
TEST(ReferenceOracleEdge, NullAwareAntiJoins) {
  // Correlated single-column NOT IN: only the NULL mgr_id rows of the
  // department's own job make its verdict unknown.
  CheckAgainstReference(
      "SELECT d.dept_id FROM departments d WHERE d.loc_id NOT IN (SELECT "
      "e.mgr_id FROM employees e WHERE e.job_id = d.dept_id)");
  // Two-column NOT IN: (7, 7) against (3, NULL) is definitely unequal.
  CheckAgainstReference(
      "SELECT d.dept_id FROM departments d WHERE (d.dept_id, d.dept_id) NOT "
      "IN (SELECT e.emp_id, e.mgr_id FROM employees e WHERE e.mgr_id IS "
      "NULL AND e.emp_id < 200)");
  // Correlated < ALL: a NULL comparison counts as unknown.
  CheckAgainstReference(
      "SELECT d.dept_id FROM departments d WHERE d.loc_id < ALL (SELECT "
      "e.mgr_id FROM employees e WHERE e.job_id = d.dept_id AND e.emp_id < "
      "300)");
  // Control: uncorrelated single-column NOT IN, unnested to the hash
  // null-aware antijoin, with and without a NULL in the subquery result.
  CheckAgainstReference(
      "SELECT d.dept_id FROM departments d WHERE d.loc_id NOT IN (SELECT "
      "e.mgr_id FROM employees e WHERE e.salary > 100000)");
  CheckAgainstReference(
      "SELECT d.dept_id FROM departments d WHERE d.loc_id NOT IN (SELECT "
      "e.mgr_id FROM employees e WHERE e.mgr_id IS NOT NULL)");
}

TEST(ReferenceOracleEdge, HavingAndOrderBy) {
  CheckAgainstReference(
      "SELECT e.dept_id, AVG(e.salary) AS a FROM employees e GROUP BY "
      "e.dept_id HAVING COUNT(*) > 5 ORDER BY a DESC");
  CheckAgainstReference(
      "SELECT e.employee_name FROM employees e ORDER BY e.salary DESC, "
      "e.emp_id");
}

TEST(ReferenceOracleEdge, SetOperatorNullMatching) {
  CheckAgainstReference(
      "SELECT o.emp_id FROM orders o INTERSECT SELECT o.emp_id FROM orders "
      "o WHERE o.total > 1000");
  CheckAgainstReference(
      "SELECT o.emp_id FROM orders o MINUS SELECT o.emp_id FROM orders o "
      "WHERE o.emp_id IS NOT NULL");
}

TEST(ReferenceOracleEdge, RownumAndLazyFilters) {
  CheckAgainstReference(
      "SELECT v.oid FROM (SELECT o.order_id AS oid, o.order_date AS od "
      "FROM orders o WHERE expensive_filter(o.order_id, 3) = 1 ORDER BY "
      "o.order_date) v WHERE rownum <= 4");
}

}  // namespace
}  // namespace cbqt
