// Plan identity against a committed golden file: for a fixed statement set
// the chosen physical plan (PlanToString, with per-node row/cost estimates)
// and the root cost and rows to the last bit (%.17g) must match
// tests/golden/plans.txt byte for byte. The equivalence sweeps compare two
// modes of the same planner; this is the check that a planner refactor kept
// the plans the previous planner chose.
//
// Statement set: the test_equivalence family queries (under full CBQT, full
// CBQT with the copy-on-write / join-order-memo paths off, and
// heuristic-only), the first 300 statements of GenerateMixedWorkload at
// seed 1, every tests/fuzz_corpus/*.sql file on the fuzz database, and two
// large join blocks: the bench_state_eval query (a ten-relation subset DP
// once fully unnested) under exhaustive search, and a twelve-table join that
// takes the greedy join-order path.
//
// On a mismatch the full actual output is written to plans.actual.txt in the
// working directory. When a planner change is meant to alter plans, review
// that file and copy it over tests/golden/plans.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/search.h"
#include "common/str_util.h"
#include "fuzz/harness.h"
#include "optimizer/plan.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

#ifndef CBQT_SOURCE_DIR
#error "CBQT_SOURCE_DIR must point at the repository root"
#endif

namespace cbqt {
namespace {

const std::filesystem::path kGoldenPath =
    std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "golden" / "plans.txt";

// One golden entry: a label line, the exact root estimates, then the plan.
void AppendEntry(const QueryEngine& engine, const std::string& label,
                 const std::string& sql, std::string* out) {
  *out += "## " + label + "\n";
  auto prepared = engine.Prepare(sql);
  if (!prepared.ok()) {
    *out += "error " + prepared.status().ToString() + "\n";
    return;
  }
  *out += StrFormat("cost %.17g rows %.17g\n", prepared->cost,
                    prepared->plan->est_rows);
  *out += PlanToString(*prepared->plan);
}

std::string RenderAllPlans() {
  std::string out;
  auto db = MakeSmallHrDb();
  if (db == nullptr) {
    ADD_FAILURE() << "small HR database failed to build";
    return out;
  }
  const SchemaConfig schema = SmallHrSchema();

  CbqtConfig no_cow = ConfigForMode(OptimizerMode::kCostBased);
  no_cow.cow_clone = false;
  no_cow.reuse_join_orders = false;
  const struct {
    const char* name;
    CbqtConfig config;
  } modes[] = {
      {"cost-based", ConfigForMode(OptimizerMode::kCostBased)},
      {"full-clones", no_cow},
      {"heuristic", ConfigForMode(OptimizerMode::kHeuristicOnly)},
  };
  const struct {
    QueryFamily family;
    uint64_t seed;
  } cases[] = {
      {QueryFamily::kSpj, 1},           {QueryFamily::kSpj, 2},
      {QueryFamily::kAggSubquery, 1},   {QueryFamily::kAggSubquery, 2},
      {QueryFamily::kAggSubquery, 3},   {QueryFamily::kSemiSubquery, 1},
      {QueryFamily::kSemiSubquery, 2},  {QueryFamily::kSemiSubquery, 3},
      {QueryFamily::kGbView, 1},        {QueryFamily::kGbView, 2},
      {QueryFamily::kDistinctView, 1},  {QueryFamily::kDistinctView, 2},
      {QueryFamily::kUnionView, 1},     {QueryFamily::kUnionView, 2},
      {QueryFamily::kGbp, 1},           {QueryFamily::kGbp, 2},
      {QueryFamily::kFactorization, 1}, {QueryFamily::kFactorization, 2},
      {QueryFamily::kPullup, 1},        {QueryFamily::kSetOp, 1},
      {QueryFamily::kSetOp, 2},         {QueryFamily::kOrExpansion, 1},
      {QueryFamily::kOrExpansion, 2},   {QueryFamily::kWindowView, 1},
  };
  for (const auto& mode : modes) {
    QueryEngine engine(*db, mode.config);
    for (const auto& c : cases) {
      auto queries = GenerateFamily(c.family, 3, schema, c.seed);
      for (size_t i = 0; i < queries.size(); ++i) {
        AppendEntry(engine,
                    StrFormat("equivalence %s s%llu #%zu %s",
                              QueryFamilyName(c.family),
                              static_cast<unsigned long long>(c.seed), i,
                              mode.name),
                    queries[i].sql, &out);
      }
    }
  }

  {
    QueryEngine engine(*db, ConfigForMode(OptimizerMode::kCostBased));
    auto queries = GenerateMixedWorkload(300, 0.25, schema, /*seed=*/1);
    for (const auto& q : queries) {
      AppendEntry(engine, StrFormat("mixed s1 #%d", q.id), q.sql, &out);
    }
  }

  // Large join blocks, searched exhaustively with and without the §3.4.1
  // cost cut-off and with and without the join-order memo.
  const char* large_joins[] = {
      "SELECT e.employee_name, d.dept_name, l.city, jh.job_title, "
      "j.job_title, o.total "
      "FROM employees e, departments d, locations l, job_history jh, jobs j, "
      "orders o "
      "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
      "AND jh.emp_id = e.emp_id AND jh.job_id = j.job_id "
      "AND o.emp_id = e.emp_id "
      "AND o.order_id NOT IN (SELECT oi.order_id FROM order_items oi, "
      "products p, customers c WHERE oi.product_id = p.product_id AND "
      "c.cust_id = oi.order_id AND oi.quantity > 4) "
      "AND EXISTS (SELECT 1 FROM job_history j2, jobs jb, employees e2 WHERE "
      "j2.job_id = jb.job_id AND e2.emp_id = j2.emp_id AND "
      "j2.emp_id = jh.emp_id) "
      "AND NOT EXISTS (SELECT 1 FROM orders o2, customers c2, locations l2 "
      "WHERE o2.cust_id = c2.cust_id AND c2.country_id = l2.country_id AND "
      "l2.loc_id = d.loc_id AND o2.status = 'CANCELLED') "
      "AND l.country_id IN (SELECT c3.country_id FROM customers c3, "
      "orders o3, products p3 WHERE o3.cust_id = c3.cust_id AND "
      "p3.product_id = o3.order_id AND c3.segment = 'GOLD')",
      "SELECT e.employee_name, d.dept_name, l.city, jh.job_title, "
      "j.job_title, o.total, c.cust_name, oi.quantity, p.product_name, "
      "m.employee_name, d2.dept_name, l2.city "
      "FROM employees e, departments d, locations l, job_history jh, jobs j, "
      "orders o, customers c, order_items oi, products p, employees m, "
      "departments d2, locations l2 "
      "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
      "AND jh.emp_id = e.emp_id AND jh.job_id = j.job_id "
      "AND o.emp_id = e.emp_id AND o.cust_id = c.cust_id "
      "AND oi.order_id = o.order_id AND oi.product_id = p.product_id "
      "AND m.emp_id = e.mgr_id AND m.dept_id = d2.dept_id "
      "AND d2.loc_id = l2.loc_id AND c.segment = 'GOLD' "
      "AND e.salary > 100000",
  };
  for (bool cutoff : {true, false}) {
    for (bool memo : {true, false}) {
      CbqtConfig cfg = ConfigForMode(OptimizerMode::kCostBased);
      cfg.strategy_override = SearchStrategy::kExhaustive;
      cfg.cost_cutoff = cutoff;
      cfg.cow_clone = memo;
      cfg.reuse_join_orders = memo;
      QueryEngine engine(*db, cfg);
      for (size_t i = 0; i < std::size(large_joins); ++i) {
        AppendEntry(engine,
                    StrFormat("large-join #%zu cutoff=%d memo=%d", i,
                              cutoff ? 1 : 0, memo ? 1 : 0),
                    large_joins[i], &out);
      }
    }
  }

  Database fuzz_db;
  if (!BuildFuzzDatabase(&fuzz_db).ok()) {
    ADD_FAILURE() << "fuzz database failed to build";
    return out;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus")) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  QueryEngine fuzz_engine(fuzz_db, ConfigForMode(OptimizerMode::kCostBased));
  for (const auto& f : files) {
    AppendEntry(fuzz_engine, "fuzz_corpus " + f.filename().string(),
                ReadCorpusSql(f), &out);
  }
  return out;
}

TEST(PlanGoldenTest, PlansMatchCommittedGolden) {
  const std::string actual = RenderAllPlans();
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (actual == expected) return;

  std::ofstream("plans.actual.txt", std::ios::binary) << actual;
  std::vector<std::string> want = SplitGoldenEntries(expected);
  std::vector<std::string> got = SplitGoldenEntries(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "plans differ from " << kGoldenPath << " at entry " << i
                << " of " << want.size() << " (actual has " << got.size()
                << "); full actual output written to "
                << std::filesystem::absolute("plans.actual.txt")
                << "\n--- expected\n"
                << (i < want.size() ? want[i] : "<end>") << "--- actual\n"
                << (i < got.size() ? got[i] : "<end>");
}

}  // namespace
}  // namespace cbqt
