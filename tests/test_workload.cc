#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cbqt/engine.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
    schema_.locations = 10;
    schema_.departments = 20;
    schema_.employees = 500;
    schema_.customers = 100;
    schema_.orders = 600;
    schema_.products = 50;
    schema_.accounts = 10;
  }
  std::unique_ptr<Database> db_;
  SchemaConfig schema_;
};

// Two identical single-table branches in one plan, a join and a grouped
// aggregate: the statements the concurrent-session tests run.
const char* kUnionSql =
    "SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 30000 "
    "UNION ALL "
    "SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 30000";

const char* kJoinSql =
    "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND e.salary > 40000";

const char* kAggSql =
    "SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e "
    "WHERE e.salary > 20000 GROUP BY e.dept_id";

TEST_F(WorkloadTest, SchemaBuildsAllTables) {
  for (const char* name :
       {"locations", "departments", "employees", "job_history", "jobs",
        "customers", "orders", "order_items", "products", "accounts"}) {
    const Table* t = db_->FindTable(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_GT(t->NumRows(), 0u) << name;
    EXPECT_NE(db_->stats().Find(name), nullptr) << name;
  }
}

TEST_F(WorkloadTest, IndexOnCorrelationsToggle) {
  auto without = MakeSmallHrDb(/*index_on_correlations=*/false);
  ASSERT_NE(without, nullptr);
  EXPECT_NE(db_->FindIndex("employees", "emp_dept_idx"), nullptr);
  EXPECT_EQ(without->FindIndex("employees", "emp_dept_idx"), nullptr);
}

TEST_F(WorkloadTest, GenerationIsDeterministic) {
  auto a = GenerateFamily(QueryFamily::kAggSubquery, 5, schema_, 42);
  auto b = GenerateFamily(QueryFamily::kAggSubquery, 5, schema_, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].sql, b[i].sql);
  auto c = GenerateFamily(QueryFamily::kAggSubquery, 5, schema_, 43);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].sql != c[i].sql) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(WorkloadTest, ShardedGenerationMatchesMonolith) {
  // Same seed must reproduce byte-identical SQL across runs, and slicing the
  // workload into arbitrary shards must reproduce the monolithic sequence
  // exactly — the property distributed benchmark drivers rely on.
  auto mono = GenerateMixedWorkload(24, 0.25, schema_, 99);
  auto again = GenerateMixedWorkload(24, 0.25, schema_, 99);
  ASSERT_EQ(mono.size(), 24u);
  ASSERT_EQ(again.size(), mono.size());
  for (size_t i = 0; i < mono.size(); ++i) {
    EXPECT_EQ(mono[i].sql, again[i].sql) << i;
  }

  std::vector<WorkloadQuery> stitched;
  for (auto [first, count] :
       {std::pair<int, int>{0, 5}, {5, 1}, {6, 11}, {17, 7}}) {
    auto shard = GenerateMixedWorkloadShard(first, count, 0.25, schema_, 99);
    ASSERT_EQ(shard.size(), static_cast<size_t>(count)) << first;
    stitched.insert(stitched.end(), shard.begin(), shard.end());
  }
  ASSERT_EQ(stitched.size(), mono.size());
  for (size_t i = 0; i < mono.size(); ++i) {
    EXPECT_EQ(stitched[i].id, mono[i].id) << i;
    EXPECT_EQ(stitched[i].family, mono[i].family) << i;
    EXPECT_EQ(stitched[i].sql, mono[i].sql) << i;
  }
}

TEST_F(WorkloadTest, AllFamiliesParseBindAndRun) {
  WorkloadRunner runner(*db_);
  for (QueryFamily f :
       {QueryFamily::kSpj, QueryFamily::kAggSubquery,
        QueryFamily::kSemiSubquery, QueryFamily::kGbView,
        QueryFamily::kDistinctView, QueryFamily::kUnionView, QueryFamily::kGbp,
        QueryFamily::kFactorization, QueryFamily::kPullup, QueryFamily::kSetOp,
        QueryFamily::kOrExpansion, QueryFamily::kWindowView}) {
    for (const auto& q : GenerateFamily(f, 4, schema_, 7)) {
      auto m = runner.Run(q.sql, ConfigForMode(OptimizerMode::kCostBased));
      ASSERT_TRUE(m.ok()) << QueryFamilyName(f) << ": "
                          << m.status().ToString() << "\n" << q.sql;
    }
  }
}

TEST_F(WorkloadTest, MixedWorkloadShape) {
  auto queries = GenerateMixedWorkload(400, 0.08, schema_, 5);
  ASSERT_EQ(queries.size(), 400u);
  int transformable = 0;
  for (const auto& q : queries) {
    if (q.family != QueryFamily::kSpj) ++transformable;
  }
  // ~8% like the paper's workload.
  EXPECT_GT(transformable, 10);
  EXPECT_LT(transformable, 80);
}

TEST_F(WorkloadTest, ModesConfigureFramework) {
  EXPECT_FALSE(ConfigForMode(OptimizerMode::kHeuristicOnly).cost_based);
  EXPECT_FALSE(ConfigForMode(OptimizerMode::kUnnestOff)
                   .transforms.enabled(Transform::kUnnest));
  EXPECT_FALSE(ConfigForMode(OptimizerMode::kJppdOff)
                   .transforms.enabled(Transform::kJppd));
  EXPECT_FALSE(ConfigForMode(OptimizerMode::kGbpOff)
                   .transforms.enabled(Transform::kGroupByPlacement));
  EXPECT_TRUE(ConfigForMode(OptimizerMode::kCostBased).cost_based);
}

TEST_F(WorkloadTest, RunnerMeasuresAndExecutes) {
  WorkloadRunner runner(*db_);
  auto m = runner.Run("SELECT e.employee_name FROM employees e",
                      ConfigForMode(OptimizerMode::kCostBased));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->result_rows, 500u);
  EXPECT_GT(m->rows_processed, 0);
  EXPECT_GE(m->opt_ms, 0);
  EXPECT_FALSE(m->plan_shape.empty());
}

TEST_F(WorkloadTest, RunAllIsolatesPerQueryFailures) {
  // One malformed query in the middle of a batch must not abort the rest.
  std::vector<WorkloadQuery> queries;
  WorkloadQuery good1;
  good1.id = 1;
  good1.sql = "SELECT e.employee_name FROM employees e";
  WorkloadQuery bad;
  bad.id = 2;
  bad.sql = "SELECT nope.nothing FROM no_such_table nope";
  WorkloadQuery good2;
  good2.id = 3;
  good2.sql = "SELECT d.dept_name FROM departments d";
  queries = {good1, bad, good2};

  WorkloadRunner runner(*db_);
  auto report =
      runner.RunAll(queries, ConfigForMode(OptimizerMode::kCostBased));
  EXPECT_EQ(report.attempted, 3);
  EXPECT_EQ(report.succeeded, 2);
  EXPECT_EQ(report.failed, 1);
  ASSERT_EQ(report.measurements.size(), 2u);
  EXPECT_EQ(report.measurements[0].result_rows, 500u);
  ASSERT_EQ(report.error_messages.size(), 1u);
  EXPECT_NE(report.error_messages[0].find("query 2"), std::string::npos);
  EXPECT_NE(report.ErrorSummary().find("1 of 3 queries failed"),
            std::string::npos);

  // All-good batch: empty summary.
  auto clean = runner.RunAll({good1, good2},
                             ConfigForMode(OptimizerMode::kCostBased));
  EXPECT_EQ(clean.failed, 0);
  EXPECT_TRUE(clean.ErrorSummary().empty());
}

TEST_F(WorkloadTest, OltpWorkloadShapeAndSharding) {
  auto queries = GenerateOltpWorkload(200, schema_, 11);
  ASSERT_EQ(queries.size(), 200u);
  int lookups = 0;
  for (const auto& q : queries) {
    ASSERT_TRUE(q.family == QueryFamily::kPointLookup ||
                q.family == QueryFamily::kShortJoin)
        << QueryFamilyName(q.family);
    if (q.family == QueryFamily::kPointLookup) ++lookups;
  }
  // ~70% point lookups.
  EXPECT_GT(lookups, 110);
  EXPECT_LT(lookups, 170);
  // Shards concatenate to the monolith byte-for-byte.
  auto a = GenerateOltpWorkloadShard(0, 80, schema_, 11);
  auto b = GenerateOltpWorkloadShard(80, 120, schema_, 11);
  a.insert(a.end(), b.begin(), b.end());
  ASSERT_EQ(a.size(), queries.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sql, queries[i].sql) << "query " << i;
  }
}

TEST_F(WorkloadTest, OltpQueriesParseBindAndRun) {
  auto oltp_db = MakeSmallHrDb();
  ASSERT_NE(oltp_db, nullptr);
  WorkloadRunner runner(*oltp_db);
  for (const auto& q : GenerateOltpWorkload(12, schema_, 3)) {
    auto m = runner.Run(q.sql, ConfigForMode(OptimizerMode::kCostBased));
    ASSERT_TRUE(m.ok()) << QueryFamilyName(q.family) << ": "
                        << m.status().ToString() << "\n"
                        << q.sql;
  }
}

TEST_F(WorkloadTest, TenantWorkloadMixesOltpAndAnalytic) {
  auto queries = GenerateTenantWorkload(300, 0.8, 0.08, schema_, 13);
  ASSERT_EQ(queries.size(), 300u);
  int oltp = 0;
  for (const auto& q : queries) {
    if (q.family == QueryFamily::kPointLookup ||
        q.family == QueryFamily::kShortJoin) {
      ++oltp;
    }
  }
  EXPECT_GT(oltp, 200);
  EXPECT_LT(oltp, 280);
}

TEST_F(WorkloadTest, RunTenantsReportsPerTenantDigests) {
  // Generous capacity: everything succeeds; the report carries one digest
  // per tenant session with sane latencies and throughput.
  CbqtConfig cfg = ConfigForMode(OptimizerMode::kCostBased);
  cfg.guardrails.scheduler.enabled = true;
  cfg.guardrails.scheduler.max_concurrent = 4;
  cfg.guardrails.scheduler.queue_timeout_ms = 10000;
  cfg.guardrails.scheduler.tenants = {
      TenantSpec{"alpha", /*weight=*/2, /*priority=*/0},
      TenantSpec{"beta", /*weight=*/1, /*priority=*/1}};

  WorkloadRunner runner(*db_);
  WorkloadRunner::TenantSession alpha;
  alpha.tenant = "alpha";
  alpha.queries = GenerateOltpWorkload(12, schema_, 21);
  alpha.sessions = 2;
  WorkloadRunner::TenantSession beta;
  beta.tenant = "beta";
  beta.queries = GenerateOltpWorkload(8, schema_, 22);
  beta.sessions = 2;

  auto report = runner.RunTenants({alpha, beta}, cfg);
  EXPECT_EQ(report.attempted, 20);
  EXPECT_EQ(report.failed, 0) << report.ErrorSummary();
  EXPECT_EQ(report.untyped_failures(), 0);
  ASSERT_EQ(report.per_tenant.size(), 2u);
  EXPECT_EQ(report.per_tenant[0].tenant, "alpha");
  EXPECT_EQ(report.per_tenant[0].attempted, 12);
  EXPECT_EQ(report.per_tenant[0].succeeded, 12);
  EXPECT_EQ(report.per_tenant[1].tenant, "beta");
  EXPECT_EQ(report.per_tenant[1].succeeded, 8);
  for (const auto& t : report.per_tenant) {
    EXPECT_GT(t.p50_ms, 0);
    EXPECT_GE(t.p99_ms, t.p50_ms);
    EXPECT_GE(t.max_ms, t.p99_ms);
    EXPECT_GT(t.qps, 0);
  }
}

TEST_F(WorkloadTest, TenantThrottlingIsTypedNeverUntyped) {
  // A deliberately saturated scheduler (one slot, one queue entry, no
  // retries) turns excess arrivals away — every such failure must land in
  // the typed tenant_throttled bucket, leaving untyped_failures() at zero.
  CbqtConfig cfg = ConfigForMode(OptimizerMode::kCostBased);
  cfg.guardrails.scheduler.enabled = true;
  cfg.guardrails.scheduler.max_concurrent = 1;
  cfg.guardrails.scheduler.queue_timeout_ms = 5;
  TenantSpec noisy;
  noisy.name = "noisy";
  noisy.max_queued = 1;
  cfg.guardrails.scheduler.tenants = {noisy};

  WorkloadRunner runner(*db_);
  WorkloadRunner::TenantSession flood;
  flood.tenant = "noisy";
  // Analytic queries hold the single slot long enough that concurrent
  // arrivals pile onto the one-deep queue and bounce.
  flood.queries = GenerateMixedWorkload(24, 0.5, schema_, 31);
  flood.sessions = 6;
  flood.max_retries = 0;

  auto report = runner.RunTenants({flood}, cfg);
  EXPECT_EQ(report.attempted, 24);
  EXPECT_EQ(report.untyped_failures(), 0) << report.ErrorSummary();
  EXPECT_EQ(report.failed, report.tenant_throttled);
  EXPECT_GT(report.tenant_throttled, 0)
      << "six sessions on a one-slot, one-queue scheduler never throttled";
  ASSERT_EQ(report.per_tenant.size(), 1u);
  EXPECT_EQ(report.per_tenant[0].gave_up_throttled, report.tenant_throttled);
  EXPECT_EQ(report.per_tenant[0].succeeded + report.per_tenant[0].failed,
            report.per_tenant[0].attempted);
}

// Concurrent sessions over one engine (the TSan leg): 4 threads, 2 rounds,
// every result equal to a serial run's rows.
TEST_F(WorkloadTest, ConcurrentSessionsStayCorrect) {
  const std::vector<std::string> sqls = {kUnionSql, kJoinSql, kAggSql};
  std::vector<std::vector<Row>> expected;
  QueryEngine serial(*db_);
  for (const auto& sql : sqls) {
    auto result = serial.Run(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    SortRowsCanonical(&result->rows);
    expected.push_back(std::move(result->rows));
  }

  QueryEngine engine(*db_);
  std::atomic<bool> mismatch{false};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (size_t q = 0; q < sqls.size(); ++q) {
          const size_t i = (q + static_cast<size_t>(t)) % sqls.size();
          auto result = engine.Run(sqls[i]);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          SortRowsCanonical(&result->rows);
          if (result->rows != expected[i]) mismatch = true;
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_FALSE(mismatch);
}

TEST_F(WorkloadTest, RunAllConcurrentMergesInInputOrder) {
  WorkloadRunner runner(*db_);
  std::vector<WorkloadQuery> queries;
  for (int i = 0; i < 12; ++i) {
    WorkloadQuery q;
    q.id = i;
    q.sql = (i % 2 == 0) ? kUnionSql : kJoinSql;
    queries.push_back(q);
  }
  WorkloadRunReport report = runner.RunAllConcurrent(queries, CbqtConfig{}, 4);
  EXPECT_EQ(report.attempted, 12);
  EXPECT_EQ(report.succeeded, 12);
  EXPECT_EQ(report.untyped_failures(), 0);
  EXPECT_EQ(report.measurements.size(), 12u);

  // sessions <= 1 degenerates to the serial path with identical counting,
  // and the merged measurements line up with the serial ones by input index.
  WorkloadRunReport serial = runner.RunAllConcurrent(queries, CbqtConfig{}, 1);
  EXPECT_EQ(serial.succeeded, 12);
  ASSERT_EQ(serial.measurements.size(), report.measurements.size());
  ASSERT_NE(serial.measurements[0].result_rows,
            serial.measurements[1].result_rows);
  for (size_t i = 0; i < report.measurements.size(); ++i) {
    EXPECT_EQ(report.measurements[i].result_rows,
              serial.measurements[i].result_rows)
        << i;
  }
}

TEST_F(WorkloadTest, SortRowsCanonicalIsTotal) {
  std::vector<Row> rows = {
      {Value::Int(2)}, {Value::Null()}, {Value::Int(1)}, {Value::Str("x")}};
  SortRowsCanonical(&rows);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[1][0].AsInt(), 2);
  EXPECT_TRUE(rows[3][0].is_null());
}

}  // namespace
}  // namespace cbqt
