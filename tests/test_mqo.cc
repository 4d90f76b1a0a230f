// Multi-query optimization tests: the engine-level invariants of the
// engine-wide optimizer caches — they never change a plan or a row, they
// persist across queries, engine memory pressure sheds them before it fails
// a query, and concurrent sessions over one engine stay correct (the TSan
// leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/result_compare.h"
#include "fuzz/harness.h"
#include "parser/parser.h"
#include "sql/expr_util.h"
#include "sql/unparser.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

CbqtConfig MqoOn() {
  CbqtConfig cfg;
  cfg.mqo.enabled = true;
  return cfg;
}

// Two identical single-table branches in one plan.
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

std::vector<Row> SortedRows(const QueryEngine& engine,
                            const std::string& sql) {
  auto result = engine.Run(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
  if (!result.ok()) return {};
  SortRowsCanonical(&result->rows);
  return std::move(result->rows);
}

TEST(Mqo, IdenticalUnionBranchesAreRowIdentical) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  QueryEngine on(*db, MqoOn());
  ASSERT_TRUE(on.mqo_enabled());

  EXPECT_EQ(SortedRows(on, kUnionSql), SortedRows(off, kUnionSql));
}

TEST(Mqo, RowIdentityAcrossBatchSizes) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  for (int batch_size : {1, 7, 1024}) {
    CbqtConfig cfg = MqoOn();
    cfg.exec.batch_size = batch_size;
    QueryEngine on(*db, cfg);
    for (const char* sql : {kUnionSql, kJoinSql, kAggSql}) {
      EXPECT_EQ(SortedRows(on, sql), SortedRows(off, sql))
          << "batch_size=" << batch_size << "\n" << sql;
    }
  }
}

TEST(Mqo, SharedCachesSurviveAcrossQueries) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine on(*db, MqoOn());
  // The engine-wide annotation cache persists across serial queries, so
  // the repeat optimizes against warm entries.
  EXPECT_FALSE(SortedRows(on, kJoinSql).empty());
  int64_t first_hits = on.mqo_stats().shared_subplan_hits;
  EXPECT_FALSE(SortedRows(on, kJoinSql).empty());
  EXPECT_GT(on.mqo_stats().shared_subplan_hits, first_hits);
}

// ---------------------------------------------------------------------------
// Engine memory pressure sheds the MQO caches
// ---------------------------------------------------------------------------

/// Distinct statements whose optimizations fill the MQO caches.
std::vector<std::string> WarmupStatements() {
  std::vector<std::string> out;
  for (const auto& q : GenerateMixedWorkload(60, 0.3, SmallHrSchema(), 7)) {
    out.push_back(q.sql);
  }
  return out;
}

/// A statement whose sort buffers every employee row in memory.
const char* kSortSql =
    "SELECT e.emp_id, e.employee_name, e.salary FROM employees e "
    "ORDER BY e.salary, e.emp_id";

CbqtConfig MqoWithEngineBudget(int64_t engine_memory_bytes) {
  CbqtConfig cfg = MqoOn();
  cfg.guardrails.engine_memory_bytes = engine_memory_bytes;
  // A breaker that cannot reserve fails the query instead of spilling, so a
  // reservation that does not fit shows as a failed statement.
  cfg.exec.enable_spill = false;
  return cfg;
}

TEST(Mqo, EngineMemoryPressureShedsTheMqoCaches) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  std::vector<std::string> warmup = WarmupStatements();

  // Calibration under an ample budget: how much the warm caches and the
  // warm-up hold at their peak, and what the sort reserves on its own.
  int64_t warm_cache_bytes = 0;
  int64_t warm_engine_peak = 0;
  int64_t sort_peak = 0;
  {
    QueryEngine probe(*db, MqoWithEngineBudget(int64_t{1} << 30));
    for (const auto& sql : warmup) ASSERT_TRUE(probe.Run(sql).ok()) << sql;
    warm_cache_bytes = probe.mqo_stats().cache_memory_bytes;
    warm_engine_peak = probe.guardrail_stats().engine_peak_bytes;
    auto sorted = probe.Run(kSortSql);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    sort_peak = sorted->peak_memory_bytes;
  }
  // The budget admits every warm-up statement and the sort alone, but not
  // the sort on top of the warm caches.
  const int64_t budget = std::max(warm_engine_peak, sort_peak) + 4096;
  ASSERT_GT(sort_peak, 0);
  ASSERT_GT(warm_cache_bytes + sort_peak, budget)
      << "the warm caches are too small to crowd out the sort";

  QueryEngine engine(*db, MqoWithEngineBudget(budget));
  for (const auto& sql : warmup) ASSERT_TRUE(engine.Run(sql).ok()) << sql;
  const int64_t cache_before = engine.mqo_stats().cache_memory_bytes;
  ASSERT_EQ(cache_before, warm_cache_bytes);

  auto sorted = engine.Run(kSortSql);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_LT(engine.mqo_stats().cache_memory_bytes, cache_before);
  EXPECT_EQ(engine.guardrail_stats().memory_victims, 0);
  QueryEngine off(*db, CbqtConfig{});
  EXPECT_EQ(SortedRows(engine, kSortSql), SortedRows(off, kSortSql));
}

// ---------------------------------------------------------------------------
// Concurrent sessions over the engine-wide caches (the TSan leg)
// ---------------------------------------------------------------------------

TEST(Mqo, TwoConcurrentRoundsStayCorrect) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  std::vector<std::string> sqls = {kUnionSql, kJoinSql, kAggSql};
  std::vector<std::vector<Row>> expected;
  for (const auto& sql : sqls) expected.push_back(SortedRows(off, sql));

  QueryEngine on(*db, MqoOn());
  std::atomic<bool> mismatch{false};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (size_t q = 0; q < sqls.size(); ++q) {
          auto result = on.Run(sqls[(q + static_cast<size_t>(t)) % sqls.size()]);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          SortRowsCanonical(&result->rows);
          if (result->rows !=
              expected[(q + static_cast<size_t>(t)) % sqls.size()]) {
            mismatch = true;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_FALSE(mismatch);
  EXPECT_GT(on.mqo_stats().shared_subplan_hits, 0);
}

// ---------------------------------------------------------------------------
// MQO never changes a plan
// ---------------------------------------------------------------------------

/// Spellings of `sql` that differ only in orderings SQL leaves free: every
/// block's WHERE/HAVING conjuncts reversed, every comparison's operands
/// swapped, and every all-inner comma-join FROM list reversed.
std::vector<std::string> OrderVariants(const std::string& sql) {
  std::vector<std::string> out;
  auto add = [&](const std::function<void(QueryBlock*)>& mutate) {
    auto parsed = ParseSql(sql);
    if (!parsed.ok()) return;
    mutate(parsed->get());
    std::string text = BlockToSql(**parsed);
    if (text != sql) out.push_back(std::move(text));
  };
  add([](QueryBlock* root) {
    VisitAllBlocks(root, [](QueryBlock* qb) {
      std::reverse(qb->where.begin(), qb->where.end());
      std::reverse(qb->having.begin(), qb->having.end());
    });
  });
  add([](QueryBlock* root) {
    VisitAllExprs(root, [](Expr* e) {
      if (e->kind == ExprKind::kBinary && IsComparisonOp(e->bop) &&
          e->children.size() == 2) {
        e->bop = SwapComparison(e->bop);
        std::swap(e->children[0], e->children[1]);
      }
    });
  });
  add([](QueryBlock* root) {
    VisitAllBlocks(root, [](QueryBlock* qb) {
      for (const auto& tr : qb->from) {
        if (tr.join != JoinKind::kInner || !tr.join_conds.empty() ||
            tr.lateral) {
          return;
        }
      }
      std::reverse(qb->from.begin(), qb->from.end());
    });
  });
  return out;
}

/// Prepares every statement of `sqls`, in order, on an MQO-on engine (its
/// engine-wide annotation cache and join memo warm across the statements)
/// and on an MQO-off engine, and expects the same plan for each. Returns
/// how many statements prepared.
int ExpectSamePlans(const Database& db, const std::vector<std::string>& sqls) {
  QueryEngine on(db, MqoOn());
  QueryEngine off(db, CbqtConfig{});
  int prepared = 0;
  for (const std::string& sql : sqls) {
    auto shared = on.Prepare(sql);
    auto solo = off.Prepare(sql);
    EXPECT_EQ(shared.ok(), solo.ok()) << sql;
    if (!shared.ok() || !solo.ok()) continue;
    EXPECT_EQ(PlanToString(*shared->plan), PlanToString(*solo->plan)) << sql;
    ++prepared;
  }
  EXPECT_GT(on.mqo_stats().shared_subplan_hits, 0);
  return prepared;
}

std::vector<std::string> WithOrderVariants(
    const std::vector<std::string>& bases) {
  std::vector<std::string> out;
  for (const std::string& base : bases) {
    out.push_back(base);
    for (std::string& v : OrderVariants(base)) out.push_back(std::move(v));
  }
  return out;
}

TEST(Mqo, SharedCachesNeverChangeAPlanOnTheMixedWorkload) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  std::vector<std::string> bases;
  for (const auto& q : GenerateMixedWorkload(200, 0.3, SmallHrSchema(), 1)) {
    bases.push_back(q.sql);
  }
  std::vector<std::string> sqls = WithOrderVariants(bases);
  ASSERT_GT(sqls.size(), bases.size());
  EXPECT_GE(ExpectSamePlans(*db, sqls), static_cast<int>(bases.size()));
}

TEST(Mqo, SharedCachesNeverChangeAPlanOnTheFuzzCorpus) {
  Database db;
  ASSERT_TRUE(BuildFuzzDatabase(&db).ok());
  std::filesystem::path dir =
      std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> bases;
  for (const auto& f : files) bases.push_back(ReadCorpusSql(f));
  ASSERT_FALSE(bases.empty());
  EXPECT_GE(ExpectSamePlans(db, WithOrderVariants(bases)),
            static_cast<int>(bases.size()));
}

// ---------------------------------------------------------------------------
// Runner integration: the concurrent-sessions measurement axis
// ---------------------------------------------------------------------------

TEST(Mqo, RunAllConcurrentMergesInInputOrder) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  WorkloadRunner runner(*db);
  std::vector<WorkloadQuery> queries;
  for (int i = 0; i < 12; ++i) {
    WorkloadQuery q;
    q.id = i;
    q.sql = (i % 2 == 0) ? kUnionSql : kJoinSql;
    queries.push_back(q);
  }
  WorkloadRunReport report = runner.RunAllConcurrent(queries, MqoOn(), 4);
  EXPECT_EQ(report.attempted, 12);
  EXPECT_EQ(report.succeeded, 12);
  EXPECT_EQ(report.untyped_failures(), 0);
  EXPECT_EQ(report.measurements.size(), 12u);
  EXPECT_GT(report.mqo.shared_subplan_hits, 0);

  // sessions <= 1 degenerates to the serial path with identical counting.
  WorkloadRunReport serial = runner.RunAllConcurrent(queries, MqoOn(), 1);
  EXPECT_EQ(serial.succeeded, 12);
}

}  // namespace
}  // namespace cbqt
