// Concurrency coverage for the parallel CBQT state evaluation: determinism
// of the chosen state/cost/plan across thread counts, search-level
// equivalence of the parallel exhaustive/linear strategies, a multi-thread
// stress of the sharded AnnotationCache with a memory tracker and
// concurrent shedding (meant to run under TSan — see ci.sh), and ThreadPool
// basics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/annotation_cache.h"
#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "cbqt/search.h"
#include "common/memory_tracker.h"
#include "common/sharded_lru.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 64);
  }
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Parallel search == serial search, at the RunSearch level
// ---------------------------------------------------------------------------

// Deterministic synthetic cost function with an interaction term, evaluated
// concurrently; thread-safe by construction (pure).
Result<double> SyntheticCost(const TransformState& s, double /*cutoff*/) {
  double cost = 1000;
  double gain = 3;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i]) cost -= gain * static_cast<double>((i % 5) + 1) - 4;
  }
  if (s.size() >= 2 && s[0] && s[1]) cost += 7;
  return cost;
}

TEST(ParallelSearch, ExhaustiveMatchesSerialExactly) {
  const int n = 8;
  auto serial = RunSearch(SearchStrategy::kExhaustive, n, SyntheticCost);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    SearchOptions options;
    options.pool = &pool;
    auto parallel =
        RunSearch(SearchStrategy::kExhaustive, n, SyntheticCost, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->best_state, serial->best_state) << threads;
    EXPECT_DOUBLE_EQ(parallel->best_cost, serial->best_cost);
    EXPECT_EQ(parallel->states_evaluated, serial->states_evaluated);
    EXPECT_GT(parallel->parallel_batches, 0);
  }
}

TEST(ParallelSearch, ExhaustiveTieBreaksOnLowerBitVector) {
  // Every state has the same cost: serial and parallel alike must keep the
  // zero state (the lowest bit vector).
  auto flat = [](const TransformState&, double) -> Result<double> {
    return 42.0;
  };
  ThreadPool pool(4);
  SearchOptions options;
  options.pool = &pool;
  auto r = RunSearch(SearchStrategy::kExhaustive, 6, flat, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->best_state, ZeroState(6));
  EXPECT_DOUBLE_EQ(r->best_cost, 42.0);
}

TEST(ParallelSearch, LinearMatchesSerialExactly) {
  const int n = 12;
  auto serial = RunSearch(SearchStrategy::kLinear, n, SyntheticCost);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->states_evaluated, n + 1);
  for (int threads : {2, 5}) {
    ThreadPool pool(threads);
    SearchOptions options;
    options.pool = &pool;
    auto parallel =
        RunSearch(SearchStrategy::kLinear, n, SyntheticCost, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->best_state, serial->best_state) << threads;
    EXPECT_DOUBLE_EQ(parallel->best_cost, serial->best_cost);
    // Consumed states match serial exactly; speculation is extra.
    EXPECT_EQ(parallel->states_evaluated, serial->states_evaluated);
  }
}

// Fault isolation: a hard error in a non-zero state no longer aborts the
// whole search. The failing states are counted and treated as infinite
// cost; the zero state (which always costs cleanly here) wins.
TEST(ParallelSearch, HardErrorInNonZeroStateIsolated) {
  auto eval = [](const TransformState& s, double) -> Result<double> {
    bool any = false;
    for (bool b : s) any |= b;
    if (any) return Status::Internal("boom");
    return 10.0;
  };
  ThreadPool pool(4);
  SearchOptions options;
  options.pool = &pool;
  auto r = RunSearch(SearchStrategy::kExhaustive, 4, eval, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->best_state, TransformState(4, false));
  EXPECT_DOUBLE_EQ(r->best_cost, 10.0);
  EXPECT_EQ(r->failed_states, 15);  // all 2^4 - 1 non-zero states failed
  EXPECT_EQ(r->states_evaluated, 16);

  // Serial path isolates identically.
  auto serial = RunSearch(SearchStrategy::kExhaustive, 4, eval);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->best_state, r->best_state);
  EXPECT_EQ(serial->failed_states, 15);
}

// ---------------------------------------------------------------------------
// End-to-end determinism across num_threads, paper queries
// ---------------------------------------------------------------------------

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

// The paper queries exercised by test_paper_queries.cc that drive the
// cost-based search hardest (multiple unnestable subqueries, view merging,
// JPPD juxtaposition, factorization).
const char* kDeterminismQueries[] = {
    // Q1: two independently unnestable subqueries.
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history "
    "j WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' AND "
    "e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE "
    "e2.dept_id = e1.dept_id) AND e1.dept_id IN (SELECT d.dept_id FROM "
    "departments d, locations l WHERE d.loc_id = l.loc_id AND "
    "l.country_id = 'US')",
    // Q10/Q11: group-by view merging.
    "SELECT e1.employee_name, v.avg_sal FROM employees e1, (SELECT "
    "AVG(e2.salary) AS avg_sal, e2.dept_id AS dept_id FROM employees e2 "
    "GROUP BY e2.dept_id) v WHERE e1.dept_id = v.dept_id AND e1.salary > "
    "v.avg_sal",
    // Q12/Q13/Q18: DISTINCT view vs JPPD vs merge juxtaposition.
    "SELECT e1.employee_name, e1.salary FROM employees e1, (SELECT "
    "DISTINCT j.emp_id AS emp_id FROM job_history j WHERE j.start_date > "
    "'19980101') v WHERE v.emp_id = e1.emp_id AND e1.salary > 90000",
    // Q14/Q15: join factorization across UNION ALL.
    "SELECT j.job_title, d.dept_name FROM job_history j, departments d "
    "WHERE j.dept_id = d.dept_id AND d.loc_id = 2 UNION ALL SELECT "
    "j.job_title, d.dept_name FROM job_history j, departments d WHERE "
    "j.dept_id = d.dept_id AND d.budget > 500000",
    // §4.4 Table-2 shape: four unnestable subqueries (exhaustive = 16).
    "SELECT e.employee_name FROM employees e, departments d, locations l "
    "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
    "AND e.emp_id NOT IN (SELECT o.emp_id FROM orders o, customers c, "
    "products p WHERE o.cust_id = c.cust_id AND p.product_id = o.order_id "
    "AND o.total > 100) "
    "AND EXISTS (SELECT 1 FROM job_history j, jobs jb, employees e2 WHERE "
    "j.job_id = jb.job_id AND e2.emp_id = j.emp_id AND j.emp_id = e.emp_id) "
    "AND NOT EXISTS (SELECT 1 FROM orders o2, customers c2, locations l2 "
    "WHERE o2.cust_id = c2.cust_id AND c2.country_id = l2.country_id AND "
    "o2.emp_id = e.emp_id AND o2.status = 'CANCELLED') "
    "AND e.dept_id IN (SELECT d2.dept_id FROM departments d2, locations l3, "
    "jobs jb2 WHERE d2.loc_id = l3.loc_id AND jb2.job_id = d2.dept_id AND "
    "l3.country_id = 'US')",
};

// num_threads in {1, 2, 8} must produce bit-identical chosen state
// (recorded in stats.applied), cost, and plan shape.
TEST_F(ParallelDeterminismTest, ThreadCountsAgreeOnPaperQueries) {
  for (SearchStrategy strategy :
       {SearchStrategy::kExhaustive, SearchStrategy::kLinear}) {
    for (const char* sql : kDeterminismQueries) {
      CbqtConfig serial_cfg;
      serial_cfg.strategy_override = strategy;
      QueryEngine serial_engine(*db_, serial_cfg);
      auto reference = serial_engine.Prepare(sql);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      std::string ref_shape = PlanShape(*reference->plan);

      for (int threads : {2, 8}) {
        CbqtConfig cfg = serial_cfg;
        cfg.num_threads = threads;
        QueryEngine engine(*db_, cfg);
        auto r = engine.Prepare(sql);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->stats.applied, reference->stats.applied)
            << "strategy=" << SearchStrategyName(strategy)
            << " threads=" << threads << "\n" << sql;
        EXPECT_DOUBLE_EQ(r->cost, reference->cost)
            << "threads=" << threads << "\n" << sql;
        EXPECT_EQ(PlanShape(*r->plan), ref_shape)
            << "threads=" << threads << "\n" << sql;
        EXPECT_EQ(r->stats.threads_used, threads);
        EXPECT_EQ(r->stats.states_evaluated, reference->stats.states_evaluated)
            << "threads=" << threads << "\n" << sql;
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, AutomaticStrategySelectionAlsoAgrees) {
  // No strategy override: the framework picks per-transformation strategies.
  for (const char* sql : kDeterminismQueries) {
    QueryEngine serial_engine(*db_, CbqtConfig{});
    auto reference = serial_engine.Prepare(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    CbqtConfig cfg;
    cfg.num_threads = 8;
    QueryEngine engine(*db_, cfg);
    auto r = engine.Prepare(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.applied, reference->stats.applied) << sql;
    EXPECT_DOUBLE_EQ(r->cost, reference->cost) << sql;
    EXPECT_EQ(PlanShape(*r->plan), PlanShape(*reference->plan)) << sql;
  }
}

TEST_F(ParallelDeterminismTest, ParallelRunsExecuteToIdenticalRows) {
  WorkloadRunner runner(*db_);
  for (const char* sql : kDeterminismQueries) {
    CbqtConfig serial_cfg;
    auto reference = runner.RunToSortedRows(sql, serial_cfg);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    CbqtConfig cfg;
    cfg.num_threads = 4;
    auto rows = runner.RunToSortedRows(sql, cfg);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), reference->size()) << sql;
    for (size_t i = 0; i < rows->size(); ++i) {
      ASSERT_TRUE(RowsEqualStructural((*rows)[i], (*reference)[i]))
          << "row " << i << "\n" << sql;
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded AnnotationCache under concurrency (run under TSan via ci.sh)
// ---------------------------------------------------------------------------

CostAnnotation MakeAnnotation(double cost) {
  CostAnnotation ann;
  ann.cost = cost;
  ann.rows = cost * 2;
  auto plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
  plan->est_cost = cost;
  ann.plan = std::move(plan);
  return ann;
}

TEST(ShardedLruMapConcurrency, ParallelPutFindClearEvictStress) {
  // The map behind the annotation cache and the plan cache. Tracked, so
  // every Put, replacement, eviction, EvictBytes and Clear moves bytes in
  // the tracker while the others run.
  MemoryTracker tracker("stress", 0);
  ShardedLruMap<CostAnnotation> cache(AnnotationCache::kDefaultShards,
                                      AnnotationCache::kDefaultCapacity,
                                      &tracker);
  const int kThreads = 8;
  const int kOpsPerThread = 2000;
  const int kKeySpace = 64;
  std::vector<std::thread> workers;
  std::atomic<int64_t> found{0};
  std::atomic<bool> done{false};
  std::atomic<int64_t> shed{0};
  std::thread evictor([&] {
    // Runs until the workers are done and it has shed something.
    while (!done.load() || shed.load() == 0) {
      shed.fetch_add(cache.EvictBytes(512));
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "sig-" + std::to_string((i * 7 + t) % kKeySpace);
        if (i % 3 == 0) {
          cache.Put(key,
                    std::make_shared<const CostAnnotation>(
                        MakeAnnotation(static_cast<double>(i % 97))),
                    /*bytes=*/64 + i % 97);
        } else {
          auto hit = cache.Find(key);
          if (hit != nullptr) {
            // The entry must stay fully readable even if concurrently
            // replaced: shared_ptr keeps it alive, plan stays cloneable.
            found.fetch_add(1);
            auto clone = hit->plan->Clone();
            ASSERT_NE(clone, nullptr);
            ASSERT_DOUBLE_EQ(hit->rows, hit->cost * 2);
          }
        }
        if (t == 0 && i % 512 == 511) cache.Clear();
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true);
  evictor.join();
  EXPECT_GT(found.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeySpace));
  EXPECT_EQ(cache.memory_bytes(), tracker.used_bytes());
  cache.Clear();
  EXPECT_EQ(cache.memory_bytes(), 0);
  EXPECT_EQ(tracker.used_bytes(), 0);
}

TEST(AnnotationCacheConcurrency, HitsAndMissesAreCounted) {
  AnnotationCache cache;
  const int kThreads = 4;
  const int kOps = 500;
  cache.Put("shared", MakeAnnotation(1));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        ASSERT_NE(cache.Find("shared"), nullptr);
        ASSERT_EQ(cache.Find("absent"), nullptr);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.hits(), kThreads * kOps);
  EXPECT_EQ(cache.misses(), kThreads * kOps);
}

// Whole-pipeline hammer: many threads optimizing concurrently against the
// same database through independent engines plus one shared parallel engine.
TEST_F(ParallelDeterminismTest, ConcurrentEnginesShareNothingUnsafe) {
  CbqtConfig cfg;
  cfg.num_threads = 2;
  QueryEngine shared_engine(*db_, cfg);
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      const char* sql = kDeterminismQueries[t % 4];
      auto r = shared_engine.Prepare(sql);
      if (!r.ok()) failures.fetch_add(1);
      QueryEngine own(*db_, CbqtConfig{});
      auto r2 = own.Prepare(sql);
      if (!r2.ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace cbqt
