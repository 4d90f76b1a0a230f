// Cooperative-cancellation tests: a tripped token must fail the query with
// kCancelled within one polling quantum — before admission, mid-search
// (serial and parallel), and mid-execution — and a cancelled optimization
// must never leak a partial result into the plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "tests/test_util.h"

namespace cbqt {
namespace {

// Two subqueries -> exhaustive 4-state unnest search (same query as the
// fault-injection tests): plenty of per-state polling quanta to land a
// cancel in, and hundreds of executor row polls afterwards.
const char* kTwoSubquerySql =
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history "
    "j WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' AND "
    "e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE "
    "e2.dept_id = e1.dept_id) AND e1.dept_id IN (SELECT d.dept_id FROM "
    "departments d, locations l WHERE d.loc_id = l.loc_id AND "
    "l.country_id = 'US')";

CbqtConfig UnnestOnlyConfig() {
  CbqtConfig cfg;
  cfg.transforms = TransformMask::Only({Transform::kUnnest});
  cfg.interleave_view_merge = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// CancellationToken unit behavior
// ---------------------------------------------------------------------------

TEST(CancellationToken, FirstCancelWinsAndIsIdempotent) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());

  EXPECT_TRUE(token.Cancel());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);

  // Second cancel is a no-op and must not overwrite the first status.
  EXPECT_FALSE(token.CancelWith(Status::ResourceExhausted("late victim")));
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancellationToken, CancelWithCarriesTypedStatus) {
  CancellationToken token;
  EXPECT_TRUE(token.CancelWith(Status::ResourceExhausted("victim")));
  EXPECT_EQ(token.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(token.status().ToString().find("victim"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-level cancellation
// ---------------------------------------------------------------------------

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CancellationTest, CancelBeforeAdmitFailsFastWithoutWork) {
  CbqtConfig cfg = UnnestOnlyConfig();
  QueryEngine engine(*db_, cfg);
  CancellationToken token;
  token.Cancel();

  auto prepared = engine.Prepare(kTwoSubquerySql, {.cancel = &token});
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kCancelled);

  auto run = engine.Run(kTwoSubquerySql, {.cancel = &token});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);

  GuardrailStats gs = engine.guardrail_stats();
  EXPECT_EQ(gs.cancelled, 2);
  // Rejected at the admission gate: no operation was admitted at all.
  EXPECT_EQ(gs.admitted, 0);
}

TEST_F(CancellationTest, InjectedCancelMidSearchUnwindsSerialSearch) {
  // kCancelAt hit 3 lands inside the per-state polling loop (hit 0 is the
  // Optimize-entry poll): the search must unwind as a hard kCancelled, not
  // degrade to a best-so-far answer like a budget trip would.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.indices = {3};
  cfg.fault_injector->Arm(FaultSite::kCancelAt, spec);
  QueryEngine engine(*db_, cfg);

  auto result = engine.Run(kTwoSubquerySql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().ToString().find("injected cancel"),
            std::string::npos);
  EXPECT_EQ(engine.guardrail_stats().cancelled, 1);
}

TEST_F(CancellationTest, InjectedCancelMidSearchUnwindsParallelSearch) {
  // Same injection under the 4-thread pool: whichever worker's poll fires
  // the injected cancel, every sibling state observes the tripped token at
  // its next quantum and the whole search unwinds kCancelled.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.num_threads = 4;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.indices = {3};
  cfg.fault_injector->Arm(FaultSite::kCancelAt, spec);
  QueryEngine engine(*db_, cfg);

  auto result = engine.Run(kTwoSubquerySql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.guardrail_stats().cancelled, 1);
}

TEST_F(CancellationTest, InjectedCancelMidExecutionUnwindsExecutor) {
  // Prepare completes with far fewer than 100 polls; the executor polls per
  // row (500 employees alone), so hit 100 deterministically lands inside
  // Execute. The already-produced partial rows must be dropped.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.indices = {100};
  cfg.fault_injector->Arm(FaultSite::kCancelAt, spec);
  QueryEngine engine(*db_, cfg);

  auto prepared = engine.Prepare(kTwoSubquerySql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  int64_t polls_after_prepare = cfg.fault_injector->hits(FaultSite::kCancelAt);
  EXPECT_LT(polls_after_prepare, 100);

  auto result = engine.Execute(std::move(prepared.value()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GT(cfg.fault_injector->hits(FaultSite::kCancelAt),
            polls_after_prepare);
}

TEST_F(CancellationTest, CancelByIdFromAnotherThread) {
  // Real cross-thread cancellation through the engine registry: the worker
  // runs a query whose every state eval stalls 25ms (>= 100ms of search),
  // the main thread waits for the operation to appear in ActiveQueryIds and
  // trips it by id. Cancel lands within one per-state polling quantum.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.every_n = 1;
  spec.delay_ms = 25;
  cfg.fault_injector->Arm(FaultSite::kSlowState, spec);
  QueryEngine engine(*db_, cfg);

  Status worker_status;
  std::thread worker([&] {
    auto result = engine.Run(kTwoSubquerySql);
    worker_status = result.ok() ? Status::OK() : result.status();
  });

  uint64_t id = 0;
  while (id == 0) {
    auto ids = engine.ActiveQueryIds();
    if (!ids.empty()) {
      id = ids[0];
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_TRUE(engine.Cancel(id));
  // Second cancel of the same operation is an idempotent no-op.
  EXPECT_FALSE(engine.Cancel(id));
  worker.join();

  EXPECT_EQ(worker_status.code(), StatusCode::kCancelled);
  // The id is gone from the registry once the operation ended.
  EXPECT_FALSE(engine.Cancel(id));
  EXPECT_TRUE(engine.ActiveQueryIds().empty());
  EXPECT_EQ(engine.guardrail_stats().cancelled, 1);
}

TEST_F(CancellationTest, CancelUnknownIdIsFalse) {
  QueryEngine engine(*db_, UnnestOnlyConfig());
  EXPECT_FALSE(engine.Cancel(12345));
}

TEST_F(CancellationTest, CancelledOptimizationNeverEntersPlanCache) {
  // First Run is cancelled mid-search; nothing may be published under the
  // statement's cache key. The second Run (injection exhausted) must be a
  // fresh miss that optimizes from scratch and succeeds; the third is the
  // hit proving the second's insert was the first.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.plan_cache.capacity = 64;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.indices = {3};
  cfg.fault_injector->Arm(FaultSite::kCancelAt, spec);
  QueryEngine engine(*db_, cfg);

  auto cancelled = engine.Run(kTwoSubquerySql);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  PlanCacheStats pcs = engine.plan_cache_stats();
  EXPECT_EQ(pcs.insertions, 0);
  EXPECT_EQ(pcs.entries, 0u);

  auto fresh = engine.Run(kTwoSubquerySql);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->prepared.from_plan_cache);

  auto hit = engine.Run(kTwoSubquerySql);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->prepared.from_plan_cache);
  pcs = engine.plan_cache_stats();
  EXPECT_EQ(pcs.insertions, 1);
  EXPECT_EQ(pcs.hits, 1);
}

TEST_F(CancellationTest, CallerTokenSharedAcrossPrepareAndExecute) {
  // A caller-owned token passed to Run covers both phases under one
  // admission slot; tripping it from another thread mid-flight unwinds
  // whichever phase is running.
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.every_n = 1;
  spec.delay_ms = 25;
  cfg.fault_injector->Arm(FaultSite::kSlowState, spec);
  QueryEngine engine(*db_, cfg);

  CancellationToken token;
  std::atomic<bool> started{false};
  Status worker_status;
  std::thread worker([&] {
    started.store(true);
    auto result = engine.Run(kTwoSubquerySql, {.cancel = &token});
    worker_status = result.ok() ? Status::OK() : result.status();
  });
  while (!started.load() || engine.ActiveQueryIds().empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_TRUE(token.Cancel());
  worker.join();
  EXPECT_EQ(worker_status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace cbqt
