#include "cbqt/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/plan_store.h"
#include "common/cancellation.h"
#include "sql/parameterize.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

CbqtConfig CachedConfig(size_t capacity = 64, int num_shards = 1) {
  CbqtConfig cfg;
  cfg.plan_cache.capacity = capacity;
  cfg.plan_cache.num_shards = num_shards;
  return cfg;
}

std::vector<Row> SortedRows(QueryResult result) {
  SortRowsCanonical(&result.rows);
  return result.rows;
}

TEST(Parameterize, SameShapeDifferentLiteralsShareKey) {
  auto a = ParseSql("SELECT e.salary FROM employees e WHERE e.salary > 5000");
  auto b = ParseSql("SELECT e.salary FROM employees e WHERE e.salary > 7500");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto pa = ParameterizeQuery(a.value().get());
  auto pb = ParameterizeQuery(b.value().get());
  EXPECT_EQ(pa.key, pb.key);
  ASSERT_EQ(pa.params.size(), 1u);
  ASSERT_EQ(pb.params.size(), 1u);
  EXPECT_EQ(pa.params[0], Value::Int(5000));
  EXPECT_EQ(pb.params[0], Value::Int(7500));
}

TEST(Parameterize, TypeAndEqualityClassGuardTheKey) {
  auto int_lit =
      ParseSql("SELECT e.salary FROM employees e WHERE e.employee_name = 7");
  auto str_lit =
      ParseSql("SELECT e.salary FROM employees e WHERE e.employee_name = 'x'");
  ASSERT_TRUE(int_lit.ok());
  ASSERT_TRUE(str_lit.ok());
  // Same shape, different literal type: must not share a plan.
  EXPECT_NE(ParameterizeQuery(int_lit.value().get()).key,
            ParameterizeQuery(str_lit.value().get()).key);

  // Equality classes of the literal values are part of the key: transforms
  // that compare literal values positionally must see the same classes.
  auto eq = ParseSql(
      "SELECT e.salary FROM employees e WHERE e.salary > 1 AND e.dept_id > 1");
  auto eq2 = ParseSql(
      "SELECT e.salary FROM employees e WHERE e.salary > 3 AND e.dept_id > 3");
  auto ne = ParseSql(
      "SELECT e.salary FROM employees e WHERE e.salary > 1 AND e.dept_id > 2");
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(eq2.ok());
  ASSERT_TRUE(ne.ok());
  std::string k_eq = ParameterizeQuery(eq.value().get()).key;
  std::string k_eq2 = ParameterizeQuery(eq2.value().get()).key;
  std::string k_ne = ParameterizeQuery(ne.value().get()).key;
  EXPECT_EQ(k_eq, k_eq2);
  EXPECT_NE(k_eq, k_ne);
}

TEST(Parameterize, BindTreeParamsRewritesAnnotatedLiterals) {
  auto q = ParseSql("SELECT e.salary FROM employees e WHERE e.salary > 5000");
  ASSERT_TRUE(q.ok());
  auto ps = ParameterizeQuery(q.value().get());
  ASSERT_EQ(ps.params.size(), 1u);
  BindTreeParams(q.value().get(), {Value::Int(123)});
  std::string sql = BlockToSql(*q.value());
  EXPECT_NE(sql.find("123"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("5000"), std::string::npos) << sql;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(PlanCacheTest, ParameterizedStatementsShareOneEntry) {
  QueryEngine engine(*db_, CachedConfig());
  auto first = engine.Prepare(
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_plan_cache);

  auto second = engine.Prepare(
      "SELECT e.employee_name FROM employees e WHERE e.salary > 9000");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_plan_cache);
  // Same entry, re-bound literal: the cost is the entry's, and the served
  // plan carries the *new* literal.
  EXPECT_DOUBLE_EQ(second->cost, first->cost);
  EXPECT_NE(PlanShape(*second->plan).find("9000"), std::string::npos);

  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hit_prepares, 1);
  EXPECT_EQ(stats.miss_prepares, 1);
}

TEST_F(PlanCacheTest, CachedResultsMatchUncachedAcrossLiterals) {
  QueryEngine cached(*db_, CachedConfig());
  QueryEngine uncached(*db_, CbqtConfig{});
  ASSERT_FALSE(uncached.plan_cache_enabled());
  const std::vector<std::string> sqls = {
      // Same shape, varied literals: every run after the first is a hit whose
      // plan literals were re-bound.
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 5000",
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 8000",
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 100",
      // Subquery shape with two parameterized literals.
      "SELECT e.employee_name FROM employees e WHERE e.salary > 7000 AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id < 5)",
      "SELECT e.employee_name FROM employees e WHERE e.salary > 2000 AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id < 9)",
  };
  for (const auto& sql : sqls) {
    auto hit = cached.Run(sql);
    auto ref = uncached.Run(sql);
    ASSERT_TRUE(hit.ok()) << sql << "\n" << hit.status().ToString();
    ASSERT_TRUE(ref.ok()) << sql;
    EXPECT_EQ(SortedRows(std::move(hit.value())),
              SortedRows(std::move(ref.value())))
        << sql;
  }
  EXPECT_GE(cached.plan_cache_stats().hits, 3);
}

TEST_F(PlanCacheTest, RownumLimitsAreNeverParameterized) {
  // ROWNUM cutoffs are baked into the plan as a scalar; two statements
  // differing in the cutoff must therefore use distinct entries.
  QueryEngine engine(*db_, CachedConfig());
  auto two = engine.Run(
      "SELECT e.employee_name FROM employees e WHERE rownum <= 2");
  auto three = engine.Run(
      "SELECT e.employee_name FROM employees e WHERE rownum <= 3");
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(two->rows.size(), 2u);
  EXPECT_EQ(three->rows.size(), 3u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 0);
  EXPECT_EQ(engine.plan_cache_stats().entries, 2u);
}

TEST_F(PlanCacheTest, StatsEpochBumpInvalidatesEntries) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string sql =
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000";
  ASSERT_TRUE(engine.Prepare(sql).ok());
  uint64_t epoch_before = db_->stats_epoch();
  ASSERT_TRUE(db_->Analyze().ok());
  EXPECT_EQ(db_->stats_epoch(), epoch_before + 1);

  auto after = engine.Prepare(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_plan_cache);  // stale entry dropped, re-planned
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.hits, 0);

  // The re-planned entry is cached under the new epoch and serves hits.
  auto again = engine.Prepare(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
}

TEST_F(PlanCacheTest, LruEvictsLeastRecentlyTouchedEntry) {
  QueryEngine engine(*db_, CachedConfig(/*capacity=*/2, /*num_shards=*/1));
  const std::string a = "SELECT e.salary FROM employees e WHERE e.salary > 1";
  const std::string b = "SELECT d.dept_name FROM departments d WHERE d.loc_id > 1";
  const std::string c = "SELECT l.city FROM locations l WHERE l.loc_id > 1";
  ASSERT_TRUE(engine.Prepare(a).ok());
  ASSERT_TRUE(engine.Prepare(b).ok());
  // Touch A so B becomes the LRU victim when C arrives.
  auto a_hit = engine.Prepare(a);
  ASSERT_TRUE(a_hit.ok());
  EXPECT_TRUE(a_hit->from_plan_cache);
  ASSERT_TRUE(engine.Prepare(c).ok());

  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  auto a_again = engine.Prepare(a);
  auto b_again = engine.Prepare(b);
  ASSERT_TRUE(a_again.ok());
  ASSERT_TRUE(b_again.ok());
  EXPECT_TRUE(a_again->from_plan_cache);    // survived
  EXPECT_FALSE(b_again->from_plan_cache);   // was evicted
}

// A query with a cost-based unnesting search (correlated scalar subquery +
// IN subquery over a join) that a low state cap cannot cover — the same
// shape the governor tests use to trip the budget.
const char* kDegradableSql =
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history "
    "j WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' AND "
    "e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE "
    "e2.dept_id = e1.dept_id) AND e1.dept_id IN (SELECT d.dept_id FROM "
    "departments d, locations l WHERE d.loc_id = l.loc_id AND "
    "l.country_id = 'US')";

TEST_F(PlanCacheTest, DegradedEntryUpgradesToFullBudgetPlan) {
  const std::string sql = kDegradableSql;

  QueryEngine reference(*db_, CbqtConfig{});
  auto full = reference.Prepare(sql);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->degraded);

  CbqtConfig cfg = CachedConfig();
  cfg.budget.max_states = 2;  // zero state + one more, then stop
  cfg.plan_cache.upgrade_after_hits = 2;
  cfg.plan_cache.max_upgrade_attempts = 3;
  cfg.plan_cache.upgrade_budget_multiplier = 1e6;
  QueryEngine engine(*db_, cfg);

  auto degraded = engine.Prepare(sql);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_TRUE(degraded->stats.budget_exhausted);

  // Hits below the threshold keep serving the degraded plan.
  auto warm = engine.Prepare(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_plan_cache);

  // The threshold hit wins the CAS gate and schedules the upgrade on the
  // engine's background pool; the serving call itself still returns the
  // degraded plan. Once the background re-optimization (budget scaled by
  // 1e6, i.e. effectively unbudgeted) lands, hits serve the full plan.
  auto trigger = engine.Prepare(sql);
  ASSERT_TRUE(trigger.ok());
  EXPECT_TRUE(trigger->from_plan_cache);
  engine.WaitForUpgrades();
  auto upgraded = engine.Prepare(sql);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_TRUE(upgraded->from_plan_cache);
  EXPECT_FALSE(upgraded->degraded);
  EXPECT_EQ(PlanShape(*upgraded->plan), PlanShape(*full->plan));
  EXPECT_DOUBLE_EQ(upgraded->cost, full->cost);

  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.upgrade_attempts, 1);
  EXPECT_EQ(stats.upgrades, 1);

  // The upgraded entry is sticky: further hits stay non-degraded with no
  // additional attempts.
  auto settled = engine.Prepare(sql);
  ASSERT_TRUE(settled.ok());
  EXPECT_FALSE(settled->degraded);
  EXPECT_EQ(engine.plan_cache_stats().upgrade_attempts, 1);

  // And executes correctly with fresh literals re-bound into the upgraded
  // plan.
  QueryEngine uncached(*db_, CbqtConfig{});
  std::string variant = sql;
  variant.replace(variant.find("19980101"), 8, "19930101");
  auto hit = engine.Run(variant);
  auto ref = uncached.Run(variant);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(hit->prepared.from_plan_cache);
  EXPECT_EQ(SortedRows(std::move(hit.value())),
            SortedRows(std::move(ref.value())));
}

TEST_F(PlanCacheTest, UpgradeAttemptsAreBounded) {
  const std::string sql = kDegradableSql;
  CbqtConfig cfg = CachedConfig();
  cfg.budget.max_states = 2;
  cfg.plan_cache.upgrade_after_hits = 1;
  cfg.plan_cache.max_upgrade_attempts = 2;
  // A multiplier of 1 never enlarges the budget, so every attempt stays
  // degraded — the ladder must still stop at max_upgrade_attempts.
  cfg.plan_cache.upgrade_budget_multiplier = 1.0;
  QueryEngine engine(*db_, cfg);
  ASSERT_TRUE(engine.Prepare(sql).ok());
  for (int i = 0; i < 6; ++i) {
    auto p = engine.Prepare(sql);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p->degraded);
    // Drain the background attempt (if this hit scheduled one) so the
    // ladder's state is deterministic for the next iteration.
    engine.WaitForUpgrades();
  }
  EXPECT_EQ(engine.plan_cache_stats().upgrade_attempts, 2);
  EXPECT_EQ(engine.plan_cache_stats().upgrades, 0);
}

TEST_F(PlanCacheTest, BackgroundUpgradeDoesNotBlockServing) {
  // The upgrade runs off the serving thread: the hit that wins the CAS gate
  // returns the degraded cached plan immediately (a blocking upgrade would
  // have returned the full-budget plan from that very call), and the
  // upgraded entry becomes visible only after the background task lands.
  CbqtConfig cfg = CachedConfig();
  cfg.budget.max_states = 2;
  cfg.plan_cache.upgrade_after_hits = 1;  // first hit schedules the upgrade
  cfg.plan_cache.upgrade_budget_multiplier = 1e6;
  QueryEngine engine(*db_, cfg);

  auto miss = engine.Prepare(kDegradableSql);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(miss->degraded);

  auto trigger = engine.Prepare(kDegradableSql);
  ASSERT_TRUE(trigger.ok());
  EXPECT_TRUE(trigger->from_plan_cache);
  EXPECT_TRUE(trigger->degraded);  // served before the upgrade completed

  engine.WaitForUpgrades();
  EXPECT_EQ(engine.plan_cache_stats().upgrade_attempts, 1);
  EXPECT_EQ(engine.plan_cache_stats().upgrades, 1);
  auto settled = engine.Prepare(kDegradableSql);
  ASSERT_TRUE(settled.ok());
  EXPECT_TRUE(settled->from_plan_cache);
  EXPECT_FALSE(settled->degraded);
}

TEST_F(PlanCacheTest, ConcurrentSharedEngineRunsAreSafe) {
  // One shared engine + plan cache hammered from many threads mixing the
  // same statement shape (hits, re-binds, upgrades) and distinct shapes
  // (misses, evictions). Run under TSan in CI.
  CbqtConfig cfg = CachedConfig(/*capacity=*/8, /*num_shards=*/4);
  cfg.budget.max_states = 3;  // some entries degrade → upgrade races too
  cfg.plan_cache.upgrade_after_hits = 1;
  QueryEngine engine(*db_, cfg);
  QueryEngine uncached(*db_, CbqtConfig{});

  const std::vector<std::string> shapes = {
      "SELECT e.employee_name FROM employees e WHERE e.salary > ",
      "SELECT e.employee_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > ",
      "SELECT d.dept_name FROM departments d WHERE d.loc_id > ",
      // Degrades under the tight budget: threads race on the upgrade path.
      std::string(kDegradableSql) + " AND e1.salary > ",
  };
  std::vector<std::vector<Row>> expected;
  for (const auto& shape : shapes) {
    auto ref = uncached.Run(shape + "5000");
    ASSERT_TRUE(ref.ok());
    expected.push_back(SortedRows(std::move(ref.value())));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        size_t shape = static_cast<size_t>((t + i) % shapes.size());
        auto result = engine.Run(shapes[shape] + "5000");
        if (!result.ok() ||
            SortedRows(std::move(result.value())) != expected[shape]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(kThreads) * kIters);
  EXPECT_GE(stats.hits, 1);
}

// ---- persistence & sharing ----------------------------------------------

// A fresh path under the test temp dir; any leftover from a previous run is
// removed so every test starts cold.
std::string FreshTempPath(const std::string& name) {
  std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(p);
  return p.string();
}

TEST_F(PlanCacheTest, SnapshotWarmStartServesBitIdenticalPlans) {
  const std::string path = FreshTempPath("cbqt_snap_warm.cbqs");
  const std::vector<std::string> sqls = {
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000",
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND d.loc_id > 2",
  };

  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = path;

  QueryEngine cold(*db_, cfg);
  std::vector<std::string> shapes;
  for (const auto& sql : sqls) {
    auto p = cold.Prepare(sql);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    shapes.push_back(PlanShape(*p->plan));
  }
  ASSERT_TRUE(cold.SavePlanSnapshot().ok());
  EXPECT_GE(cold.plan_cache_stats().snapshot_saved,
            static_cast<int64_t>(sqls.size()));

  QueryEngine warm(*db_, cfg);
  PlanCacheStats stats = warm.plan_cache_stats();
  EXPECT_EQ(stats.snapshot_loaded, static_cast<int64_t>(sqls.size()));
  EXPECT_EQ(stats.entries, sqls.size());

  QueryEngine uncached(*db_, CbqtConfig{});
  for (size_t i = 0; i < sqls.size(); ++i) {
    // First touch on the warm engine is already a hit, with the same plan
    // the cold engine chose, and executes to the same rows.
    auto hit = warm.Run(sqls[i]);
    auto ref = uncached.Run(sqls[i]);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(hit->prepared.from_plan_cache) << sqls[i];
    EXPECT_EQ(PlanShape(*hit->prepared.plan), shapes[i]) << sqls[i];
    EXPECT_EQ(SortedRows(std::move(hit.value())),
              SortedRows(std::move(ref.value())))
        << sqls[i];
  }
}

TEST_F(PlanCacheTest, SnapshotIsWrittenOnShutdownAndLoadedAtStartup) {
  const std::string path = FreshTempPath("cbqt_snap_shutdown.cbqs");
  const std::string sql =
      "SELECT d.dept_name FROM departments d WHERE d.loc_id > 3";

  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = path;  // snapshot_on_shutdown defaults true
  {
    QueryEngine engine(*db_, cfg);
    ASSERT_TRUE(engine.Prepare(sql).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  QueryEngine warm(*db_, cfg);
  EXPECT_EQ(warm.plan_cache_stats().snapshot_loaded, 1);
  auto p = warm.Prepare(sql);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->from_plan_cache);
}

TEST_F(PlanCacheTest, SnapshotEntriesWithStaleEpochAreSkipped) {
  const std::string path = FreshTempPath("cbqt_snap_stale.cbqs");
  const std::string sql =
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000";

  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = path;
  QueryEngine old(*db_, cfg);
  ASSERT_TRUE(old.Prepare(sql).ok());
  ASSERT_TRUE(old.SavePlanSnapshot().ok());

  ASSERT_TRUE(db_->Analyze().ok());  // bumps the stats epoch

  QueryEngine warm(*db_, cfg);
  PlanCacheStats stats = warm.plan_cache_stats();
  EXPECT_EQ(stats.snapshot_loaded, 0);
  EXPECT_EQ(stats.snapshot_stale, 1);
  auto p = warm.Prepare(sql);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->from_plan_cache);  // re-planned under the new epoch
}

TEST_F(PlanCacheTest, SnapshotWithForeignSchemaFingerprintLoadsNothing) {
  const std::string path = FreshTempPath("cbqt_snap_fp.cbqs");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = path;
  QueryEngine engine(*db_, cfg);
  ASSERT_TRUE(engine
                  .Prepare("SELECT e.employee_name FROM employees e "
                           "WHERE e.salary > 5000")
                  .ok());
  ASSERT_TRUE(engine.SavePlanSnapshot().ok());

  uint64_t fp = db_->catalog().Fingerprint();
  PlanCache direct(cfg.plan_cache);
  auto wrong = direct.LoadSnapshot(path, db_->stats_epoch(), fp ^ 1);
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(*wrong, 0u);
  EXPECT_EQ(direct.size(), 0u);
  EXPECT_GE(direct.stats().snapshot_stale, 1);

  auto right = direct.LoadSnapshot(path, db_->stats_epoch(), fp);
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(*right, 1u);
  EXPECT_EQ(direct.size(), 1u);
}

TEST_F(PlanCacheTest, CorruptSnapshotIsIgnoredNotFatal) {
  const std::string path = FreshTempPath("cbqt_snap_corrupt.cbqs");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = path;
  QueryEngine engine(*db_, cfg);
  ASSERT_TRUE(engine
                  .Prepare("SELECT e.employee_name FROM employees e "
                           "WHERE e.salary > 5000")
                  .ok());
  ASSERT_TRUE(engine.SavePlanSnapshot().ok());

  // Flip a byte in the middle of the file: the checksum must catch it and
  // the warm engine must come up empty but healthy.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char c = 0;
    f.seekg(64);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(64);
    f.write(&c, 1);
  }
  uint64_t fp = db_->catalog().Fingerprint();
  PlanCache direct(cfg.plan_cache);
  auto load = direct.LoadSnapshot(path, db_->stats_epoch(), fp);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kDataCorruption);
  EXPECT_EQ(direct.size(), 0u);

  QueryEngine warm(*db_, cfg);  // best-effort load: construction survives
  EXPECT_EQ(warm.plan_cache_stats().snapshot_loaded, 0);
  EXPECT_TRUE(warm.Prepare("SELECT d.dept_name FROM departments d").ok());
}

TEST_F(PlanCacheTest, SecondInstanceImportsPublishedPlansFromSharedStore) {
  const std::string path = FreshTempPath("cbqt_store_share.cbqh");
  const std::string sql =
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 5000";

  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = path;

  QueryEngine first(*db_, cfg);
  ASSERT_TRUE(first.plan_store_attached());
  auto optimized = first.Prepare(sql);
  ASSERT_TRUE(optimized.ok());
  EXPECT_FALSE(optimized->from_plan_cache);
  EXPECT_GE(first.plan_cache_stats().store_publishes, 1);
  EXPECT_GE(first.plan_store_stats().publishes, 1);

  QueryEngine second(*db_, cfg);
  ASSERT_TRUE(second.plan_store_attached());
  QueryEngine uncached(*db_, CbqtConfig{});
  // The second instance has never optimized this statement: its very first
  // Prepare is served from the peer's published plan.
  auto imported = second.Run(sql);
  auto ref = uncached.Run(sql);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(imported->prepared.from_plan_cache);
  EXPECT_TRUE(imported->prepared.from_plan_store);
  EXPECT_EQ(PlanShape(*imported->prepared.plan), PlanShape(*optimized->plan));
  EXPECT_EQ(SortedRows(std::move(imported.value())),
            SortedRows(std::move(ref.value())));
  EXPECT_EQ(second.plan_cache_stats().store_imports, 1);
  EXPECT_EQ(second.plan_store_stats().imports, 1);

  // Once imported, the entry lives in the local cache: repeats are plain
  // hits with no further store traffic.
  auto repeat = second.Prepare(sql);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_plan_cache);
  EXPECT_FALSE(repeat->from_plan_store);
  EXPECT_EQ(second.plan_store_stats().imports, 1);
}

TEST_F(PlanCacheTest, SharedStoreRejectsStaleEpochRecords) {
  const std::string path = FreshTempPath("cbqt_store_stale.cbqh");
  const std::string sql =
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000";
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = path;

  QueryEngine first(*db_, cfg);
  ASSERT_TRUE(first.Prepare(sql).ok());

  ASSERT_TRUE(db_->Analyze().ok());  // the published record is now stale

  QueryEngine second(*db_, cfg);
  auto p = second.Prepare(sql);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->from_plan_store);
  EXPECT_FALSE(p->from_plan_cache);
  EXPECT_GE(second.plan_store_stats().stale_rejected, 1);
  EXPECT_EQ(second.plan_cache_stats().store_imports, 0);
}

TEST_F(PlanCacheTest, SharedStoreWithForeignFingerprintIsRefused) {
  const std::string path = FreshTempPath("cbqt_store_foreign.cbqh");
  uint64_t fp = db_->catalog().Fingerprint();
  auto store = PlanStore::Open(path, fp);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto foreign = PlanStore::Open(path, fp ^ 1);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kDataCorruption);

  // An engine over the same schema attaches fine to the existing store.
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = path;
  QueryEngine engine(*db_, cfg);
  EXPECT_TRUE(engine.plan_store_attached());
}

TEST_F(PlanCacheTest, PlanStoreImportHonorsCancellation) {
  const std::string path = FreshTempPath("cbqt_store_cancel.cbqh");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = path;
  QueryEngine publisher(*db_, cfg);
  ASSERT_TRUE(publisher
                  .Prepare("SELECT e.employee_name FROM employees e "
                           "WHERE e.salary > 5000")
                  .ok());
  ASSERT_GE(publisher.plan_store_stats().publishes, 1);

  // A fresh attachment has the published record still unscanned; a token
  // tripped before the import must unwind the scan, not finish it.
  auto store = PlanStore::Open(path, db_->catalog().Fingerprint());
  ASSERT_TRUE(store.ok());
  CancellationToken token;
  token.Cancel();
  auto imported = (*store)->Import("any-key", db_->stats_epoch(), &token);
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kCancelled);

  // Without the token the same attachment scans and resolves normally.
  auto clean = (*store)->Import("any-key", db_->stats_epoch());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, nullptr);  // unknown key, but the scan completed
  EXPECT_GE((*store)->stats().records_scanned, 1);
}

TEST_F(PlanCacheTest, CorruptStoreRecordStopsScanTyped) {
  const std::string path = FreshTempPath("cbqt_store_corrupt.cbqh");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = path;
  QueryEngine publisher(*db_, cfg);
  ASSERT_TRUE(publisher
                  .Prepare("SELECT e.employee_name FROM employees e "
                           "WHERE e.salary > 5000")
                  .ok());

  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "garbage-that-is-not-a-framed-record";
  }

  auto store = PlanStore::Open(path, db_->catalog().Fingerprint());
  ASSERT_TRUE(store.ok());
  auto imported = (*store)->Import("any-key", db_->stats_epoch());
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kDataCorruption);
  EXPECT_GE((*store)->stats().corrupt_skipped, 1);

  // The engine path degrades to "no sharing" and still answers the query.
  QueryEngine reader(*db_, cfg);
  auto p = reader.Prepare(
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->from_plan_store);
}

TEST_F(PlanCacheTest, ConcurrentTwoEngineSharedStoreTraffic) {
  // Two engines attached to one store, hammered from both sides: publishes
  // and imports race through flock + the per-attachment incremental scan.
  // Run under TSan in CI.
  const std::string path = FreshTempPath("cbqt_store_race.cbqh");
  CbqtConfig cfg = CachedConfig(/*capacity=*/32, /*num_shards=*/4);
  cfg.plan_cache.shared_store_path = path;
  QueryEngine a(*db_, cfg);
  QueryEngine b(*db_, cfg);
  ASSERT_TRUE(a.plan_store_attached());
  ASSERT_TRUE(b.plan_store_attached());
  QueryEngine uncached(*db_, CbqtConfig{});

  const std::vector<std::string> sqls = {
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000",
      "SELECT d.dept_name FROM departments d WHERE d.loc_id > 2",
      "SELECT l.city FROM locations l WHERE l.loc_id > 1",
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 8000",
  };
  std::vector<std::vector<Row>> expected;
  for (const auto& sql : sqls) {
    auto ref = uncached.Run(sql);
    ASSERT_TRUE(ref.ok());
    expected.push_back(SortedRows(std::move(ref.value())));
  }

  constexpr int kThreads = 6;
  constexpr int kIters = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      QueryEngine& engine = (t % 2 == 0) ? a : b;
      for (int i = 0; i < kIters; ++i) {
        size_t shape = static_cast<size_t>((t + i) % sqls.size());
        auto result = engine.Run(sqls[shape]);
        if (!result.ok() ||
            SortedRows(std::move(result.value())) != expected[shape]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every statement was optimized at most a handful of times across both
  // engines — the store shares search results instead of repeating them.
  int64_t imports = a.plan_cache_stats().store_imports +
                    b.plan_cache_stats().store_imports;
  int64_t publishes = a.plan_cache_stats().store_publishes +
                      b.plan_cache_stats().store_publishes;
  EXPECT_GE(publishes, static_cast<int64_t>(sqls.size()));
  EXPECT_GE(imports, 0);  // timing-dependent, but must never corrupt results
}

// ---- cardinality-aware re-binding ----------------------------------------

TEST_F(PlanCacheTest, BandMoveRecostsInsteadOfBlindReuse) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";

  auto first = engine.Prepare(shape + "1");  // ~all rows: band 0
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_plan_cache);

  // Same statement shape, but the new literal is far more selective: the
  // hit lands in a different selectivity band and must re-cost, not reuse.
  auto moved = engine.Prepare(shape + "100000000");
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(moved->from_plan_cache);
  EXPECT_EQ(engine.plan_cache_stats().rebind_recosts, 1);

  // The re-cost re-centered the entry's bands at the new literal: repeats
  // in that band are ordinary hits again.
  auto settled = engine.Prepare(shape + "200000000");
  ASSERT_TRUE(settled.ok());
  EXPECT_TRUE(settled->from_plan_cache);
  EXPECT_EQ(engine.plan_cache_stats().rebind_recosts, 1);
}

TEST_F(PlanCacheTest, SameBandRebindsStayCacheHits) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";
  ASSERT_TRUE(engine.Prepare(shape + "5000").ok());
  // Nearby literals share the half-decade selectivity band: plain hits.
  auto close = engine.Prepare(shape + "5100");
  ASSERT_TRUE(close.ok());
  EXPECT_TRUE(close->from_plan_cache);
  EXPECT_EQ(engine.plan_cache_stats().rebind_recosts, 0);
}

TEST_F(PlanCacheTest, WorkloadReportSurfacesPersistenceCounters) {
  const std::string store = FreshTempPath("cbqt_store_report.cbqh");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.shared_store_path = store;
  {
    QueryEngine seed_engine(*db_, cfg);
    ASSERT_TRUE(seed_engine
                    .Prepare("SELECT e.employee_name FROM employees e "
                             "WHERE e.salary > 5000")
                    .ok());
  }

  WorkloadQuery q;
  q.id = 1;
  q.sql = "SELECT e.employee_name FROM employees e WHERE e.salary > 5000";
  WorkloadRunner runner(*db_);
  WorkloadRunReport report = runner.RunAll({q, q}, cfg);
  EXPECT_EQ(report.failed, 0) << report.ErrorSummary();
  // The runner's engine imported the seeded peer plan (or republished its
  // own): the persistence counters flow through to the report.
  EXPECT_GE(report.plan_cache.store_imports + report.plan_cache.store_publishes,
            1);
  EXPECT_GE(report.plan_cache.hits + report.plan_cache.misses, 2);
}

}  // namespace
}  // namespace cbqt
