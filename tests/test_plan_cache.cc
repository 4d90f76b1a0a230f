#include "cbqt/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "common/cancellation.h"
#include "optimizer/card_est.h"
#include "sql/expr_util.h"
#include "sql/parameterize.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

CbqtConfig CachedConfig(size_t capacity = 64, int num_shards = 1) {
  CbqtConfig cfg;
  cfg.plan_cache.capacity = capacity;
  cfg.plan_cache.num_shards = num_shards;
  return cfg;
}

// A fresh path under the test temp dir; any leftover from a previous run is
// removed so every test starts cold.
std::string FreshTempPath(const std::string& name) {
  std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(p);
  return p.string();
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
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = FreshTempPath("cbqt_snap_literals.cbqs");
  QueryEngine cached(*db_, cfg);
  QueryEngine uncached(*db_, CbqtConfig{});
  ASSERT_FALSE(uncached.plan_cache_enabled());
  const std::vector<std::string> sqls = {
      // Same shape, varied literals: every run after the first is a hit whose
      // plan literals were re-bound, except where a literal moves the
      // selectivity band (> 100000000 keeps no row) and re-costs.
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 5000",
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 8000",
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 100000000",
      "SELECT e.employee_name, e.salary FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 5100",
      // Subquery shape with two parameterized literals.
      "SELECT e.employee_name FROM employees e WHERE e.salary > 7000 AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id < 5)",
      "SELECT e.employee_name FROM employees e WHERE e.salary > 2000 AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id < 9)",
  };
  auto sweep = [&](const QueryEngine& engine) {
    for (const auto& sql : sqls) {
      auto hit = engine.Run(sql);
      auto ref = uncached.Run(sql);
      ASSERT_TRUE(hit.ok()) << sql << "\n" << hit.status().ToString();
      ASSERT_TRUE(ref.ok()) << sql;
      EXPECT_EQ(SortedRows(std::move(hit.value())),
                SortedRows(std::move(ref.value())))
          << sql;
    }
  };
  sweep(cached);
  EXPECT_GE(cached.plan_cache_stats().hits, 3);
  EXPECT_GE(cached.plan_cache_stats().rebind_recosts, 1);

  // Snapshot leg: an engine built from the saved cache serves its first
  // statement from the loaded entry, and the same sweep, band move
  // included, returns the cache-off engine's rows.
  ASSERT_TRUE(cached.SavePlanSnapshot().ok());
  QueryEngine loaded(*db_, cfg);
  ASSERT_EQ(loaded.plan_cache_stats().snapshot_loaded, 2);
  auto first = loaded.Prepare(sqls[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->from_plan_cache);
  sweep(loaded);
  EXPECT_GE(loaded.plan_cache_stats().rebind_recosts, 1);
}

// True when some expression in the plan under `node` holds a parameter slot.
bool SubtreeHasParam(const PlanNode& node) {
  bool found = false;
  auto scan = [&found](const std::vector<ExprPtr>& exprs) {
    for (const auto& e : exprs) {
      VisitExprDeepConst(e.get(), [&found](const Expr* x) {
        found = found || (x->kind == ExprKind::kLiteral && x->param_index >= 0);
      });
    }
  };
  for (const auto* exprs :
       {&node.probes, &node.filter, &node.join_conds, &node.hash_left_keys,
        &node.hash_right_keys, &node.group_keys, &node.agg_exprs,
        &node.projections, &node.sort_keys, &node.window_exprs}) {
    scan(*exprs);
  }
  for (const auto& keys : node.subplan_corr_keys) scan(keys);
  for (const auto& c : node.children) found = found || SubtreeHasParam(*c);
  for (const auto& s : node.subplans) found = found || SubtreeHasParam(*s);
  return found;
}

// Walks a served plan against the cache entry's: every subtree without a
// parameter must be the entry's own node, every subtree with one a copy.
// Counts the shared subtrees in `*shared`.
void ExpectParamPathsCopied(const PlanNode& served, const PlanNode& entry,
                            int* shared) {
  ASSERT_EQ(served.children.size(), entry.children.size());
  ASSERT_EQ(served.subplans.size(), entry.subplans.size());
  auto check = [&](const PlanPtr& s, const PlanPtr& e) {
    if (SubtreeHasParam(*e)) {
      EXPECT_NE(s, e);
      ExpectParamPathsCopied(*s, *e, shared);
    } else {
      EXPECT_EQ(s, e);
      ++*shared;
    }
  };
  for (size_t i = 0; i < entry.children.size(); ++i) {
    check(served.children[i], entry.children[i]);
  }
  for (size_t i = 0; i < entry.subplans.size(); ++i) {
    check(served.subplans[i], entry.subplans[i]);
  }
}

TEST_F(PlanCacheTest, HitsShareTheEntryPlanAndCopyOnlyParameterPaths) {
  QueryEngine cached(*db_, CachedConfig());
  QueryEngine uncached(*db_, CbqtConfig{});
  const std::string a =
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 5000";
  const std::string b =
      "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
      "WHERE e.dept_id = d.dept_id AND e.salary > 9000";

  // A misses: the caller and the new entry share one plan.
  auto first = cached.Prepare(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->from_plan_cache);
  const PlanPtr entry = first->plan;
  const std::string entry_text = PlanToString(*entry);

  auto expect_rows = [&](const std::string& sql, PreparedQuery prepared) {
    auto got = cached.Execute(std::move(prepared));
    auto want = uncached.Run(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(SortedRows(std::move(got.value())),
              SortedRows(std::move(want.value())))
        << sql;
  };
  expect_rows(a, std::move(first.value()));

  // B hits with its own literal: only nodes on a path to the parameter are
  // copies, and the entry itself is untouched.
  auto second = cached.Prepare(b);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->from_plan_cache);
  EXPECT_NE(second->plan, entry);
  int shared = 0;
  ExpectParamPathsCopied(*second->plan, *entry, &shared);
  EXPECT_GT(shared, 0);
  EXPECT_NE(PlanToString(*second->plan).find("9000"), std::string::npos);
  expect_rows(b, std::move(second.value()));
  EXPECT_EQ(PlanToString(*entry), entry_text);

  // A again: its own literal, not B's.
  auto third = cached.Prepare(a);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(third->from_plan_cache);
  EXPECT_EQ(PlanToString(*third->plan), entry_text);
  expect_rows(a, std::move(third.value()));
  EXPECT_EQ(PlanToString(*entry), entry_text);

  // A statement without parameters is served the entry's plan itself.
  const std::string c =
      "SELECT d.dept_name FROM departments d, employees e "
      "WHERE e.dept_id = d.dept_id";
  auto c_miss = cached.Prepare(c);
  ASSERT_TRUE(c_miss.ok());
  auto c_hit = cached.Prepare(c);
  ASSERT_TRUE(c_hit.ok());
  ASSERT_TRUE(c_hit->from_plan_cache);
  EXPECT_EQ(c_hit->plan, c_miss->plan);
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

// ---- persistence ----------------------------------------------

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
  cfg.plan_cache.snapshot_path = path;  // saved at destruction
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

  // A checksum-valid frame whose payload carries bytes after its last
  // entry: every entry decodes, and still nothing is loaded.
  ASSERT_TRUE(engine.SavePlanSnapshot().ok());
  std::string framed;
  {
    std::ifstream in(path, std::ios::binary);
    framed.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  auto payload = UnframePayload(kPlanSnapshotMagic, framed);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::string trailing =
        FramePayload(kPlanSnapshotMagic, std::string(*payload) + "xyz");
    out.write(trailing.data(), static_cast<std::streamsize>(trailing.size()));
  }
  PlanCache trailing_direct(cfg.plan_cache);
  auto trailing_load = trailing_direct.LoadSnapshot(path, db_->stats_epoch(),
                                                    fp);
  ASSERT_FALSE(trailing_load.ok());
  EXPECT_EQ(trailing_load.status().code(), StatusCode::kDataCorruption);
  EXPECT_EQ(trailing_direct.size(), 0u);
}

TEST_F(PlanCacheTest, SnapshotReloadKeepsLruOrder) {
  const std::string path = FreshTempPath("cbqt_snap_lru.cbqs");
  const std::string a = "SELECT e.salary FROM employees e WHERE e.salary > 1";
  const std::string b =
      "SELECT d.dept_name FROM departments d WHERE d.loc_id > 1";
  const std::string c = "SELECT l.city FROM locations l WHERE l.loc_id > 1";
  const std::string d =
      "SELECT e.employee_name FROM employees e WHERE e.dept_id > 1";
  CbqtConfig cfg = CachedConfig(/*capacity=*/3, /*num_shards=*/1);
  cfg.plan_cache.snapshot_path = path;
  {
    QueryEngine cold(*db_, cfg);
    for (const std::string& sql : {a, b, c}) {
      ASSERT_TRUE(cold.Prepare(sql).ok()) << sql;
    }
    ASSERT_TRUE(cold.SavePlanSnapshot().ok());
  }

  QueryEngine warm(*db_, cfg);
  ASSERT_EQ(warm.plan_cache_stats().snapshot_loaded, 3);
  // The reload reproduces recency: a is the least recent entry, so d
  // evicts it, and c, the most recent, survives.
  ASSERT_TRUE(warm.Prepare(d).ok());
  EXPECT_EQ(warm.plan_cache_stats().evictions, 1);
  for (const std::string& sql : {c, b}) {
    auto hit = warm.Prepare(sql);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->from_plan_cache) << sql;
  }
  auto evicted = warm.Prepare(a);
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted->from_plan_cache);
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
  const std::string snapshot = FreshTempPath("cbqt_snap_report.cbqs");
  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = snapshot;
  {
    QueryEngine seed_engine(*db_, cfg);  // saves the snapshot at destruction
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
  // The runner's engine warm-started from the seeded snapshot: the
  // persistence counters flow through to the report, and both runs hit.
  EXPECT_EQ(report.plan_cache.snapshot_loaded, 1);
  EXPECT_EQ(report.plan_cache.hits, 2);
}

// ---- cursor sharing (stateful) --------------------------------------------

TEST_F(PlanCacheTest, RepeatShapesAreKeyedFromTheCursorTable) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";
  ASSERT_TRUE(engine.Prepare(shape + "5000").ok());
  auto hit = engine.Prepare("select E.EMPLOYEE_NAME from employees e\n"
                            "where e.salary > 5050 -- respelled");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_NE(PlanShape(*hit->plan).find("5050"), std::string::npos);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_misses, 1);
  EXPECT_EQ(stats.cursor_hits, 1);
  EXPECT_EQ(stats.cursors, 1u);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST_F(PlanCacheTest, AnalyzeBetweenHitsDropsTheCursorRecordAndRebands) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary < ";
  auto bands_of = [&](const std::string& sql) {
    auto parsed = ParseSql(sql);
    EXPECT_TRUE(parsed.ok());
    ParameterizedStatement ps = ParameterizeQuery(parsed->get());
    return ComputeParamBands(**parsed, ps.params.size(), db_->catalog(),
                             db_->stats());
  };
  ASSERT_TRUE(engine.Prepare(shape + "100000").ok());
  auto hit = engine.Prepare(shape + "100001");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_EQ(engine.plan_cache_stats().cursor_hits, 1);
  std::vector<int> bands_before = bands_of(shape + "100002");

  // One outlier salary stretches the column's range: under the new stats
  // `salary < 100002` is far more selective.
  const Table* employees = db_->FindTable("employees");
  ASSERT_NE(employees, nullptr);
  Row outlier = employees->RowAt(0);
  outlier[static_cast<size_t>(employees->def().FindColumn("emp_id"))] =
      Value::Int(999999);
  outlier[static_cast<size_t>(employees->def().FindColumn("salary"))] =
      Value::Int(1000000000);
  ASSERT_TRUE(db_->Insert("employees", outlier).ok());
  ASSERT_TRUE(db_->Analyze().ok());
  std::vector<int> bands_after = bands_of(shape + "100002");
  ASSERT_NE(bands_before, bands_after);

  // The stale record is dropped with the stale plan: the statement parses
  // and re-plans.
  auto after = engine.Prepare(shape + "100002");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_plan_cache);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_hits, 1);
  EXPECT_EQ(stats.cursor_misses, 2);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.cursors, 1u);

  // The new record evaluates its bands under the new statistics, so they
  // agree with the re-planned entry's: a plain hit, no re-cost.
  auto again = engine.Prepare(shape + "100003");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
  stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_hits, 2);
  EXPECT_EQ(stats.rebind_recosts, 0);
}

TEST_F(PlanCacheTest, EvictedPlanWithLiveCursorRecordTakesTheFullPath) {
  // One shape, two keys: the value-equality fingerprint tells `salary > 1
  // AND dept_id = 2` from `salary > 1 AND dept_id = 1`. So the shape's
  // record outlives the first key's plan under LRU.
  QueryEngine engine(*db_, CachedConfig(/*capacity=*/2, /*num_shards=*/1));
  QueryEngine uncached(*db_, CbqtConfig{});
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";
  auto stmt = [&](int salary, int dept) {
    return shape + std::to_string(salary) +
           " AND e.dept_id = " + std::to_string(dept);
  };
  ASSERT_TRUE(engine.Prepare(stmt(1, 2)).ok());  // plans: K1
  ASSERT_TRUE(engine.Prepare(stmt(1, 1)).ok());  // plans: K2 K1
  ASSERT_TRUE(
      engine.Prepare("SELECT d.dept_name FROM departments d WHERE d.loc_id > 1")
          .ok());  // plans: KB K2 — K1 evicted; records: SB S
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.cursor_hits, 1);

  auto fallback = engine.Run(stmt(3, 4));  // record hit, key K1 missing
  auto ref = uncached.Run(stmt(3, 4));
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(fallback->prepared.from_plan_cache);
  EXPECT_EQ(SortedRows(std::move(fallback.value())),
            SortedRows(std::move(ref.value())));
  stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_hits, 2);
  EXPECT_EQ(stats.cursor_misses, 2);

  // The full path re-cached K1: the next statement of that key is a hit.
  auto settled = engine.Prepare(stmt(5, 6));
  ASSERT_TRUE(settled.ok());
  EXPECT_TRUE(settled->from_plan_cache);
}

TEST_F(PlanCacheTest, WarmStartHitsOnFirstPrepareThenUsesCursor) {
  const std::string snapshot = FreshTempPath("cbqt_cursor_warm.cbqs");
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";

  CbqtConfig cfg = CachedConfig();
  cfg.plan_cache.snapshot_path = snapshot;
  {
    QueryEngine cold(*db_, cfg);
    ASSERT_TRUE(cold.Prepare(shape + "5000").ok());
    ASSERT_TRUE(cold.SavePlanSnapshot().ok());
  }

  // The snapshot carries plans, not cursor records. The first Prepare
  // parses (a cursor miss) and is still a plan hit; the next one is keyed
  // from the record it registered.
  QueryEngine warm(*db_, cfg);
  auto first = warm.Prepare(shape + "5100");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->from_plan_cache);
  auto second = warm.Prepare(shape + "5200");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_plan_cache);
  PlanCacheStats stats = warm.plan_cache_stats();
  EXPECT_EQ(stats.cursor_misses, 1);
  EXPECT_EQ(stats.cursor_hits, 1);
  EXPECT_EQ(stats.hits, 2);
}

TEST_F(PlanCacheTest, BandMoveThroughTheCursorPathRecosts) {
  QueryEngine engine(*db_, CachedConfig());
  const std::string shape =
      "SELECT e.employee_name FROM employees e WHERE e.salary > ";
  ASSERT_TRUE(engine.Prepare(shape + "1").ok());
  // Keyed from the record, but the literal moved bands: re-cost.
  auto moved = engine.Prepare(shape + "100000000");
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(moved->from_plan_cache);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_hits, 1);
  EXPECT_EQ(stats.rebind_recosts, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);

  auto settled = engine.Prepare(shape + "200000000");
  ASSERT_TRUE(settled.ok());
  EXPECT_TRUE(settled->from_plan_cache);
  stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.cursor_hits, 2);
  EXPECT_EQ(stats.rebind_recosts, 1);
}

TEST_F(PlanCacheTest, ConcurrentOltpStreamMatchesCacheOffReference) {
  // Four sessions share one cached engine over the OLTP stream (cursor hits,
  // cursor registrations racing on one shape, plan hits and misses). Run
  // under TSan in CI.
  std::vector<std::string> stream;
  for (const auto& q : GenerateOltpWorkload(160, SmallHrSchema(), 1)) {
    stream.push_back(q.sql);
  }
  QueryEngine uncached(*db_, CbqtConfig{});
  std::vector<std::vector<Row>> expected;
  for (const auto& sql : stream) {
    auto ref = uncached.Run(sql);
    ASSERT_TRUE(ref.ok()) << sql;
    expected.push_back(SortedRows(std::move(ref.value())));
  }

  QueryEngine engine(*db_, CachedConfig(/*capacity=*/64, /*num_shards=*/4));
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Every session walks the whole stream from its own offset.
      for (size_t k = 0; k < stream.size(); ++k) {
        size_t i = (k + static_cast<size_t>(t) * 40) % stream.size();
        auto result = engine.Run(stream[i]);
        if (!result.ok() ||
            SortedRows(std::move(result.value())) != expected[i]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(kThreads * stream.size()));
  EXPECT_GT(stats.cursor_hits, stats.cursor_misses);
}

}  // namespace
}  // namespace cbqt
