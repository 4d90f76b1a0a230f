// Engine-level plan cache benchmark: three axes, results written to
// BENCH_plan_cache.json.
//
//   1. Cold vs warm Prepare latency — a warm (cached) Prepare skips the
//      whole CBQT search and physical optimization, paying only parse +
//      parameterize + plan clone + literal re-bind. Target: >= 10x.
//   2. Hit rate vs cache capacity — a skewed statement mix (4 hot shapes
//      carrying most of the traffic over a 16-shape population) swept over
//      LRU capacities.
//   3. Budget upgrade — under a tight optimization budget (--budget-ms) the
//      first Prepare caches a degraded plan; hot re-hits re-optimize it with
//      an enlarged budget and the entry converges to the full-budget cost.
//
//   $ ./build/bench/bench_plan_cache [--reps N] [--budget-ms 0.05]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

using namespace cbqt;

namespace {

// The Table-2 style query (three outer tables, four unnestable subqueries):
// optimization dwarfs parsing, which is exactly the case a plan cache pays
// off for. The trailing salary literal varies per call so warm hits also
// exercise literal re-binding.
const char* kHeavyPrefix =
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
    "l3.country_id = 'US') AND e.salary > ";

std::string HeavySql(int literal) {
  return std::string(kHeavyPrefix) + std::to_string(literal);
}

int ParseIntArg(int argc, char** argv, const char* name, int def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return def;
}

double ParseDoubleArg(int argc, char** argv, const char* name, double def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return def;
}

CbqtConfig CachedConfig(size_t capacity) {
  CbqtConfig cfg;
  cfg.plan_cache.capacity = capacity;
  return cfg;
}

// 16 distinct statement shapes: every non-empty subset of four extra select
// columns produces a different parameterized key.
std::vector<std::string> ShapePopulation() {
  const char* cols[] = {"e.employee_name", "e.dept_id", "e.job_id",
                        "e.emp_id"};
  std::vector<std::string> shapes;
  for (int mask = 0; mask < 16; ++mask) {
    std::string select = "SELECT e.salary";
    for (int b = 0; b < 4; ++b) {
      if (mask & (1 << b)) select += std::string(", ") + cols[b];
    }
    shapes.push_back(select + " FROM employees e WHERE e.salary > ");
  }
  return shapes;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Engine plan cache: cold/warm Prepare, hit rate, "
              "budget upgrade ===\n");
  int reps = ParseIntArg(argc, argv, "--reps", 10);
  double budget_ms = ParseDoubleArg(argc, argv, "--budget-ms", 0.05);

  SchemaConfig schema;
  Database db;
  Status st = BuildHrDatabase(schema, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "schema build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status a = db.Analyze(); !a.ok()) {
    std::fprintf(stderr, "analyze failed: %s\n", a.ToString().c_str());
    return 1;
  }

  // ---- Axis 1: cold vs warm Prepare latency. ----
  // Cold: a fresh engine per rep, so every Prepare runs the full CBQT search
  // (plus the cache's parameterize/insert overhead — the honest cold path).
  double cold_total = 0;
  for (int i = 0; i < reps; ++i) {
    QueryEngine engine(db, CachedConfig(64));
    double t0 = NowMs();
    auto r = engine.Prepare(HeavySql(5000 + i));
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    cold_total += NowMs() - t0;
  }
  double cold_ms = cold_total / reps;

  // Warm: one engine, one entry, literal varied per hit.
  QueryEngine warm_engine(db, CachedConfig(64));
  if (auto r = warm_engine.Prepare(HeavySql(5000)); !r.ok()) return 1;
  int warm_reps = std::max(reps * 10, 50);
  double warm_total = 0;
  for (int i = 0; i < warm_reps; ++i) {
    double t0 = NowMs();
    auto r = warm_engine.Prepare(HeavySql(4000 + i));
    if (!r.ok() || !r->from_plan_cache) {
      std::fprintf(stderr, "warm Prepare missed the cache\n");
      return 1;
    }
    warm_total += NowMs() - t0;
  }
  double warm_ms = warm_total / warm_reps;
  double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  // The engine's own measure of a hit: Prepare entry to served plan, as
  // PlanCacheStats records it (a cursor-table hit never parses).
  double hit_prepare_ms = warm_engine.plan_cache_stats().avg_hit_prepare_ms();
  std::printf("\n  cold Prepare: %8.3f ms   (avg of %d, fresh cache)\n"
              "  warm Prepare: %8.3f ms   (avg of %d, re-bound literals)\n"
              "  engine hit:   %8.4f ms   (PlanCacheStats avg_hit_prepare_ms)\n"
              "  speedup:      %8.1fx  %s\n",
              cold_ms, reps, warm_ms, warm_reps, hit_prepare_ms, speedup,
              speedup >= 10 ? "(>= 10x target met)" : "(below 10x target)");

  // ---- Axis 2: hit rate vs cache capacity. ----
  // Skewed traffic: 3 of 4 calls go to one of 4 hot shapes, the rest walk
  // the full 16-shape population — LRU should hold the hot set even when the
  // population exceeds capacity.
  std::vector<std::string> shapes = ShapePopulation();
  const size_t capacities[] = {2, 4, 8, 16};
  std::string sweep_json;
  std::printf("\n  %-10s %10s %8s %10s\n", "capacity", "hit rate", "hits",
              "evictions");
  for (size_t capacity : capacities) {
    CbqtConfig cfg = CachedConfig(capacity);
    cfg.plan_cache.num_shards = 1;  // strict global LRU for the sweep
    QueryEngine engine(db, cfg);
    int calls = std::max(200, reps * 20);
    for (int t = 0; t < calls; ++t) {
      size_t shape = (t % 4 != 0) ? static_cast<size_t>(t % 4)
                                  : static_cast<size_t>(t % 16);
      auto r = engine.Prepare(shapes[shape] + std::to_string(t));
      if (!r.ok()) return 1;
    }
    PlanCacheStats stats = engine.plan_cache_stats();
    std::printf("  %-10zu %9.1f%% %8lld %10lld\n", capacity,
                stats.hit_rate() * 100, static_cast<long long>(stats.hits),
                static_cast<long long>(stats.evictions));
    char entry[128];
    std::snprintf(entry, sizeof(entry),
                  "    {\"capacity\": %zu, \"hit_rate\": %.4f, "
                  "\"evictions\": %lld},\n",
                  capacity, stats.hit_rate(),
                  static_cast<long long>(stats.evictions));
    sweep_json += entry;
  }
  if (!sweep_json.empty()) sweep_json.erase(sweep_json.size() - 2, 1);

  // ---- Axis 3: budget upgrade of degraded plans. ----
  CbqtConfig reference_cfg;
  reference_cfg.strategy_override = SearchStrategy::kExhaustive;
  QueryEngine reference(db, reference_cfg);
  auto full = reference.Prepare(HeavySql(5000));
  if (!full.ok()) return 1;

  CbqtConfig tight = CachedConfig(64);
  tight.strategy_override = SearchStrategy::kExhaustive;
  tight.budget.deadline_ms = budget_ms;
  tight.plan_cache.upgrade_after_hits = 2;
  tight.plan_cache.upgrade_budget_multiplier = 1e6;
  QueryEngine upgrading(db, tight);
  auto first = upgrading.Prepare(HeavySql(5000));
  if (!first.ok()) return 1;
  double degraded_cost = first->cost;
  bool was_degraded = first->degraded;
  double upgraded_cost = degraded_cost;
  int hits_until_upgrade = 0;
  for (int i = 0; i < 16; ++i) {
    auto r = upgrading.Prepare(HeavySql(5000 + i));
    if (!r.ok()) return 1;
    ++hits_until_upgrade;
    upgraded_cost = r->cost;
    if (!r->degraded) break;
  }
  PlanCacheStats up_stats = upgrading.plan_cache_stats();
  std::printf("\n  budget %.3g ms: first plan %s (cost %.0f)\n"
              "  after %d hot hits: cost %.0f, %lld upgrade(s); "
              "full-budget reference cost %.0f\n",
              budget_ms, was_degraded ? "degraded" : "not degraded",
              degraded_cost, hits_until_upgrade, upgraded_cost,
              static_cast<long long>(up_stats.upgrades), full->cost);
  if (!was_degraded) {
    std::printf("  (budget did not trip on this machine; raise --budget-ms "
                "resolution or lower the value)\n");
  }

  std::string json = "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"cold_prepare_ms\": %.4f,\n"
                "  \"warm_prepare_ms\": %.4f,\n"
                "  \"avg_hit_prepare_ms\": %.4f,\n"
                "  \"warm_speedup\": %.2f,\n"
                "  \"hit_rate_sweep\": [\n%s  ],\n"
                "  \"upgrade\": {\"budget_ms\": %g, \"was_degraded\": %s, "
                "\"degraded_cost\": %.1f, \"upgraded_cost\": %.1f, "
                "\"reference_cost\": %.1f, \"upgrades\": %lld}\n}\n",
                cold_ms, warm_ms, hit_prepare_ms, speedup,
                sweep_json.c_str(), budget_ms,
                was_degraded ? "true" : "false", degraded_cost, upgraded_cost,
                full->cost, static_cast<long long>(up_stats.upgrades));
  json += buf;
  if (FILE* f = std::fopen("BENCH_plan_cache.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\n  wrote BENCH_plan_cache.json\n");
  }
  if (speedup < 10) {
    std::fprintf(stderr, "FAIL: warm Prepare speedup %.1fx below 10x\n",
                 speedup);
    return 1;
  }
  return 0;
}
