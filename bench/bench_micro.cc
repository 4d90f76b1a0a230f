// Google-benchmark micro suite: optimizer-component costs that are not in
// the paper but explain the Table 2 timings — deep copy, binding,
// physical planning with and without the annotation cache, and
// executor operator throughput.

#include <benchmark/benchmark.h>

#include <memory>

#include "binder/binder.h"
#include "cbqt/annotation_cache.h"
#include "cbqt/framework.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

namespace cbqt {
namespace {

const char* kComplexQuery =
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history j "
    "WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' AND e1.salary "
    "> (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = "
    "e1.dept_id) AND e1.dept_id IN (SELECT d.dept_id FROM departments d, "
    "locations l WHERE d.loc_id = l.loc_id AND l.country_id = 'US')";

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    SchemaConfig cfg;
    cfg.employees = 5000;
    cfg.job_history = 8000;
    cfg.orders = 6000;
    cfg.order_items = 12000;
    cfg.customers = 1000;
    if (!BuildHrDatabase(cfg, d).ok()) std::abort();
    return d;
  }();
  return db;
}

std::unique_ptr<QueryBlock>& SharedBoundQuery() {
  static std::unique_ptr<QueryBlock> qb = [] {
    auto parsed = ParseSql(kComplexQuery);
    if (!parsed.ok()) std::abort();
    if (!BindQuery(*SharedDb(), parsed.value().get()).ok()) std::abort();
    return std::move(parsed.value());
  }();
  return qb;
}

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto r = ParseSql(kComplexQuery);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Parse);

void BM_Bind(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSql(kComplexQuery);
  for (auto _ : state) {
    auto copy = parsed.value()->Clone();
    Status st = BindQuery(*db, copy.get());
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_Bind);

void BM_DeepCopyQueryTree(benchmark::State& state) {
  auto& qb = SharedBoundQuery();
  for (auto _ : state) {
    auto copy = qb->Clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DeepCopyQueryTree);

void BM_PhysicalPlanColdCache(benchmark::State& state) {
  Database* db = SharedDb();
  auto& qb = SharedBoundQuery();
  for (auto _ : state) {
    Planner planner(*db, CostParams{});
    auto plan = planner.PlanBlock(*qb);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PhysicalPlanColdCache);

void BM_PhysicalPlanWarmCache(benchmark::State& state) {
  Database* db = SharedDb();
  auto& qb = SharedBoundQuery();
  AnnotationCache cache;
  {
    Planner warm(*db, CostParams{}, &cache);
    auto plan = warm.PlanBlock(*qb);
    benchmark::DoNotOptimize(plan);
  }
  for (auto _ : state) {
    Planner planner(*db, CostParams{}, &cache);
    auto plan = planner.PlanBlock(*qb);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PhysicalPlanWarmCache);

void BM_CbqtFullOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSql(kComplexQuery);
  CbqtOptimizer opt(*db, ConfigForMode(OptimizerMode::kCostBased));
  for (auto _ : state) {
    auto r = opt.Optimize(*parsed.value());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CbqtFullOptimize);

void BM_JoinOrderDp(benchmark::State& state) {
  Database* db = SharedDb();
  // A 6-relation join forces a DP over 64 subsets.
  auto parsed = ParseSql(
      "SELECT e.employee_name FROM employees e, departments d, locations l, "
      "job_history j, jobs jb, orders o WHERE e.dept_id = d.dept_id AND "
      "d.loc_id = l.loc_id AND j.emp_id = e.emp_id AND jb.job_id = j.job_id "
      "AND o.emp_id = e.emp_id");
  if (!BindQuery(*db, parsed.value().get()).ok()) std::abort();
  for (auto _ : state) {
    Planner planner(*db, CostParams{});
    auto plan = planner.PlanBlock(*parsed.value());
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_JoinOrderDp);

void BM_ExecuteHashJoin(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSql(
      "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
      "WHERE e.emp_id = j.emp_id");
  if (!BindQuery(*db, parsed.value().get()).ok()) std::abort();
  Planner planner(*db, CostParams{});
  auto plan = planner.PlanBlock(*parsed.value());
  if (!plan.ok()) std::abort();
  for (auto _ : state) {
    Executor exec(*db);
    auto rows = exec.Execute(*plan->plan);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecuteHashJoin);

void BM_ExecuteAggregate(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSql(
      "SELECT e.dept_id, AVG(e.salary), COUNT(*) FROM employees e GROUP BY "
      "e.dept_id");
  if (!BindQuery(*db, parsed.value().get()).ok()) std::abort();
  Planner planner(*db, CostParams{});
  auto plan = planner.PlanBlock(*parsed.value());
  if (!plan.ok()) std::abort();
  for (auto _ : state) {
    Executor exec(*db);
    auto rows = exec.Execute(*plan->plan);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecuteAggregate);

}  // namespace
}  // namespace cbqt

BENCHMARK_MAIN();
