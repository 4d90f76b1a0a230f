// A miniature of the paper's §4 performance study: run a mixed workload
// (mostly SPJ, ~8% transformable — the paper's stated mix) under the
// heuristic-only and cost-based optimizers, and summarize per family.
//
//   $ ./build/examples/workload_study [num_queries]
//
// The sessions axis runs the cost-based workload on N concurrent sessions
// sharing one engine:
//
//   $ ./build/examples/workload_study [num_queries] --sessions N
//
// The multi-tenant axis runs N tenants against one scheduler-governed
// engine, each tenant an OLTP-heavy serving mix with an analytics tail,
// priorities dealt from --priority-mix (comma-separated classes, cycled
// over the tenants; default "0,1,2"):
//
//   $ ./build/examples/workload_study [num_queries] --tenants 3 \
//         [--priority-mix 0,2,2] [--sessions N]
//
// (With --tenants, --sessions sets the scheduler's concurrent slots; default 8.)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "workload/query_gen.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

using namespace cbqt;

namespace {

int RunSessionsAxis(const WorkloadRunner& runner,
                    const std::vector<WorkloadQuery>& queries, int sessions) {
  CbqtConfig cfg = ConfigForMode(OptimizerMode::kCostBased);
  double t0 = NowMs();
  WorkloadRunReport report = runner.RunAllConcurrent(queries, cfg, sessions);
  double wall_ms = NowMs() - t0;
  std::printf("sessions=%d: %d/%d ok, %.1f ms wall, %.1f q/s\n", sessions,
              report.succeeded, report.attempted, wall_ms,
              wall_ms > 0 ? report.succeeded / wall_ms * 1000.0 : 0.0);
  if (report.failed > 0) {
    std::printf("%s\n", report.ErrorSummary().c_str());
  }
  return report.untyped_failures() == 0 ? 0 : 1;
}

std::vector<int> ParsePriorityMix(const char* arg) {
  std::vector<int> mix;
  std::string s(arg);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    int p = std::atoi(s.substr(pos, comma - pos).c_str());
    if (p < 0) p = 0;
    if (p >= kNumPriorityClasses) p = kNumPriorityClasses - 1;
    mix.push_back(p);
    pos = comma + 1;
  }
  if (mix.empty()) mix = {0, 1, 2};
  return mix;
}

int RunTenantAxis(const WorkloadRunner& runner, const SchemaConfig& schema,
                  int count, int num_tenants, const std::vector<int>& mix,
                  int sessions) {
  CbqtConfig cfg = ConfigForMode(OptimizerMode::kCostBased);
  SchedulerConfig& sched = cfg.guardrails.scheduler;
  sched.enabled = true;
  sched.max_concurrent = sessions;
  sched.queue_timeout_ms = 10000;

  std::vector<WorkloadRunner::TenantSession> tenant_sessions;
  for (int i = 0; i < num_tenants; ++i) {
    TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.priority = mix[static_cast<size_t>(i) % mix.size()];
    // Higher classes get higher in-class weight too, so the study shows
    // both levers at once.
    spec.weight = kNumPriorityClasses - spec.priority;
    sched.tenants.push_back(spec);

    WorkloadRunner::TenantSession t;
    t.tenant = spec.name;
    t.queries = GenerateTenantWorkload(count, 0.8, 0.08, schema,
                                       17 + static_cast<uint64_t>(i));
    t.sessions = 2;
    tenant_sessions.push_back(std::move(t));
  }

  WorkloadRunReport report = runner.RunTenants(tenant_sessions, cfg);
  std::printf("%d tenants x %d queries, %d slots (priority mix: ",
              num_tenants, count, sessions);
  for (size_t i = 0; i < sched.tenants.size(); ++i) {
    std::printf("%s%d", i > 0 ? "," : "", sched.tenants[i].priority);
  }
  std::printf(")\n%-12s %4s %6s %8s %8s %8s %8s %9s\n", "tenant", "prio",
              "ok/all", "p50(ms)", "p99(ms)", "max(ms)", "q/s", "throttled");
  for (size_t i = 0; i < report.per_tenant.size(); ++i) {
    const TenantRunReport& t = report.per_tenant[i];
    std::printf("%-12s %4d %3d/%-3d %8.2f %8.2f %8.2f %8.1f %9d\n",
                t.tenant.c_str(), sched.tenants[i].priority, t.succeeded,
                t.attempted, t.p50_ms, t.p99_ms, t.max_ms, t.qps,
                t.gave_up_throttled);
  }
  std::printf("scheduler: shed=%lld budget_shrunk=%lld promotions=%lld\n",
              static_cast<long long>(report.scheduler.shed),
              static_cast<long long>(report.scheduler.budget_shrunk),
              static_cast<long long>(report.scheduler.aging_promotions));
  if (report.failed > 0) std::printf("%s\n", report.ErrorSummary().c_str());
  return report.untyped_failures() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int count = 150;
  int sessions = 0;  // > 0: concurrent sessions, or slots with --tenants
  int num_tenants = 0;  // > 0: multi-tenant scheduling axis
  std::vector<int> priority_mix = {0, 1, 2};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      num_tenants = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--priority-mix") == 0 && i + 1 < argc) {
      priority_mix = ParsePriorityMix(argv[++i]);
    } else {
      count = std::atoi(argv[i]);
    }
  }
  Database db;
  SchemaConfig schema;
  schema.employees = 10000;
  schema.job_history = 15000;
  schema.orders = 15000;
  schema.order_items = 30000;
  schema.customers = 2000;
  if (num_tenants > 0) schema.oltp_indexes = true;
  if (!BuildHrDatabase(schema, &db).ok()) return 1;
  WorkloadRunner runner(db);

  if (num_tenants > 0) {
    return RunTenantAxis(runner, schema, count, num_tenants, priority_mix,
                         sessions > 0 ? sessions : 8);
  }

  auto queries = GenerateMixedWorkload(count, 0.5, schema, 17);

  if (sessions > 0) return RunSessionsAxis(runner, queries, sessions);

  struct FamilyAgg {
    int n = 0;
    int changed = 0;
    double base_ms = 0;
    double cbqt_ms = 0;
  };
  std::map<std::string, FamilyAgg> by_family;

  for (const auto& q : queries) {
    auto base = runner.Run(q.sql, ConfigForMode(OptimizerMode::kHeuristicOnly));
    auto cbqt = runner.Run(q.sql, ConfigForMode(OptimizerMode::kCostBased));
    if (!base.ok() || !cbqt.ok()) continue;
    FamilyAgg& agg = by_family[QueryFamilyName(q.family)];
    ++agg.n;
    if (base->plan_shape != cbqt->plan_shape) ++agg.changed;
    agg.base_ms += base->total_ms();
    agg.cbqt_ms += cbqt->total_ms();
  }

  std::printf("%-16s %5s %8s %12s %12s %8s\n", "family", "n", "changed",
              "heuristic", "cost-based", "gain");
  double total_base = 0, total_cbqt = 0;
  for (const auto& [name, agg] : by_family) {
    total_base += agg.base_ms;
    total_cbqt += agg.cbqt_ms;
    std::printf("%-16s %5d %8d %10.1fms %10.1fms %7.0f%%\n", name.c_str(),
                agg.n, agg.changed, agg.base_ms, agg.cbqt_ms,
                agg.cbqt_ms > 0
                    ? (agg.base_ms - agg.cbqt_ms) / agg.cbqt_ms * 100
                    : 0.0);
  }
  std::printf("%-16s %31.1fms %10.1fms %7.0f%%\n", "TOTAL", total_base,
              total_cbqt,
              total_cbqt > 0 ? (total_base - total_cbqt) / total_cbqt * 100
                             : 0.0);
  std::printf(
      "\n(The paper's Figure 2 reports +20%% total run time on affected "
      "queries; SPJ\nqueries are unaffected by design — their plans should "
      "show `changed = 0`.)\n");
  return 0;
}
