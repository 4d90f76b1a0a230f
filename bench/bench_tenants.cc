// Noisy-neighbor isolation proof for the tenant-aware admission scheduler.
//
// One well-behaved "victim" tenant runs a paced OLTP mix (point lookups +
// short indexed joins) while a "noisy" tenant floods the same engine with
// analytic queries from 8 sessions. The scheduler gives the victim a
// high-priority class and caps the noisy tenant's concurrency quota below
// the global slot count, so there is always headroom for the victim.
//
// Gates (exit non-zero on violation):
//   1. Isolation: the victim's p99 latency under flood is <= 2x its p99
//      running alone on the same scheduler.
//   2. Zero starvation: every query of both tenants either completes or is
//      turned away with a typed kTenantThrottled — no untyped failure, and
//      every victim query completes (its queue never backs up).
//   3. Correctness under contention: victim query rows produced mid-flood
//      are bit-identical to a serial single-engine reference.
//
// An unscheduled control (same two workloads, scheduler off, same thread
// count) is measured and reported for contrast but not gated — it shows
// what the noisy neighbor does when nothing isolates the victim.
//
// Results go to BENCH_tenants.json (wired into ci.sh bench-smoke).

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/result_compare.h"

namespace cbqt {
namespace {

constexpr double kP99Gate = 2.0;  // flood p99 <= gate * isolated p99

CbqtConfig SchedulerConfigForBench() {
  CbqtConfig cfg;
  SchedulerConfig& s = cfg.guardrails.scheduler;
  s.enabled = true;
  s.max_concurrent = 8;
  s.queue_timeout_ms = 5000;
  TenantSpec victim;
  victim.name = "victim";
  victim.weight = 4;
  victim.priority = 0;
  victim.max_queued = 16;
  TenantSpec noisy;
  noisy.name = "noisy";
  noisy.weight = 1;
  noisy.priority = 2;
  noisy.max_queued = 8;
  noisy.max_concurrent = 4;  // quota below the global slots: headroom stays
  s.tenants = {victim, noisy};
  return cfg;
}

WorkloadRunner::TenantSession VictimSession(const SchemaConfig& schema,
                                            int queries) {
  WorkloadRunner::TenantSession t;
  t.tenant = "victim";
  t.queries = GenerateOltpWorkload(queries, schema, 101);
  t.sessions = 2;
  t.pace_ms = 1;  // paced: a serving client, not a flood
  return t;
}

WorkloadRunner::TenantSession NoisySession(const SchemaConfig& schema,
                                           int queries) {
  WorkloadRunner::TenantSession t;
  t.tenant = "noisy";
  t.queries = GenerateMixedWorkload(queries, 0.3, schema, 202);
  t.sessions = 8;
  t.max_retries = 3;
  return t;
}

const TenantRunReport* FindTenant(const WorkloadRunReport& report,
                                  const std::string& name) {
  for (const auto& t : report.per_tenant) {
    if (t.tenant == name) return &t;
  }
  return nullptr;
}

/// Phase 3: victim queries re-run one at a time while the noisy flood is
/// live, each result compared bit-for-bit against the serial reference.
int VerifyRowsUnderFlood(const Database& db, const SchemaConfig& schema,
                         const CbqtConfig& cfg) {
  auto victim_queries = GenerateOltpWorkload(24, schema, 101);
  // Serial reference on a plain single-user engine.
  std::vector<std::vector<Row>> reference;
  {
    QueryEngine ref_engine(db, CbqtConfig{});
    for (const auto& q : victim_queries) {
      auto r = ref_engine.Run(q.sql);
      if (!r.ok()) {
        std::fprintf(stderr, "reference failed: %s\n",
                     r.status().ToString().c_str());
        return -1;
      }
      SortRowsCanonical(&r->rows);
      reference.push_back(std::move(r->rows));
    }
  }

  QueryEngine engine(db, cfg);
  std::atomic<bool> stop{false};
  auto noisy_queries = GenerateMixedWorkload(64, 0.3, schema, 303);
  std::vector<std::thread> flood;
  for (int s = 0; s < 6; ++s) {
    flood.emplace_back([&, s] {
      QueryOptions opts;
      opts.tenant = "noisy";
      size_t i = static_cast<size_t>(s);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)engine.Run(noisy_queries[i % noisy_queries.size()].sql, opts);
        i += 6;
      }
    });
  }

  int mismatched = 0;
  QueryOptions victim_opts;
  victim_opts.tenant = "victim";
  for (size_t i = 0; i < victim_queries.size(); ++i) {
    auto r = engine.Run(victim_queries[i].sql, victim_opts);
    if (!r.ok()) {
      std::fprintf(stderr, "victim query failed mid-flood: %s\n",
                   r.status().ToString().c_str());
      ++mismatched;
      continue;
    }
    SortRowsCanonical(&r->rows);
    if (r->rows != reference[i]) ++mismatched;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : flood) t.join();
  return mismatched;
}

}  // namespace
}  // namespace cbqt

int main() {
  using namespace cbqt;

  Database db;
  SchemaConfig schema = bench::BenchSchema();
  schema.oltp_indexes = true;  // serving indexes for the OLTP mix
  Status st = BuildHrDatabase(schema, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "schema build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  int victim_count = bench::BenchQueryCount(100);
  int noisy_count = victim_count * 2;
  WorkloadRunner runner(db);
  CbqtConfig sched_cfg = SchedulerConfigForBench();

  std::printf("tenant isolation: victim %d OLTP queries (2 sessions, "
              "priority 0) vs noisy %d analytic queries (8 sessions, "
              "priority 2, quota 4/8)\n",
              victim_count, noisy_count);

  // Phase 1: the victim alone on the scheduler — the isolation baseline.
  auto isolated =
      runner.RunTenants({VictimSession(schema, victim_count)}, sched_cfg);
  const TenantRunReport* iso = FindTenant(isolated, "victim");
  if (iso == nullptr || isolated.failed > 0) {
    std::fprintf(stderr, "isolated baseline failed: %s\n",
                 isolated.ErrorSummary().c_str());
    return 1;
  }

  // Phase 2: the same victim traffic with the noisy flood alongside.
  auto flood = runner.RunTenants({VictimSession(schema, victim_count),
                                  NoisySession(schema, noisy_count)},
                                 sched_cfg);
  const TenantRunReport* victim = FindTenant(flood, "victim");
  const TenantRunReport* noisy = FindTenant(flood, "noisy");
  if (victim == nullptr || noisy == nullptr) {
    std::fprintf(stderr, "flood run lost a tenant digest\n");
    return 1;
  }

  // Unscheduled control: same workloads, no scheduler — the damage a noisy
  // neighbor does when nothing isolates the victim. Reported, not gated.
  CbqtConfig plain_cfg;
  auto control = runner.RunTenants({VictimSession(schema, victim_count),
                                    NoisySession(schema, noisy_count)},
                                   plain_cfg);
  const TenantRunReport* control_victim = FindTenant(control, "victim");

  // Phase 3: bit-identical victim rows while the flood is live.
  int mismatched = VerifyRowsUnderFlood(db, schema, sched_cfg);

  double ratio = iso->p99_ms > 0 ? victim->p99_ms / iso->p99_ms : 0;
  std::printf("  %-22s %8s %8s %8s %8s %8s\n", "victim", "p50(ms)", "p99(ms)",
              "max(ms)", "q/s", "ok/all");
  std::printf("  %-22s %8.2f %8.2f %8.2f %8.1f %4d/%d\n", "isolated",
              iso->p50_ms, iso->p99_ms, iso->max_ms, iso->qps, iso->succeeded,
              iso->attempted);
  std::printf("  %-22s %8.2f %8.2f %8.2f %8.1f %4d/%d\n", "under flood",
              victim->p50_ms, victim->p99_ms, victim->max_ms, victim->qps,
              victim->succeeded, victim->attempted);
  if (control_victim != nullptr) {
    std::printf("  %-22s %8.2f %8.2f %8.2f %8.1f %4d/%d\n",
                "under flood, no sched", control_victim->p50_ms,
                control_victim->p99_ms, control_victim->max_ms,
                control_victim->qps, control_victim->succeeded,
                control_victim->attempted);
  }
  std::printf("  p99 inflation: %.2fx (gate <= %.1fx)\n", ratio, kP99Gate);
  std::printf("  noisy tenant: %d/%d completed, %d retries, %d dropped "
              "after retries\n",
              noisy->succeeded, noisy->attempted, noisy->throttled_retries,
              noisy->gave_up_throttled);
  std::printf("  scheduler: shed=%lld budget_shrunk=%lld promotions=%lld\n",
              static_cast<long long>(flood.scheduler.shed),
              static_cast<long long>(flood.scheduler.budget_shrunk),
              static_cast<long long>(flood.scheduler.aging_promotions));
  std::printf("  row identity under flood: %d mismatched of 24\n",
              mismatched < 0 ? -1 : mismatched);

  if (FILE* f = std::fopen("BENCH_tenants.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"gate_p99_ratio\": %.1f,\n"
        "  \"victim_queries\": %d,\n"
        "  \"noisy_queries\": %d,\n"
        "  \"isolated\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"qps\": "
        "%.1f},\n"
        "  \"flood\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"qps\": %.1f},\n"
        "  \"control_no_scheduler\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
        "  \"p99_ratio\": %.2f,\n"
        "  \"victim_completed\": %d,\n"
        "  \"noisy_completed\": %d,\n"
        "  \"noisy_attempted\": %d,\n"
        "  \"noisy_retries\": %d,\n"
        "  \"noisy_dropped\": %d,\n"
        "  \"untyped_failures\": %d,\n"
        "  \"shed\": %lld,\n"
        "  \"budget_shrunk\": %lld,\n"
        "  \"aging_promotions\": %lld,\n"
        "  \"row_mismatches\": %d\n"
        "}\n",
        kP99Gate, victim_count, noisy_count, iso->p50_ms, iso->p99_ms,
        iso->qps, victim->p50_ms, victim->p99_ms, victim->qps,
        control_victim ? control_victim->p50_ms : 0,
        control_victim ? control_victim->p99_ms : 0, ratio, victim->succeeded,
        noisy->succeeded, noisy->attempted, noisy->throttled_retries,
        noisy->gave_up_throttled, flood.untyped_failures(),
        static_cast<long long>(flood.scheduler.shed),
        static_cast<long long>(flood.scheduler.budget_shrunk),
        static_cast<long long>(flood.scheduler.aging_promotions), mismatched);
    std::fclose(f);
    std::printf("  wrote BENCH_tenants.json\n");
  }

  bool failed = false;
  if (flood.untyped_failures() > 0) {
    std::fprintf(stderr, "\nFAIL: %d untyped failures under flood\n%s\n",
                 flood.untyped_failures(), flood.ErrorSummary().c_str());
    failed = true;
  }
  if (victim->succeeded != victim->attempted) {
    std::fprintf(stderr,
                 "\nFAIL: victim lost %d of %d queries under flood "
                 "(starvation)\n",
                 victim->attempted - victim->succeeded, victim->attempted);
    failed = true;
  }
  if (noisy->succeeded == 0) {
    std::fprintf(stderr, "\nFAIL: noisy tenant fully starved — aging must "
                         "keep low-priority work flowing\n");
    failed = true;
  }
  if (ratio > kP99Gate) {
    std::fprintf(stderr,
                 "\nFAIL: victim p99 inflated %.2fx under flood "
                 "(gate %.1fx)\n",
                 ratio, kP99Gate);
    failed = true;
  }
  if (mismatched != 0) {
    std::fprintf(stderr, "\nFAIL: %d victim queries returned non-identical "
                         "rows under flood\n",
                 mismatched < 0 ? -1 : mismatched);
    failed = true;
  }
  if (failed) return 1;
  std::printf("\nOK: victim p99 %.2fx isolated baseline (gate %.1fx), "
              "zero starvation, bit-identical rows\n",
              ratio, kP99Gate);
  return 0;
}
