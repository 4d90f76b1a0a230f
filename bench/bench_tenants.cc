// Noisy-neighbor isolation proof for the tenant-aware admission scheduler.
//
// One well-behaved "victim" tenant runs a paced OLTP mix (point lookups +
// short indexed joins) while a "noisy" tenant floods the same engine with
// analytic queries from 8 sessions. The scheduler gives the victim a
// high-priority class and caps the noisy tenant's concurrency quota below
// the global slot count, so there is always headroom for the victim.
//
// The isolated and the flood phase run 3 times each, alternating, so one
// noisy baseline run does not pin the denominator of the isolation gate.
//
// Gates (exit non-zero on violation):
//   1. Isolation: the median of the victim's flood p99s is <= 2x the median
//      of its p99s running alone on the same scheduler. Every run's p99 and
//      the worst single-pair ratio are printed beside it.
//   2. Zero starvation: in every flood run, every query of both tenants
//      either completes or is turned away with a typed kTenantThrottled — no
//      untyped failure, and every victim query completes (its queue never
//      backs up).
//   3. Correctness under contention: victim query rows produced mid-flood
//      are bit-identical to a serial single-engine reference.
//
// An unscheduled control (same two workloads, scheduler off, same thread
// count) is measured and reported for contrast but not gated — it shows
// what the noisy neighbor does when nothing isolates the victim.
//
// Results go to BENCH_tenants.json (wired into ci.sh bench-smoke).

#include <algorithm>
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
constexpr int kRounds = 3;        // alternating isolated/flood phase pairs

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

/// Median of an odd-sized sample.
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void PrintVictimRow(const char* label, const TenantRunReport& t) {
  std::printf("  %-22s %8.2f %8.2f %8.2f %8.1f %4d/%d\n", label, t.p50_ms,
              t.p99_ms, t.max_ms, t.qps, t.succeeded, t.attempted);
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

  // Phases 1 and 2, alternating: the victim alone on the scheduler (the
  // isolation baseline), then the same victim traffic with the noisy flood
  // alongside. The reports are kept whole: the tenant digests point into
  // them.
  std::vector<WorkloadRunReport> isolated_runs;
  std::vector<WorkloadRunReport> flood_runs;
  std::vector<double> iso_p99s;
  std::vector<double> flood_p99s;
  for (int round = 0; round < kRounds; ++round) {
    isolated_runs.push_back(
        runner.RunTenants({VictimSession(schema, victim_count)}, sched_cfg));
    const TenantRunReport* iso = FindTenant(isolated_runs.back(), "victim");
    if (iso == nullptr || isolated_runs.back().failed > 0) {
      std::fprintf(stderr, "isolated baseline failed: %s\n",
                   isolated_runs.back().ErrorSummary().c_str());
      return 1;
    }
    iso_p99s.push_back(iso->p99_ms);

    flood_runs.push_back(runner.RunTenants(
        {VictimSession(schema, victim_count),
         NoisySession(schema, noisy_count)},
        sched_cfg));
    const TenantRunReport* victim = FindTenant(flood_runs.back(), "victim");
    const TenantRunReport* noisy = FindTenant(flood_runs.back(), "noisy");
    if (victim == nullptr || noisy == nullptr) {
      std::fprintf(stderr, "flood run lost a tenant digest\n");
      return 1;
    }
    flood_p99s.push_back(victim->p99_ms);
  }
  // The last flood run stands for the tenant and scheduler digests.
  const WorkloadRunReport& flood = flood_runs.back();
  const TenantRunReport* victim = FindTenant(flood, "victim");
  const TenantRunReport* noisy = FindTenant(flood, "noisy");

  // Unscheduled control: same workloads, no scheduler — the damage a noisy
  // neighbor does when nothing isolates the victim. Reported, not gated.
  CbqtConfig plain_cfg;
  auto control = runner.RunTenants({VictimSession(schema, victim_count),
                                    NoisySession(schema, noisy_count)},
                                   plain_cfg);
  const TenantRunReport* control_victim = FindTenant(control, "victim");

  // Phase 3: bit-identical victim rows while the flood is live.
  int mismatched = VerifyRowsUnderFlood(db, schema, sched_cfg);

  const double iso_p99 = Median(iso_p99s);
  const double flood_p99 = Median(flood_p99s);
  const double ratio = iso_p99 > 0 ? flood_p99 / iso_p99 : 0;
  double worst_pair = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (iso_p99s[round] > 0) {
      worst_pair = std::max(worst_pair, flood_p99s[round] / iso_p99s[round]);
    }
  }
  std::printf("  %-22s %8s %8s %8s %8s %8s\n", "victim", "p50(ms)", "p99(ms)",
              "max(ms)", "q/s", "ok/all");
  for (int round = 0; round < kRounds; ++round) {
    std::string iso_label = "isolated #" + std::to_string(round + 1);
    std::string flood_label = "under flood #" + std::to_string(round + 1);
    PrintVictimRow(iso_label.c_str(),
                   *FindTenant(isolated_runs[round], "victim"));
    PrintVictimRow(flood_label.c_str(),
                   *FindTenant(flood_runs[round], "victim"));
  }
  if (control_victim != nullptr) {
    PrintVictimRow("under flood, no sched", *control_victim);
  }
  std::printf("  median p99: isolated %.2f ms, under flood %.2f ms\n", iso_p99,
              flood_p99);
  std::printf("  p99 inflation: %.2fx median (gate <= %.1fx), worst single "
              "pair %.2fx\n",
              ratio, kP99Gate, worst_pair);
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

  auto runs_json = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(v[i]);
    }
    return out + "]";
  };
  int untyped_failures = 0;
  for (const auto& run : flood_runs) untyped_failures += run.untyped_failures();

  if (FILE* f = std::fopen("BENCH_tenants.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"gate_p99_ratio\": %.1f,\n"
        "  \"victim_queries\": %d,\n"
        "  \"noisy_queries\": %d,\n"
        "  \"isolated\": {\"p99_ms_median\": %.3f, \"p99_ms_runs\": %s},\n"
        "  \"flood\": {\"p99_ms_median\": %.3f, \"p99_ms_runs\": %s},\n"
        "  \"control_no_scheduler\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
        "  \"p99_ratio\": %.2f,\n"
        "  \"worst_pair_p99_ratio\": %.2f,\n"
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
        kP99Gate, victim_count, noisy_count, iso_p99,
        runs_json(iso_p99s).c_str(), flood_p99, runs_json(flood_p99s).c_str(),
        control_victim ? control_victim->p50_ms : 0,
        control_victim ? control_victim->p99_ms : 0, ratio, worst_pair,
        victim->succeeded, noisy->succeeded, noisy->attempted,
        noisy->throttled_retries, noisy->gave_up_throttled, untyped_failures,
        static_cast<long long>(flood.scheduler.shed),
        static_cast<long long>(flood.scheduler.budget_shrunk),
        static_cast<long long>(flood.scheduler.aging_promotions), mismatched);
    std::fclose(f);
    std::printf("  wrote BENCH_tenants.json\n");
  }

  // Gates 2 and 3 hold in every flood run.
  bool failed = false;
  for (int round = 0; round < kRounds; ++round) {
    const WorkloadRunReport& run = flood_runs[round];
    const TenantRunReport& v = *FindTenant(run, "victim");
    const TenantRunReport& n = *FindTenant(run, "noisy");
    if (run.untyped_failures() > 0) {
      std::fprintf(stderr,
                   "\nFAIL: %d untyped failures under flood #%d\n%s\n",
                   run.untyped_failures(), round + 1,
                   run.ErrorSummary().c_str());
      failed = true;
    }
    if (v.succeeded != v.attempted) {
      std::fprintf(stderr,
                   "\nFAIL: victim lost %d of %d queries under flood #%d "
                   "(starvation)\n",
                   v.attempted - v.succeeded, v.attempted, round + 1);
      failed = true;
    }
    if (n.succeeded == 0) {
      std::fprintf(stderr,
                   "\nFAIL: noisy tenant fully starved in flood #%d — aging "
                   "must keep low-priority work flowing\n",
                   round + 1);
      failed = true;
    }
  }
  if (ratio > kP99Gate) {
    std::fprintf(stderr,
                 "\nFAIL: median victim p99 inflated %.2fx under flood "
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
  std::printf("\nOK: median victim p99 %.2fx isolated baseline (gate %.1fx), "
              "zero starvation, bit-identical rows\n",
              ratio, kP99Gate);
  return 0;
}
