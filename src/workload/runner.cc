#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "common/rng.h"

namespace cbqt {

namespace {

/// Folds one query's outcome into the report. Single-threaded: concurrent
/// runs collect outcomes first and fold them in input order afterwards.
void FoldOutcome(const WorkloadQuery& q, Result<QueryResult>& result,
                 WorkloadRunReport* report) {
  ++report->attempted;
  if (!result.ok()) {
    ++report->failed;
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        ++report->cancelled;
        break;
      case StatusCode::kResourceExhausted:
        ++report->resource_exhausted;
        break;
      case StatusCode::kTenantThrottled:
        ++report->tenant_throttled;
        break;
      default:
        break;
    }
    if (static_cast<int>(report->error_messages.size()) <
        WorkloadRunReport::kMaxErrorMessages) {
      report->error_messages.push_back(
          "query " + std::to_string(q.id) + " [" + QueryFamilyName(q.family) +
          "]: " + result.status().ToString());
    }
    return;
  }
  ++report->succeeded;
  RunMeasurement m;
  m.opt_ms = result->prepared.optimize_ms;
  m.exec_ms = result->execute_ms;
  m.est_cost = result->prepared.cost;
  m.plan_shape = PlanShape(*result->prepared.plan);
  m.rows_processed = result->rows_processed;
  m.result_rows = result->rows.size();
  m.cbqt = std::move(result->prepared.stats);
  m.from_plan_cache = result->prepared.from_plan_cache;
  if (m.cbqt.budget_exhausted) ++report->budget_exhausted_queries;
  report->searches_degraded += m.cbqt.searches_degraded;
  report->failed_states += m.cbqt.failed_states;
  report->max_query_peak_bytes =
      std::max(report->max_query_peak_bytes, result->peak_memory_bytes);
  if (result->exec.spilled_operators > 0) ++report->spilled_queries;
  report->spill_bytes_written += result->exec.spill.bytes_written;
  report->spill_bytes_read += result->exec.spill.bytes_read;
  report->measurements.push_back(std::move(m));
}

/// Folds the shared engine's end-of-run telemetry (plan cache, guardrails,
/// MQO) into the report.
void FoldEngineStats(const QueryEngine& engine, WorkloadRunReport* report) {
  report->plan_cache = engine.plan_cache_stats();
  report->scheduler = engine.scheduler_stats();
  report->mqo = engine.mqo_stats();
  GuardrailStats gs = engine.guardrail_stats();
  report->engine_peak_memory_bytes = gs.engine_peak_bytes;
  report->memory_victims = gs.memory_victims;
}

}  // namespace

CbqtConfig ConfigForMode(OptimizerMode mode) {
  CbqtConfig cfg;
  switch (mode) {
    case OptimizerMode::kCostBased:
      break;
    case OptimizerMode::kHeuristicOnly:
      cfg.cost_based = false;
      break;
    case OptimizerMode::kUnnestOff:
      cfg.transforms = cfg.transforms.Without(Transform::kUnnest);
      break;
    case OptimizerMode::kJppdOff:
      cfg.transforms = cfg.transforms.Without(Transform::kJppd);
      break;
    case OptimizerMode::kGbpOff:
      cfg.transforms = cfg.transforms.Without(Transform::kGroupByPlacement);
      break;
  }
  return cfg;
}

double NowMs() {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

Result<RunMeasurement> WorkloadRunner::Run(const std::string& sql,
                                           const CbqtConfig& config) const {
  QueryEngine engine(db_, config, params_);
  auto result = engine.Run(sql);
  if (!result.ok()) return result.status();

  RunMeasurement m;
  m.opt_ms = result->prepared.optimize_ms;
  m.exec_ms = result->execute_ms;
  m.est_cost = result->prepared.cost;
  m.plan_shape = PlanShape(*result->prepared.plan);
  m.cbqt = std::move(result->prepared.stats);
  m.rows_processed = result->rows_processed;
  m.result_rows = result->rows.size();
  m.from_plan_cache = result->prepared.from_plan_cache;
  return m;
}

WorkloadRunReport WorkloadRunner::RunAll(
    const std::vector<WorkloadQuery>& queries,
    const CbqtConfig& config) const {
  WorkloadRunReport report;
  QueryEngine engine(db_, config, params_);
  for (const auto& q : queries) {
    auto result = engine.Run(q.sql);
    FoldOutcome(q, result, &report);
  }
  FoldEngineStats(engine, &report);
  return report;
}

WorkloadRunReport WorkloadRunner::RunAllConcurrent(
    const std::vector<WorkloadQuery>& queries, const CbqtConfig& config,
    int sessions) const {
  if (sessions <= 1) return RunAll(queries, config);
  WorkloadRunReport report;
  QueryEngine engine(db_, config, params_);
  // Deterministic round-robin deal: session s owns queries s, s+sessions,
  // ... Each slot is written by exactly one thread, so the collection needs
  // no lock; folding happens serially afterwards, in input order.
  std::vector<std::optional<Result<QueryResult>>> outcomes(queries.size());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    workers.emplace_back([&, s] {
      for (size_t i = static_cast<size_t>(s); i < queries.size();
           i += static_cast<size_t>(sessions)) {
        outcomes[i].emplace(engine.Run(queries[i].sql));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    FoldOutcome(queries[i], *outcomes[i], &report);
  }
  FoldEngineStats(engine, &report);
  return report;
}

WorkloadRunReport WorkloadRunner::RunTenants(
    const std::vector<TenantSession>& tenants, const CbqtConfig& config) const {
  WorkloadRunReport report;
  if (tenants.empty()) return report;
  QueryEngine engine(db_, config, params_);

  // One slot per (tenant, query): written by exactly one session thread
  // (round-robin deal within the tenant, as in RunAllConcurrent), folded
  // serially afterwards in input order.
  struct Slot {
    std::optional<Result<QueryResult>> outcome;
    double start_ms = 0;  ///< first submit (retries included in the span)
    double end_ms = 0;
    int retries = 0;  ///< kTenantThrottled turn-aways retried
  };
  std::vector<std::vector<Slot>> slots(tenants.size());
  for (size_t k = 0; k < tenants.size(); ++k) {
    slots[k].resize(tenants[k].queries.size());
  }

  std::vector<std::thread> workers;
  for (size_t k = 0; k < tenants.size(); ++k) {
    int sessions = std::max(1, tenants[k].sessions);
    for (int s = 0; s < sessions; ++s) {
      workers.emplace_back([&, k, s, sessions] {
        const TenantSession& ts = tenants[k];
        QueryOptions opts;
        opts.tenant = ts.tenant;
        // Deterministic per-thread jitter stream: backoff randomization must
        // not depend on wall clock or thread scheduling.
        Rng rng(0x5eedba5eu ^ (static_cast<uint64_t>(k + 1) << 32) ^
                static_cast<uint64_t>(s));
        for (size_t i = static_cast<size_t>(s); i < ts.queries.size();
             i += static_cast<size_t>(sessions)) {
          Slot& slot = slots[k][i];
          slot.start_ms = NowMs();
          auto result = engine.Run(ts.queries[i].sql, opts);
          while (!result.ok() &&
                 result.status().code() == StatusCode::kTenantThrottled &&
                 slot.retries < ts.max_retries) {
            ++slot.retries;
            // Honor the scheduler's retry-after hint, linearly escalated per
            // attempt with +/-50% jitter so retried floods don't re-arrive in
            // lockstep.
            double hint = RetryAfterMs(result.status());
            if (hint <= 0) hint = 25.0;
            double backoff = hint * slot.retries * (0.5 + rng.NextDouble());
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff));
            result = engine.Run(ts.queries[i].sql, opts);
          }
          slot.end_ms = NowMs();
          slot.outcome.emplace(std::move(result));
          if (ts.pace_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ts.pace_ms));
          }
        }
      });
    }
  }
  for (auto& w : workers) w.join();

  for (size_t k = 0; k < tenants.size(); ++k) {
    const TenantSession& ts = tenants[k];
    TenantRunReport tr;
    tr.tenant = ts.tenant.empty() ? "(default)" : ts.tenant;
    std::vector<double> latencies;
    latencies.reserve(ts.queries.size());
    double first_start = 0;
    double last_end = 0;
    for (size_t i = 0; i < ts.queries.size(); ++i) {
      Slot& slot = slots[k][i];
      FoldOutcome(ts.queries[i], *slot.outcome, &report);
      ++tr.attempted;
      tr.throttled_retries += slot.retries;
      if (slot.outcome->ok()) {
        ++tr.succeeded;
        latencies.push_back(slot.end_ms - slot.start_ms);
      } else {
        ++tr.failed;
        if (slot.outcome->status().code() == StatusCode::kTenantThrottled) {
          ++tr.gave_up_throttled;
        }
      }
      first_start = (i == 0) ? slot.start_ms
                             : std::min(first_start, slot.start_ms);
      last_end = std::max(last_end, slot.end_ms);
    }
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      size_t n = latencies.size();
      tr.p50_ms = latencies[n / 2 - (n % 2 == 0 ? 1 : 0)];
      tr.p99_ms = latencies[static_cast<size_t>(0.99 * (n - 1))];
      tr.max_ms = latencies.back();
    }
    tr.wall_ms = last_end - first_start;
    if (tr.wall_ms > 0 && tr.succeeded > 0) {
      tr.qps = tr.succeeded / (tr.wall_ms / 1000.0);
    }
    report.per_tenant.push_back(std::move(tr));
  }
  FoldEngineStats(engine, &report);
  return report;
}

std::string WorkloadRunReport::ErrorSummary() const {
  if (failed == 0) return "";
  std::string out = std::to_string(failed) + " of " +
                    std::to_string(attempted) + " queries failed";
  if (!error_messages.empty()) {
    out += "; first " + std::to_string(error_messages.size()) + ":";
    for (const auto& msg : error_messages) {
      out += "\n  " + msg;
    }
  }
  return out;
}

Result<std::vector<Row>> WorkloadRunner::RunToSortedRows(
    const std::string& sql, const CbqtConfig& config) const {
  QueryEngine engine(db_, config, params_);
  auto result = engine.Run(sql);
  if (!result.ok()) return result.status();
  SortRowsCanonical(&result->rows);
  return std::move(result->rows);
}

}  // namespace cbqt
