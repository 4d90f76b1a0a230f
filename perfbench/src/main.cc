// End-to-end benchmark of the CBQT engine: one closed-loop workload per run,
// measured through QueryEngine::Run, every result checked against rows from
// a heuristic-only reference engine.
//
//   perfbench --workload W --seed N --write-expected FILE
//   perfbench --workload analytic|search|oltp --seed N --seconds S
//             --trace 0|1 --expected FILE [--spans-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice on fresh engines, untraced and then traced, and
// prints the per-layer metrics; the traced run re-executes every statement
// through the hand-wired pipeline (pipeline.h) and writes its spans to
// DIR/spans-<workload>-<seed>.tsv. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Expected rows
// come from FILE, written beforehand by --write-expected, which runs the
// reference engine in a process of its own.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/scheduler.h"
#include "check.h"
#include "common/result_compare.h"
#include "common/rng.h"
#include "cpu_rotation.h"
#include "pipeline.h"
#include "trace.h"
#include "workload/schema_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cbqt::Database;
using cbqt::QueryEngine;
using cbqt::QueryOptions;
using cbqt::QueryResult;
using cbqt::Result;

// Set-up is repeated this many times per run and its median reported. A
// set-up takes about 0.25 s, so a second of load from elsewhere on a shared
// host skewed the median of 5 by up to 20% between sets of runs.
constexpr int kSetupRepeats = 11;
// A traced run passes when the layer self times add up to the traced
// latency within this tolerance (README.md, "Tracing"). The replay runs
// right after the engine on warm caches, so on the ~20 us oltp statements
// coverage sits near 0.85.
constexpr double kCoverageLow = 0.7;
constexpr double kCoverageHigh = 1.3;
// The traced run stops after this many statements even before its time is
// up, which bounds the spans kept in memory and written out (the oltp
// stream completes tens of thousands of statements a second).
constexpr int64_t kMaxTracedStatements = 20000;
// A one-session run moves its session thread to the next CPU this often
// (cpu_rotation.h), and runs each set-up repeat on the next CPU.
constexpr int64_t kRotateIntervalNs = 250000000;
// Retries after a kTenantThrottled turn-away before a query counts failed.
constexpr int kMaxThrottleRetries = 20;
// Latency samples kept per session: a uniform reservoir sample beyond this,
// so the benchmark's own memory does not grow with throughput (the oltp
// stream completes millions of statements per run).
constexpr size_t kMaxSamplesPerSession = size_t{1} << 18;
// Failure messages kept for the report.
constexpr size_t kMaxMessages = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".";
  std::string write_expected;  ///< compute expected rows into this file
  std::string expected;        ///< read expected rows from this file
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-dir") {
      args->spans_dir = value;
    } else if (key == "--write-expected") {
      args->write_expected = value;
    } else if (key == "--expected") {
      args->expected = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         (!args->write_expected.empty() ||
          (!args->expected.empty() && args->seconds > 0));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// Set-up and expected rows.

struct Setup {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryEngine> engine;
  double setup_s = 0;    ///< median of kSetupRepeats set-ups
  double build_s = 0;    ///< median database build time
};

bool WarmUp(const QueryEngine& engine) {
  return engine.Run(WarmupStatement()).ok();
}

/// Builds the database, constructs the engine and warms it up, kSetupRepeats
/// times; keeps the last database and engine.
bool RunSetup(const Workload& w, const std::vector<int>& rotate_cpus,
              Setup* out) {
  std::vector<double> setup, build;
  CpuRotation rotation(rotate_cpus, 0);
  for (int i = 0; i < kSetupRepeats; ++i) {
    rotation.Tick();
    out->engine.reset();
    out->db.reset();
    int64_t start = NowNs();
    auto db = std::make_unique<Database>();
    cbqt::Status st = cbqt::BuildHrDatabase(w.schema, db.get());
    if (!st.ok()) {
      std::fprintf(stderr, "database build failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    build.push_back(SecondsSince(start));
    auto engine = std::make_unique<QueryEngine>(*db, w.config);
    if (!WarmUp(*engine)) {
      std::fprintf(stderr, "warm-up query failed\n");
      return false;
    }
    setup.push_back(SecondsSince(start));
    out->db = std::move(db);
    out->engine = std::move(engine);
  }
  out->setup_s = Median(setup);
  out->build_s = Median(build);
  // Engines built from here on start their threads on any CPU.
  if (!rotate_cpus.empty()) SetAffinity(rotate_cpus);
  return true;
}

/// Expected rows of every pool statement, from the reference configuration,
/// as digests, computed on up to four threads.
struct Expected {
  std::vector<RowsDigest> digest;
  std::vector<char> ok;
};

Expected ComputeExpected(const Workload& w, const Database& db) {
  Expected e;
  size_t n = w.pool.size();
  e.digest.resize(n);
  e.ok.assign(n, 0);
  QueryEngine reference(db, ReferenceConfig());
  unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t k = t; k < n; k += threads) {
        auto r = reference.Run(StatementAt(w, static_cast<int64_t>(k)));
        if (!r.ok()) continue;
        e.digest[k] = DigestRows(r->rows);
        e.ok[k] = 1;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return e;
}

std::string ExpectedHeader(const Workload& w, uint64_t seed) {
  return "perfbench-expected " + w.name + " " + std::to_string(seed) + " " +
         std::to_string(w.pool.size());
}

bool WriteExpected(const std::string& path, const std::string& header,
                   const Expected& e) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (size_t k = 0; k < e.digest.size(); ++k) {
    std::fprintf(f, "%d %llu %llu\n", e.ok[k] ? 1 : 0,
                 static_cast<unsigned long long>(e.digest[k].sum),
                 static_cast<unsigned long long>(e.digest[k].rows));
  }
  return std::fclose(f) == 0;
}

/// Reads a file written by WriteExpected; false unless it holds exactly the
/// expected rows of this workload's stream at this seed.
bool ReadExpected(const std::string& path, const std::string& header,
                  size_t n, Expected* e) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string line(header.size() + 2, '\0');
  bool ok = std::fgets(line.data(), static_cast<int>(line.size()), f) &&
            line.c_str() == header + "\n";
  e->digest.assign(n, RowsDigest{});
  e->ok.assign(n, 0);
  for (size_t k = 0; ok && k < n; ++k) {
    int flag = 0;
    unsigned long long sum = 0, rows = 0;
    ok = std::fscanf(f, "%d %llu %llu", &flag, &sum, &rows) == 3;
    e->ok[k] = flag == 1;
    e->digest[k] = RowsDigest{sum, rows};
  }
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// The closed loop.

/// What the traced run records about one statement.
struct QueryTrace {
  int64_t index = 0;
  double latency_us = 0;          ///< QueryEngine::Run, retries included
  double engine_prepare_us = 0;   ///< PreparedQuery::optimize_ms
  double engine_execute_us = 0;   ///< QueryResult::execute_ms
  bool engine_hit = false;
  StepTimes steps;
  bool same_plan = true;
  bool same_rows = true;
  // Engine-reported counts of the Run (optimizer counts only on misses).
  cbqt::CbqtStats cbqt;
  cbqt::ExecStats exec;
  int64_t result_rows = 0;
  double root_est_rows = 0;
};

struct SessionOut {
  int64_t completed = 0;  ///< statements that returned rows
  /// Reservoir sample of the completed statements' latencies and stream
  /// indices (all of them up to kMaxSamplesPerSession).
  std::vector<double> latency_ms;
  std::vector<int64_t> latency_index;
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t throttle_retries = 0;
  int64_t trace_mismatches = 0;
  std::vector<int64_t> digest_mismatch;  ///< indices to re-check
  std::vector<std::string> messages;
  std::vector<QueryTrace> traces;
  SpanLog spans;
  int64_t cpu_moves = 0;
};

struct Phase {
  std::vector<double> latency_ms;      ///< sampled, see SessionOut
  std::vector<int64_t> latency_index;  ///< stream index of each sample
  std::map<std::string, std::vector<double>> tenant_latency_ms;
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t wrong_rows = 0;
  int64_t trace_mismatches = 0;
  int64_t throttle_retries = 0;
  double wall_s = 0;
  double cpu_s = 0;
  int64_t cpu_moves = 0;
  std::vector<std::string> messages;
  std::vector<QueryTrace> traces;  ///< traced only, by index
  std::vector<SpanLog> spans;
  cbqt::SchedulerStats sched_delta;
  cbqt::PlanCacheStats plan_cache;
};

Result<QueryResult> RunWithRetry(const QueryEngine& engine,
                                 const std::string& sql,
                                 const QueryOptions& opts, cbqt::Rng& rng,
                                 int64_t* retries) {
  auto result = engine.Run(sql, opts);
  for (int attempt = 1;
       attempt <= kMaxThrottleRetries && !result.ok() &&
       result.status().code() == cbqt::StatusCode::kTenantThrottled;
       ++attempt) {
    ++*retries;
    // Honor the scheduler's retry-after hint with +/-50% jitter.
    double hint = cbqt::RetryAfterMs(result.status());
    if (hint <= 0) hint = 25;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        hint * attempt * (0.5 + rng.NextDouble())));
    result = engine.Run(sql, opts);
  }
  return result;
}

void AddMessage(SessionOut* out, const std::string& m) {
  if (out->messages.size() < kMaxMessages) out->messages.push_back(m);
}

void RunSession(const Workload& w, const QueryEngine& engine,
                const Pipeline* pipeline, const Expected& expected,
                std::atomic<int64_t>* next, int64_t deadline_ns,
                int64_t min_count, int64_t max_count, int session,
                const std::vector<int>& rotate_cpus, SessionOut* out) {
  QueryOptions opts;
  opts.tenant = w.session_tenants[static_cast<size_t>(session)];
  cbqt::Rng rng(0x5e55107ull + static_cast<uint64_t>(session));
  const int64_t pool = static_cast<int64_t>(w.pool.size());
  CpuRotation rotation(rotate_cpus, kRotateIntervalNs);
  while (true) {
    rotation.Tick();
    int64_t i = next->fetch_add(1);
    if (i >= max_count || (i >= min_count && NowNs() >= deadline_ns)) break;
    std::string sql = StatementAt(w, i);
    ++out->attempted;
    int64_t start = NowNs();
    auto r = RunWithRetry(engine, sql, opts, rng, &out->throttle_retries);
    int64_t end = NowNs();
    if (pipeline != nullptr) {
      out->spans.Add({i, "engine.QueryEngine::Run", "", start, end});
    }
    if (!r.ok()) {
      ++out->errors;
      AddMessage(out, "statement " + std::to_string(i) + ": " +
                          r.status().ToString());
      continue;
    }
    const size_t k = static_cast<size_t>(i % pool);
    RowsDigest digest = DigestRows(r->rows);
    if (!expected.ok[k] || digest != expected.digest[k]) {
      out->digest_mismatch.push_back(i);
    }
    double ms = static_cast<double>(end - start) / 1e6;
    ++out->completed;
    if (out->latency_ms.size() < kMaxSamplesPerSession) {
      out->latency_ms.push_back(ms);
      out->latency_index.push_back(i);
    } else {
      uint64_t slot = rng.NextUint(static_cast<uint64_t>(out->completed));
      if (slot < kMaxSamplesPerSession) {
        out->latency_ms[slot] = ms;
        out->latency_index[slot] = i;
      }
    }
    if (pipeline == nullptr) continue;

    // Traced: the same statement once more through the hand-wired
    // pipeline, which must choose the same plan and return the same rows.
    QueryTrace t;
    t.index = i;
    t.latency_us = static_cast<double>(end - start) / 1e3;
    t.engine_prepare_us = r->prepared.optimize_ms * 1e3;
    t.engine_execute_us = r->execute_ms * 1e3;
    t.engine_hit = r->prepared.from_plan_cache;
    t.cbqt = r->prepared.stats;
    t.exec = r->exec;
    t.result_rows = static_cast<int64_t>(r->rows.size());
    t.root_est_rows = r->prepared.plan->est_rows;
    PipelineResult p = pipeline->Run(i, sql, &out->spans);
    t.steps = p.times;
    if (!p.status.ok()) {
      t.same_plan = t.same_rows = false;
      AddMessage(out, "pipeline, statement " + std::to_string(i) + ": " +
                          p.status.ToString());
    } else {
      t.same_plan =
          cbqt::PlanShape(*p.plan) == cbqt::PlanShape(*r->prepared.plan);
      t.same_rows = cbqt::RowMultisetsEqual(p.rows, r->rows);
      if (!t.same_plan || !t.same_rows) {
        AddMessage(out, "pipeline diverged from QueryEngine::Run on "
                        "statement " + std::to_string(i) +
                            (t.same_plan ? " (rows)" : " (plan)"));
      }
    }
    if (!t.same_plan || !t.same_rows) ++out->trace_mismatches;
    out->traces.push_back(std::move(t));
  }
  out->cpu_moves = rotation.moves();
}

/// Runs the closed loop for `seconds` (and at least `min_count`, at most
/// `max_count` statements), then re-checks every digest mismatch with a full
/// canonical comparison against the reference engine.
/// Each session rotates over `rotate_cpus` (cpu_rotation.h); an empty list
/// leaves the sessions where the scheduler puts them.
Phase RunPhase(const Workload& w, const QueryEngine& engine,
               const Pipeline* pipeline, const Expected& expected,
               double seconds, int64_t min_count, int64_t max_count,
               const std::vector<int>& rotate_cpus) {
  Phase phase;
  std::vector<SessionOut> sessions(static_cast<size_t>(w.sessions));
  std::atomic<int64_t> next{0};
  cbqt::SchedulerStats sched_before = engine.scheduler_stats();
  double cpu_start = ProcessCpuSeconds();
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int s = 0; s < w.sessions; ++s) {
    threads.emplace_back(RunSession, std::cref(w), std::cref(engine),
                         pipeline, std::cref(expected), &next, deadline,
                         min_count, max_count, s, std::cref(rotate_cpus),
                         &sessions[static_cast<size_t>(s)]);
  }
  for (auto& t : threads) t.join();
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (const SessionOut& out : sessions) phase.cpu_moves += out.cpu_moves;
  cbqt::SchedulerStats sched_after = engine.scheduler_stats();
  phase.sched_delta.admitted = sched_after.admitted - sched_before.admitted;
  phase.sched_delta.queued = sched_after.queued - sched_before.queued;
  phase.sched_delta.throttled = sched_after.throttled - sched_before.throttled;
  phase.plan_cache = engine.plan_cache_stats();

  // Outside the timed window: confirm digest mismatches row by row.
  QueryEngine reference(engine.db(), ReferenceConfig());
  for (size_t s = 0; s < sessions.size(); ++s) {
    SessionOut& out = sessions[s];
    for (int64_t i : out.digest_mismatch) {
      std::string sql = StatementAt(w, i);
      auto got = engine.Run(sql, QueryOptions{w.session_tenants[s], nullptr});
      auto want = reference.Run(sql);
      if (got.ok() && want.ok()) {
        cbqt::RowSetDiff diff = cbqt::CompareRowMultisets(got->rows,
                                                          want->rows);
        if (diff.equal) continue;
        AddMessage(&out, "wrong rows, statement " + std::to_string(i) + ": " +
                             diff.message);
      } else {
        AddMessage(&out, "statement " + std::to_string(i) +
                             " failed on re-check");
      }
      ++phase.wrong_rows;
    }
    phase.attempted += out.attempted;
    phase.succeeded += out.completed;
    phase.failed += out.errors;
    phase.trace_mismatches += out.trace_mismatches;
    phase.throttle_retries += out.throttle_retries;
    std::vector<double>& tenant =
        phase.tenant_latency_ms[w.session_tenants[s]];
    tenant.insert(tenant.end(), out.latency_ms.begin(), out.latency_ms.end());
    phase.latency_ms.insert(phase.latency_ms.end(), out.latency_ms.begin(),
                            out.latency_ms.end());
    phase.latency_index.insert(phase.latency_index.end(),
                               out.latency_index.begin(),
                               out.latency_index.end());
    for (auto& m : out.messages) {
      if (phase.messages.size() < kMaxMessages) phase.messages.push_back(m);
    }
    for (auto& t : out.traces) phase.traces.push_back(std::move(t));
    phase.spans.push_back(std::move(out.spans));
  }
  phase.failed += phase.wrong_rows + phase.trace_mismatches;
  phase.succeeded -= phase.wrong_rows + phase.trace_mismatches;
  std::sort(phase.traces.begin(), phase.traces.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              return a.index < b.index;
            });
  return phase;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintPhase(const char* label, const Workload& w, const Phase& p) {
  const long long beyond_p99 =
      CountAbove(p.latency_ms, Percentile(p.latency_ms, 0.99));
  std::printf(
      "%s: %s, %d closed-loop session(s), %lld attempted, %lld failed "
      "(%lld wrong rows, %lld trace divergences), %lld throttle retries, "
      "%.2f s wall, %lld succeeded, %zu latency samples, %lld beyond p99, "
      "%lld cpu moves\n",
      label, w.name.c_str(), w.sessions, static_cast<long long>(p.attempted),
      static_cast<long long>(p.failed), static_cast<long long>(p.wrong_rows),
      static_cast<long long>(p.trace_mismatches),
      static_cast<long long>(p.throttle_retries), p.wall_s,
      static_cast<long long>(p.succeeded), p.latency_ms.size(), beyond_p99,
      static_cast<long long>(p.cpu_moves));
  for (const std::string& m : p.messages) {
    std::printf("  failure: %s\n", m.c_str());
  }
}

std::vector<Metric> EndToEndMetrics(const Phase& p, const Setup& setup) {
  return {
      {"qps", Ratio(static_cast<double>(p.succeeded), p.wall_s), "1/s"},
      {"latency_p50_ms", Percentile(p.latency_ms, 0.5), "ms"},
      {"latency_p99_ms", Percentile(p.latency_ms, 0.99), "ms"},
      {"cpu_ms_per_query",
       Ratio(p.cpu_s * 1e3, static_cast<double>(p.succeeded)), "ms"},
      {"setup_s", setup.setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Transformation names reported under cbqt.states.<name>, in the §3.1
/// order the framework runs them.
const char* const kTransformations[] = {
    "unnest-view",      "groupby-view-merge", "setop-to-join",
    "groupby-placement", "predicate-pullup",  "join-factorization",
    "or-expansion",     "jppd"};

/// Per-query self time of each layer (see README.md, "Per-layer metrics").
struct SelfTimes {
  double parser = 0, binder = 0, transform = 0, cbqt = 0, optimizer = 0,
         plan_cache = 0, exec = 0, scheduler = 0;
  double total() const {
    return parser + binder + transform + cbqt + optimizer + plan_cache +
           exec + scheduler;
  }
};

double SchedulerWaitUs(const QueryTrace& t) {
  return t.latency_us - t.engine_prepare_us - t.engine_execute_us;
}

double SearchSelfUs(const QueryTrace& t) {
  return t.steps.optimize_us - t.steps.bind_us - t.steps.heuristic_us -
         t.steps.final_plan_us;
}

SelfTimes Attribute(const QueryTrace& t) {
  SelfTimes s;
  s.parser = t.steps.parse_us;
  s.plan_cache = t.steps.plan_cache_us;
  if (!t.steps.hit) {
    s.binder = t.steps.bind_us;
    s.transform = t.steps.heuristic_us;
    s.optimizer = t.steps.final_plan_us;
    s.cbqt = SearchSelfUs(t);
  }
  s.exec = t.steps.execute_us;
  s.scheduler = SchedulerWaitUs(t);
  return s;
}

/// Traced p50 over untraced p50, both over the statements both phases ran
/// (the stream prefix), so the ratio compares the same statements.
double OverheadRatio(const Phase& untraced, const Phase& traced) {
  auto end_of = [](const Phase& p) {
    int64_t end = 0;
    for (int64_t i : p.latency_index) end = std::max(end, i + 1);
    return end;
  };
  int64_t limit = std::min(end_of(untraced), end_of(traced));
  auto median_below = [limit](const Phase& p) {
    std::vector<double> v;
    for (size_t k = 0; k < p.latency_ms.size(); ++k) {
      if (p.latency_index[k] < limit) v.push_back(p.latency_ms[k]);
    }
    return Median(std::move(v));
  };
  return Ratio(median_below(traced), median_below(untraced));
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const Setup& setup,
                                    const Phase& untraced,
                                    const Phase& traced,
                                    const std::vector<double>& probe_hit_us,
                                    double* coverage_out) {
  std::vector<double> parse, bind, heuristic, hit_prepare, miss_prepare,
      optimize, search_self, final_plan, execute, wait, latency;
  SelfTimes self;
  for (const QueryTrace& t : traced.traces) {
    parse.push_back(t.steps.parse_us);
    bind.push_back(t.steps.bind_us);
    heuristic.push_back(t.steps.heuristic_us);
    execute.push_back(t.steps.execute_us);
    wait.push_back(SchedulerWaitUs(t));
    latency.push_back(t.latency_us);
    double prepare = t.steps.parse_us + t.steps.plan_cache_us;
    if (t.steps.hit) {
      hit_prepare.push_back(prepare);
    } else {
      miss_prepare.push_back(prepare + t.steps.optimize_us);
      optimize.push_back(t.steps.optimize_us);
      search_self.push_back(SearchSelfUs(t));
      final_plan.push_back(t.steps.final_plan_us);
    }
    SelfTimes s = Attribute(t);
    self.parser += s.parser;
    self.binder += s.binder;
    self.transform += s.transform;
    self.cbqt += s.cbqt;
    self.optimizer += s.optimizer;
    self.plan_cache += s.plan_cache;
    self.exec += s.exec;
    self.scheduler += s.scheduler;
  }
  if (hit_prepare.empty()) hit_prepare = probe_hit_us;

  // Counts over the fixed prefix of the stream (deterministic on a
  // single-session workload at a fixed seed).
  double n = 0, hits = 0, states = 0, blocks = 0, ann_hits = 0, jm_hits = 0,
         jm_misses = 0, rows_processed = 0, result_rows = 0, sq_exec = 0,
         sq_hits = 0, spill_bytes = 0;
  std::map<std::string, double> states_by_t;
  std::vector<double> qerror;
  for (const QueryTrace& t : traced.traces) {
    if (t.index >= w.count_prefix) continue;
    n += 1;
    if (t.engine_hit) {
      hits += 1;
    } else {
      states += t.cbqt.states_evaluated;
      blocks += static_cast<double>(t.cbqt.blocks_planned);
      ann_hits += static_cast<double>(t.cbqt.annotation_hits);
      jm_hits += static_cast<double>(t.cbqt.join_memo_hits);
      jm_misses += static_cast<double>(t.cbqt.join_memo_misses);
      for (const auto& [name, count] : t.cbqt.states_per_transformation) {
        states_by_t[name] += count;
      }
    }
    rows_processed += static_cast<double>(t.exec.rows_processed);
    result_rows += static_cast<double>(t.result_rows);
    sq_exec += static_cast<double>(t.exec.subquery_executions);
    sq_hits += static_cast<double>(t.exec.subquery_cache_hits);
    spill_bytes += static_cast<double>(t.exec.spill.bytes_written);
    double est = std::max(1.0, t.root_est_rows);
    double act = std::max(1.0, static_cast<double>(t.result_rows));
    qerror.push_back(std::max(est / act, act / est));
  }

  std::vector<double> tenant_p99;
  for (const auto& [tenant, lat] : traced.tenant_latency_ms) {
    if (!lat.empty()) tenant_p99.push_back(Percentile(lat, 0.99));
  }
  double spread = 1;
  if (!tenant_p99.empty()) {
    spread = Ratio(*std::max_element(tenant_p99.begin(), tenant_p99.end()),
                   *std::min_element(tenant_p99.begin(), tenant_p99.end()));
  }

  const double count = static_cast<double>(traced.traces.size());
  double layer_total = self.total();
  std::printf("self-time shares: parser %.3f, binder %.3f, transform %.3f, "
              "cbqt %.3f, optimizer %.3f, plan_cache %.3f, exec %.3f, "
              "scheduler %.3f\n",
              Ratio(self.parser, layer_total), Ratio(self.binder, layer_total),
              Ratio(self.transform, layer_total),
              Ratio(self.cbqt, layer_total),
              Ratio(self.optimizer, layer_total),
              Ratio(self.plan_cache, layer_total),
              Ratio(self.exec, layer_total),
              Ratio(self.scheduler, layer_total));
  double latency_total = 0;
  for (double l : latency) latency_total += l;
  *coverage_out = Ratio(layer_total, latency_total);

  std::vector<Metric> m = {
      {"parser.parse_us_p50", Median(parse), "us"},
      {"binder.bind_us_p50", Median(bind), "us"},
      {"plan_cache.hit_prepare_us_p50", Median(hit_prepare), "us"},
      {"plan_cache.miss_prepare_us_p50", Median(miss_prepare), "us"},
      {"plan_cache.hit_ratio", Ratio(hits, n), "ratio"},
      {"plan_cache.evictions",
       static_cast<double>(traced.plan_cache.evictions), "count"},
      {"plan_cache.memory_mb",
       static_cast<double>(traced.plan_cache.memory_bytes) / (1 << 20), "MB"},
      {"scheduler.wait_us_p50", Median(wait), "us"},
      {"scheduler.wait_us_p99", Percentile(wait, 0.99), "us"},
      {"scheduler.queued_ratio",
       Ratio(static_cast<double>(traced.sched_delta.queued),
             static_cast<double>(traced.sched_delta.admitted)),
       "ratio"},
      {"scheduler.throttled",
       static_cast<double>(traced.sched_delta.throttled), "count"},
      {"scheduler.tenant_p99_spread", spread, "ratio"},
      {"cbqt.optimize_us_p50", Median(optimize), "us"},
      {"cbqt.optimize_us_p99", Percentile(optimize, 0.99), "us"},
      {"cbqt.search_self_us_p50", Median(search_self), "us"},
      {"cbqt.states_per_query", Ratio(states, n), "count"},
      {"cbqt.blocks_planned_per_query", Ratio(blocks, n), "count"},
      {"cbqt.annotation_hit_ratio", Ratio(ann_hits, ann_hits + blocks),
       "ratio"},
      {"cbqt.join_memo_hit_ratio", Ratio(jm_hits, jm_hits + jm_misses),
       "ratio"},
  };
  for (const char* name : kTransformations) {
    m.push_back({std::string("cbqt.states.") + name,
                 Ratio(states_by_t[name], n), "count"});
  }
  std::vector<Metric> rest = {
      {"transform.heuristic_us_p50", Median(heuristic), "us"},
      {"optimizer.final_plan_us_p50", Median(final_plan), "us"},
      {"optimizer.root_qerror_p50", Percentile(qerror, 0.5), "ratio"},
      {"optimizer.root_qerror_p90", Percentile(qerror, 0.9), "ratio"},
      {"exec.execute_us_p50", Median(execute), "us"},
      {"exec.execute_us_p99", Percentile(execute, 0.99), "us"},
      {"exec.rows_processed_per_query", Ratio(rows_processed, n), "count"},
      {"exec.rows_per_result_row", Ratio(rows_processed, result_rows),
       "ratio"},
      {"exec.subquery_cache_hit_ratio", Ratio(sq_hits, sq_hits + sq_exec),
       "ratio"},
      {"exec.spill_bytes_per_query", Ratio(spill_bytes, n), "B"},
      {"storage.build_s", setup.build_s, "s"},
      {"trace.coverage", *coverage_out, "ratio"},
      {"trace.overhead_ratio", OverheadRatio(untraced, traced), "ratio"},
      {"parser.self_us_mean", Ratio(self.parser, count), "us"},
      {"binder.self_us_mean", Ratio(self.binder, count), "us"},
      {"transform.self_us_mean", Ratio(self.transform, count), "us"},
      {"cbqt.self_us_mean", Ratio(self.cbqt, count), "us"},
      {"optimizer.self_us_mean", Ratio(self.optimizer, count), "us"},
      {"plan_cache.self_us_mean", Ratio(self.plan_cache, count), "us"},
      {"exec.self_us_mean", Ratio(self.exec, count), "us"},
      {"scheduler.self_us_mean", Ratio(self.scheduler, count), "us"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Prepare time of plan-cache hits when the traced stream had none (the
/// search stream never repeats a shape): the first statements of the
/// stream submitted once more through the pipeline, now as hits.
std::vector<double> ProbeHitPrepare(const Workload& w, const Pipeline& p,
                                    const Phase& traced) {
  std::vector<double> out;
  SpanLog probe_spans;
  for (const QueryTrace& t : traced.traces) {
    if (out.size() >= 64) break;
    PipelineResult r = p.Run(t.index, StatementAt(w, t.index), &probe_spans);
    if (r.status.ok() && r.times.hit) {
      out.push_back(r.times.parse_us + r.times.plan_cache_us);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analytic|search|oltp --seed N "
                 "--seconds S --trace 0|1 --expected FILE [--spans-dir DIR]\n"
                 "       perfbench --workload W --seed N --write-expected "
                 "FILE\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string header = ExpectedHeader(w, args.seed);
  if (!args.write_expected.empty()) {
    // Expected rows in a process of their own, so that the measured
    // process's peak memory holds none of the reference engine's.
    Database db;
    cbqt::Status st = cbqt::BuildHrDatabase(w.schema, &db);
    if (!st.ok()) return 1;
    int64_t start = NowNs();
    Expected e = ComputeExpected(w, db);
    if (!WriteExpected(args.write_expected, header, e)) return 1;
    std::printf("expected rows for %zu statements in %.2f s\n",
                w.pool.size(), SecondsSince(start));
    return 0;
  }
  // A one-session run rotates over every CPU (cpu_rotation.h); the sessions
  // of a multi-session run go wherever the scheduler puts them.
  std::vector<int> rotate_cpus;
  if (w.sessions == 1) rotate_cpus = AllowedCpus();
  Setup setup;
  if (!RunSetup(w, rotate_cpus, &setup)) return 1;
  Expected expected;
  if (!ReadExpected(args.expected, header, w.pool.size(), &expected)) {
    std::fprintf(stderr, "cannot read expected rows from %s\n",
                 args.expected.c_str());
    return 1;
  }
  int64_t reference_failures =
      std::count(expected.ok.begin(), expected.ok.end(), 0);
  std::printf("set-up %.3f s (database build %.3f s), peak RSS %.1f MB, "
              "%lld reference failures in %zu expected results\n",
              setup.setup_s, setup.build_s, PeakRssMb(),
              static_cast<long long>(reference_failures), w.pool.size());

  if (!args.trace) {
    Phase p = RunPhase(w, *setup.engine, nullptr, expected, args.seconds, 0,
                       INT64_MAX, rotate_cpus);
    PrintPhase("untraced", w, p);
    std::printf("  failure_rate %.6f\n",
                Ratio(static_cast<double>(p.failed),
                      static_cast<double>(p.attempted)));
    bool correct = p.failed == 0 && reference_failures == 0;
    PrintResult(correct, p.attempted, p.failed, EndToEndMetrics(p, setup));
    return 0;
  }

  // Traced mode: an untraced phase for the overhead baseline, then the
  // traced phase, each on a fresh engine so both start from the same cache
  // state as the end-to-end run.
  setup.engine.reset();
  Phase untraced;
  {
    QueryEngine engine(*setup.db, w.config);
    if (!WarmUp(engine)) return 1;
    untraced = RunPhase(w, engine, nullptr, expected, args.seconds / 2,
                        w.count_prefix, INT64_MAX, rotate_cpus);
  }
  PrintPhase("untraced", w, untraced);
  QueryEngine engine(*setup.db, w.config);
  if (!WarmUp(engine)) return 1;
  Pipeline pipeline(*setup.db, w.config);
  SpanLog warmup_spans;
  if (!pipeline.Run(-1, WarmupStatement(), &warmup_spans).status.ok()) {
    return 1;
  }
  Phase traced = RunPhase(w, engine, &pipeline, expected, args.seconds / 2,
                          w.count_prefix, kMaxTracedStatements, rotate_cpus);
  PrintPhase("traced", w, traced);
  std::vector<double> probe;
  bool any_hit = std::any_of(traced.traces.begin(), traced.traces.end(),
                             [](const QueryTrace& t) { return t.steps.hit; });
  if (!any_hit) probe = ProbeHitPrepare(w, pipeline, traced);

  std::string spans_path = args.spans_dir + "/spans-" + w.name + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (!WriteSpans(spans_path, traced.spans)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  double coverage = 0;
  std::vector<Metric> metrics =
      PerLayerMetrics(w, setup, untraced, traced, probe, &coverage);
  bool coverage_ok = coverage >= kCoverageLow && coverage <= kCoverageHigh;
  std::printf("spans written to %s; trace coverage %.3f (tolerance "
              "[%.2f, %.2f])%s\n",
              spans_path.c_str(), coverage, kCoverageLow, kCoverageHigh,
              coverage_ok ? "" : " OUT OF TOLERANCE");
  int64_t attempted = untraced.attempted + traced.attempted;
  int64_t failed = untraced.failed + traced.failed;
  bool correct = failed == 0 && reference_failures == 0 && coverage_ok;
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
