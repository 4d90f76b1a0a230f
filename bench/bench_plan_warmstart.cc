// Plan persistence benchmark: snapshot warm-start and serde identity, results
// written to BENCH_plan_warmstart.json. Two legs, each self-asserting:
//
//   1. Snapshot warm-start — a fresh engine loading a persisted plan-cache
//      snapshot serves its *first* Prepare of a heavy statement from the
//      warm cache. Gate: >= 10x faster than a cold optimize, and the served
//      plan is bit-identical (same serialized bytes) to the cold plan.
//   2. Serde execution identity — every fuzz-corpus plan is serialized,
//      deserialized, and executed; the restored plan must produce rows
//      identical to the original's.
//
//   $ ./build/bench/bench_plan_warmstart [--reps N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "common/result_compare.h"
#include "exec/executor.h"
#include "fuzz/harness.h"
#include "optimizer/plan_serde.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

#ifndef CBQT_SOURCE_DIR
#error "CBQT_SOURCE_DIR must point at the repository root"
#endif

using namespace cbqt;

namespace {

// The same Table-2 style statement bench_plan_cache uses: three outer
// tables and four unnestable subqueries, so optimization time dwarfs parse
// + deserialize and the warm-start saving is what is actually measured.
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

std::string Fresh(const char* name) {
  std::filesystem::remove(name);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Plan persistence: snapshot warm-start, serde ===\n");
  int reps = ParseIntArg(argc, argv, "--reps", 5);

  SchemaConfig schema;
  Database db;
  if (Status st = BuildHrDatabase(schema, &db); !st.ok()) {
    std::fprintf(stderr, "schema build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status a = db.Analyze(); !a.ok()) return 1;

  const std::string snapshot = Fresh("bench_warmstart.cbqs");

  // ---- Leg 1: snapshot warm-start vs cold optimize. ----
  // Cold: a fresh engine per rep pays for the full CBQT search.
  double cold_total = 0;
  std::string cold_bytes;
  for (int i = 0; i < reps; ++i) {
    CbqtConfig cfg;
    cfg.plan_cache.capacity = 64;
    QueryEngine engine(db, cfg);
    double t0 = NowMs();
    auto r = engine.Prepare(HeavySql(5000));
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    cold_total += NowMs() - t0;
    if (i == 0) cold_bytes = SerializePlan(*r->plan);
  }
  double cold_ms = cold_total / reps;

  // Seed the snapshot once.
  {
    CbqtConfig cfg;
    cfg.plan_cache.capacity = 64;
    cfg.plan_cache.snapshot_path = snapshot;
    QueryEngine seed(db, cfg);
    if (!seed.Prepare(HeavySql(5000)).ok()) return 1;
    if (Status st = seed.SavePlanSnapshot(); !st.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Warm: a fresh engine per rep loads the snapshot at construction; its
  // FIRST Prepare of the statement must already be a cache hit serving the
  // bit-identical plan. The snapshot load itself is timed separately.
  double load_total = 0, warm_total = 0;
  bool bit_identical = true;
  for (int i = 0; i < reps; ++i) {
    CbqtConfig cfg;
    cfg.plan_cache.capacity = 64;
    cfg.plan_cache.snapshot_path = snapshot;
    double t0 = NowMs();
    QueryEngine engine(db, cfg);
    double t1 = NowMs();
    if (engine.plan_cache_stats().snapshot_loaded != 1) {
      std::fprintf(stderr, "FAIL: snapshot did not warm-start the cache\n");
      return 1;
    }
    auto r = engine.Prepare(HeavySql(5000));
    double t2 = NowMs();
    if (!r.ok() || !r->from_plan_cache) {
      std::fprintf(stderr, "FAIL: warm-start Prepare missed the cache\n");
      return 1;
    }
    load_total += t1 - t0;
    warm_total += t2 - t1;
    if (SerializePlan(*r->plan) != cold_bytes) bit_identical = false;
  }
  double load_ms = load_total / reps;
  double warm_ms = warm_total / reps;
  double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  std::printf("\n  cold optimize:      %8.3f ms  (avg of %d)\n"
              "  snapshot load:      %8.3f ms  (engine construction)\n"
              "  warm-start Prepare: %8.3f ms  (first touch, from snapshot)\n"
              "  speedup:            %8.1fx %s, plans %s\n",
              cold_ms, reps, load_ms, warm_ms, speedup,
              speedup >= 10 ? "(>= 10x target met)" : "(below 10x target)",
              bit_identical ? "bit-identical" : "DIVERGED");

  // ---- Leg 2: serde execution identity over the fuzz corpus. ----
  Database fuzz_db;
  if (!BuildFuzzDatabase(&fuzz_db).ok()) return 1;
  CbqtConfig fuzz_cfg;
  QueryEngine fuzz_engine(fuzz_db, fuzz_cfg);
  std::filesystem::path corpus =
      std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus";
  int corpus_plans = 0;
  bool rows_identical = true;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".sql") continue;
    std::ifstream in(entry.path());
    std::string line, sql;
    while (std::getline(in, line)) {
      if (line.rfind("--", 0) == 0) continue;
      if (!sql.empty()) sql += " ";
      sql += line;
    }
    auto prepared = fuzz_engine.Prepare(sql);
    if (!prepared.ok()) return 1;
    auto restored = DeserializePlan(SerializePlan(*prepared->plan));
    if (!restored.ok()) {
      std::fprintf(stderr, "FAIL: %s did not round-trip: %s\n",
                   entry.path().c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    Executor exec_fresh(fuzz_db), exec_thawed(fuzz_db);
    auto fresh = exec_fresh.Execute(*prepared->plan);
    auto thawed = exec_thawed.Execute(**restored);
    if (!fresh.ok() || !thawed.ok()) return 1;
    SortRowsCanonical(&fresh.value().rows);
    SortRowsCanonical(&thawed.value().rows);
    if (!CompareRowMultisets(thawed.value().rows, fresh.value().rows).equal) {
      rows_identical = false;
    }
    ++corpus_plans;
  }
  std::printf("\n  serde corpus: %d plans executed fresh vs deserialized "
              "(%s)\n",
              corpus_plans, rows_identical ? "row-identical" : "DIVERGED");

  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"cold_optimize_ms\": %.4f,\n"
      "  \"snapshot_load_ms\": %.4f,\n"
      "  \"warm_prepare_ms\": %.4f,\n"
      "  \"warmstart_speedup\": %.2f,\n"
      "  \"bit_identical\": %s,\n"
      "  \"serde_corpus\": {\"plans\": %d, \"row_identical\": %s}\n"
      "}\n",
      cold_ms, load_ms, warm_ms, speedup, bit_identical ? "true" : "false",
      corpus_plans, rows_identical ? "true" : "false");
  if (FILE* f = std::fopen("BENCH_plan_warmstart.json", "w")) {
    std::fputs(buf, f);
    std::fclose(f);
    std::printf("\n  wrote BENCH_plan_warmstart.json\n");
  }

  // ---- gates ----
  if (speedup < 10) {
    std::fprintf(stderr, "FAIL: warm-start speedup %.1fx below 10x\n",
                 speedup);
    return 1;
  }
  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: warm-start plan not bit-identical\n");
    return 1;
  }
  if (corpus_plans == 0 || !rows_identical) {
    std::fprintf(stderr, "FAIL: serde corpus leg\n");
    return 1;
  }
  return 0;
}
