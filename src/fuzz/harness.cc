#include "fuzz/harness.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "binder/binder.h"
#include "common/result_compare.h"
#include "common/str_util.h"
#include "fuzz/mutator.h"
#include "fuzz/shrinker.h"
#include "parser/parser.h"
#include "sql/unparser.h"
#include "workload/runner.h"

namespace cbqt {

namespace {

uint64_t MixSeed(uint64_t seed, uint64_t i) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// True when `sql` parses and binds to a block equal to `bound`.
bool ReparsesToEqualBlock(const Database& db, const std::string& sql,
                          const QueryBlock& bound) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return false;
  if (!BindQuery(db, parsed.value().get()).ok()) return false;
  return BlockEquals(bound, *parsed.value());
}

}  // namespace

SchemaConfig FuzzSchemaConfig() {
  SchemaConfig cfg;
  // Small enough for thousands of naive reference executions, big enough
  // that joins produce rows, group-bys have groups, and the spill deck
  // entry actually spills.
  cfg.locations = 12;
  cfg.departments = 20;
  cfg.jobs = 10;
  cfg.employees = 120;
  cfg.job_history = 150;
  cfg.customers = 40;
  cfg.orders = 150;
  cfg.order_items = 300;
  cfg.products = 25;
  cfg.accounts = 8;
  cfg.months = 12;
  cfg.seed = 20260809;
  return cfg;
}

Status BuildFuzzDatabase(Database* db) {
  return BuildHrDatabase(FuzzSchemaConfig(), db);
}

std::string FuzzReport::Summary() const {
  std::ostringstream os;
  os << "fuzz: " << queries << " queries + " << mutants << " mutants, "
     << executions << " differential executions in "
     << static_cast<int64_t>(elapsed_ms) << " ms; " << guardrail_aborts
     << " guardrail aborts, " << injected_faults << " injected faults, "
     << spilled_operators << " spilled operators, "
     << parse_rejects << " parse rejects, " << roundtrip_failures
     << " round-trip failures, " << mutant_invalid << " invalid mutants, "
     << ref_errors << " reference errors, " << failures.size()
     << " divergences";
  if (serde_roundtrips > 0) {
    os << ", " << serde_roundtrips << " plan serde round-trips";
  }
  for (const auto& f : failures) {
    os << "\n  [" << f.config_name << "] " << f.message << "\n    "
       << f.shrunk_sql;
    if (!f.file.empty()) os << "\n    dumped: " << f.file;
  }
  return os.str();
}

FuzzReport RunFuzz(const Database& db, const FuzzOptions& options) {
  FuzzReport report;
  double start = NowMs();

  std::vector<DifferentialOracle::Entry> deck =
      DifferentialOracle::DefaultDeck();
  if (!options.fault_sites.empty()) {
    auto injector = FaultInjector::Parse(options.fault_sites,
                                         options.fault_seed);
    if (!injector.ok()) {
      FuzzRepro bad;
      bad.config_name = "fault-spec";
      bad.message = injector.status().ToString();
      report.failures.push_back(std::move(bad));
      return report;
    }
    for (auto& e : deck) e.config.fault_injector = injector.value();
  }
  DifferentialOracle oracle(db, std::move(deck), options.canary);
  oracle.set_serde_roundtrip(options.serde_roundtrip);

  // Minimizes `failing_sql` (when shrinking is on), dumps the repro, and
  // appends it to the report. Shrinking re-runs the whole deck per
  // candidate, so only the first few failures pay for it.
  int shrunk_count = 0;
  auto record_failure = [&](uint64_t round_seed, const DiffFailure& f) {
    FuzzRepro repro;
    repro.seed = round_seed;
    repro.original_sql = f.sql;
    repro.shrunk_sql = f.sql;
    repro.config_name = f.config_name;
    repro.message = f.message;
    if (options.shrink && shrunk_count < 5) {
      ++shrunk_count;
      auto still_fails = [&](const std::string& cand) {
        auto ref = oracle.Reference(cand);
        if (!ref.ok()) return false;
        std::vector<Row> expected = std::move(ref.value());
        SortRowsCanonical(&expected);
        OracleOutcome o;
        oracle.Check(cand, expected, &o);
        return !o.failures.empty();
      };
      ShrinkResult shrunk = ShrinkQuery(f.sql, still_fails, /*max_evals=*/150);
      repro.shrunk_sql = shrunk.sql;
    }
    if (!options.corpus_dir.empty()) {
      std::string path = options.corpus_dir + "/repro_" +
                         std::to_string(round_seed) + "_" +
                         std::to_string(report.failures.size()) + ".sql";
      std::ofstream out(path);
      if (out) {
        out << "-- cbqt fuzz repro\n";
        out << "-- seed: " << round_seed << "\n";
        out << "-- config: " << repro.config_name << "\n";
        out << "-- diff: " << repro.message << "\n";
        out << repro.shrunk_sql << "\n";
        repro.file = path;
      }
    }
    report.failures.push_back(std::move(repro));
  };

  for (int round = 0; round < options.rounds; ++round) {
    double elapsed = NowMs() - start;
    if (options.time_box_ms > 0 && elapsed >= options.time_box_ms) break;

    uint64_t round_seed = MixSeed(options.seed, static_cast<uint64_t>(round));
    std::string sql = GenerateFuzzQuery(round_seed, FuzzSchemaConfig(),
                                        options.gen);

    // Leg 1: every generated query parses and binds.
    auto parsed = ParseSql(sql);
    if (!parsed.ok() ||
        !BindQuery(db, parsed.value().get()).ok()) {
      ++report.parse_rejects;
      record_failure(round_seed,
                     {"generator", sql,
                      parsed.ok() ? "generated query failed to bind"
                                  : "generated query failed to parse: " +
                                        parsed.status().ToString()});
      continue;
    }

    // Leg 2: unparser round-trip — Parse(BlockToSql(q)) re-binds to a
    // block equal to the bound original (BlockEquals: no reordering is
    // forgiven).
    std::string rendered = BlockToSql(*parsed.value());
    if (!ReparsesToEqualBlock(db, rendered, *parsed.value())) {
      ++report.roundtrip_failures;
      record_failure(round_seed,
                     {"roundtrip", sql,
                      "unparse->reparse block mismatch; rendered: " +
                          rendered});
      continue;
    }

    // Leg 3: reference execution of the original.
    auto ref = oracle.Reference(sql);
    if (!ref.ok()) {
      ++report.ref_errors;
      record_failure(round_seed,
                     {"reference", sql,
                      "reference error: " + ref.status().ToString()});
      continue;
    }
    std::vector<Row> expected = std::move(ref.value());
    SortRowsCanonical(&expected);
    ++report.queries;

    // Leg 4: metamorphic mutants must agree with the original on the
    // reference interpreter before they are worth differencing.
    std::vector<std::string> mutants = GenerateEquivalentMutants(
        sql, options.mutants_per_query, MixSeed(round_seed, 0x6d7574));
    std::vector<std::string> to_check{sql};
    for (auto& m : mutants) {
      auto mref = oracle.Reference(m);
      if (!mref.ok()) {
        ++report.mutant_invalid;
        record_failure(round_seed,
                       {"mutant-reference", m,
                        "mutant reference error (original ok): " +
                            mref.status().ToString()});
        continue;
      }
      std::vector<Row> mrows = std::move(mref.value());
      SortRowsCanonical(&mrows);
      RowSetDiff diff = CompareRowMultisets(mrows, expected);
      if (!diff.equal) {
        ++report.mutant_invalid;
        record_failure(round_seed,
                       {"mutant-reference", m,
                        "mutant reference rows diverge from original: " +
                            diff.message});
        continue;
      }
      ++report.mutants;
      to_check.push_back(std::move(m));
    }

    // Leg 5: the differential deck.
    for (const auto& q : to_check) {
      OracleOutcome outcome;
      oracle.Check(q, expected, &outcome);
      report.executions += outcome.executions;
      report.guardrail_aborts += outcome.guardrail_aborts;
      report.injected_faults += outcome.injected_faults;
      report.serde_roundtrips += outcome.serde_roundtrips;
      report.spilled_operators += outcome.spilled_operators;
      for (const auto& f : outcome.failures) record_failure(round_seed, f);
    }
  }

  report.elapsed_ms = NowMs() - start;
  return report;
}

Status ReplayCorpusFile(const Database& db, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("corpus file not readable: " + path);
  std::string line, sql;
  while (std::getline(in, line)) {
    if (StartsWith(line, "--")) continue;
    if (!sql.empty()) sql += " ";
    sql += line;
  }
  while (!sql.empty() && (sql.back() == ' ' || sql.back() == '\n')) {
    sql.pop_back();
  }
  if (sql.empty()) return Status::InvalidArgument("empty corpus file: " + path);

  DifferentialOracle oracle(db, DifferentialOracle::DefaultDeck());
  auto ref = oracle.Reference(sql);
  if (!ref.ok()) {
    return Status::Internal("corpus reference error (" + path +
                            "): " + ref.status().ToString());
  }
  std::vector<Row> expected = std::move(ref.value());
  SortRowsCanonical(&expected);
  OracleOutcome outcome;
  oracle.Check(sql, expected, &outcome);
  if (!outcome.failures.empty()) {
    const DiffFailure& f = outcome.failures.front();
    return Status::Internal("corpus repro still diverges (" + path + ") [" +
                            f.config_name + "]: " + f.message);
  }
  return Status::OK();
}

}  // namespace cbqt
