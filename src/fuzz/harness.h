#ifndef CBQT_FUZZ_HARNESS_H_
#define CBQT_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "storage/database.h"
#include "workload/schema_gen.h"

namespace cbqt {

/// The scaled-down HR schema the fuzzer runs against: big enough that
/// joins, spills and group-bys do real work, small enough that the naive
/// reference interpreter stays fast under thousands of executions.
SchemaConfig FuzzSchemaConfig();

/// Builds a database from FuzzSchemaConfig (tables, data, indexes, stats).
Status BuildFuzzDatabase(Database* db);

struct FuzzOptions {
  uint64_t seed = 7;
  int rounds = 1000000;       ///< generated queries (time box usually stops first)
  double time_box_ms = 60000; ///< wall-clock stop; <= 0 means rounds only
  int mutants_per_query = 2;
  bool canary = false;        ///< seed the deliberate wrong-rows bug (tests)
  /// Fault-injection sweep: arms every deck engine with this site spec (see
  /// FaultInjector::Parse) under `fault_seed`. Injected faults may error or
  /// degrade queries but any wrong rows still fail the run.
  std::string fault_sites;
  uint64_t fault_seed = 0;
  bool shrink = true;         ///< minimize failing queries before reporting
  std::string corpus_dir;     ///< non-empty: dump shrunk repros as .sql files
  /// Round-trip every deck engine's chosen plan through the binary plan
  /// serde (serialize -> deserialize -> re-serialize must be bit-identical);
  /// any divergence is a failure. See DifferentialOracle::set_serde_roundtrip.
  bool serde_roundtrip = false;
  FuzzGenConfig gen;
};

/// One minimized failure, as dumped into the corpus.
struct FuzzRepro {
  uint64_t seed = 0;          ///< per-round seed that produced the query
  std::string original_sql;   ///< the query (or mutant) that first diverged
  std::string shrunk_sql;     ///< after ShrinkQuery (== original if shrink off)
  std::string config_name;    ///< deck entry that diverged
  std::string message;        ///< first comparator diff / error
  std::string file;           ///< corpus path when dumped, else empty
};

struct FuzzReport {
  int queries = 0;            ///< generated queries executed
  int mutants = 0;            ///< equivalent mutants executed
  int executions = 0;         ///< engine runs compared against the reference
  int parse_rejects = 0;      ///< generated queries that failed parse/bind
  int roundtrip_failures = 0; ///< unparse->reparse signature mismatches
  int mutant_invalid = 0;     ///< mutants whose reference rows diverged
  int ref_errors = 0;         ///< reference interpreter errors
  int guardrail_aborts = 0;   ///< typed aborts, skipped (not compared)
  int injected_faults = 0;    ///< clean injected-fault errors (fault sweep)
  int serde_roundtrips = 0;   ///< chosen plans that round-tripped bit-identical
  int64_t spilled_operators = 0;  ///< pipeline breakers that spilled, summed
                                  ///< over the compared executions
  double elapsed_ms = 0;
  std::vector<FuzzRepro> failures;

  bool ok() const {
    return failures.empty() && parse_rejects == 0 &&
           roundtrip_failures == 0 && mutant_invalid == 0 && ref_errors == 0;
  }
  /// One-paragraph summary for logs / CI output.
  std::string Summary() const;
};

/// Runs the metamorphic differential fuzz loop: generate a seeded random
/// query, prove the unparser round-trip, execute it on the reference
/// interpreter, derive equivalence-preserving mutants (whose reference rows
/// must match the original's), then run query and mutants through the
/// differential oracle deck. Failures are shrunk and (optionally) dumped to
/// `corpus_dir` as self-contained .sql repro files.
FuzzReport RunFuzz(const Database& db, const FuzzOptions& options);

/// Replays one corpus .sql file (as written by RunFuzz: `-- seed:` header
/// comments followed by the query) against the full default deck, returning
/// an error Status describing the divergence if it still reproduces.
Status ReplayCorpusFile(const Database& db, const std::string& path);

}  // namespace cbqt

#endif  // CBQT_FUZZ_HARNESS_H_
