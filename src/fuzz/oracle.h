#ifndef CBQT_FUZZ_ORACLE_H_
#define CBQT_FUZZ_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "common/result_compare.h"
#include "common/status.h"
#include "storage/database.h"

namespace cbqt {

/// One divergence found by the differential oracle.
struct DiffFailure {
  std::string config_name;  ///< deck entry that diverged
  std::string sql;          ///< query text (original or mutant)
  std::string message;      ///< comparator diff or unexpected error
};

/// Counters of one Check() sweep.
struct OracleOutcome {
  int executions = 0;        ///< engine runs whose rows were compared
  int guardrail_aborts = 0;  ///< typed aborts (kCancelled/kResourceExhausted/
                             ///< kTenantThrottled/kBudgetExhausted): the
                             ///< run is skipped, not compared
  int injected_faults = 0;   ///< "injected fault" kInternal errors — clean
                             ///< degradation under a fault sweep
  int serde_roundtrips = 0;  ///< chosen plans round-tripped through the
                             ///< binary serde (set_serde_roundtrip)
  std::vector<DiffFailure> failures;
};

/// Differential oracle: executes a query through a deck of differently
/// configured QueryEngines (search strategies × thread counts × transform
/// masks × executor batch/spill settings) and compares every result against
/// the reference interpreter's rows (order-insensitive multiset compare,
/// NULL-aware, doubles with relative tolerance).
///
/// Error policy: a typed guardrail abort is an acceptable outcome (that
/// configuration declined the query; nothing to compare). An "injected
/// fault" kInternal error is acceptable when the deck was armed with a
/// FaultInjector (the fault-sweep property: injected faults may degrade or
/// error a query but must never produce wrong rows). Any other error, and
/// any row mismatch, is a DiffFailure.
class DifferentialOracle {
 public:
  struct Entry {
    std::string name;
    CbqtConfig config;
  };

  /// The default deck: 4 search strategies, 1- and 4-thread evaluation,
  /// heuristic-only mode, a reduced transform mask with batch size 1, and a
  /// spill-forced configuration with a small per-query memory budget.
  static std::vector<Entry> DefaultDeck();

  /// `canary`: test-only seeded bug — the first deck entry silently drops
  /// the last result row for queries touching >= 2 base relations. Used to
  /// prove the fuzzer catches (and the shrinker minimizes) a real wrong-rows
  /// defect.
  DifferentialOracle(const Database& db, std::vector<Entry> deck,
                     bool canary = false);

  /// Reference-interpreter rows for `sql` (parse + bind + naive execute).
  Result<std::vector<Row>> Reference(const std::string& sql);

  /// Runs `sql` through every deck entry and compares against
  /// `expected_sorted` (reference rows, canonically sorted). Appends to
  /// `out`'s counters and failure list.
  void Check(const std::string& sql, const std::vector<Row>& expected_sorted,
             OracleOutcome* out);

  /// When on, every deck engine's chosen plan is additionally round-tripped
  /// through the binary plan serde (optimizer/plan_serde.h): the re-serialized
  /// bytes must be bit-identical and the rendered plan unchanged. Any
  /// divergence is a DiffFailure — the fuzz deck doubles as the serde
  /// round-trip corpus.
  void set_serde_roundtrip(bool on) { serde_roundtrip_ = on; }

  const std::vector<Entry>& deck() const { return deck_; }

 private:
  const Database& db_;
  std::vector<Entry> deck_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  bool canary_ = false;
  bool serde_roundtrip_ = false;
};

/// True when `sql` references at least `n` base relations (counting every
/// FROM entry with a table name, at any block depth). Parse/bind failures
/// count as false. Used by the canary and its shrinker test.
bool ReferencesAtLeastNBaseRelations(const Database& db,
                                     const std::string& sql, int n);

}  // namespace cbqt

#endif  // CBQT_FUZZ_ORACLE_H_
