#ifndef CBQT_CBQT_FRAMEWORK_H_
#define CBQT_CBQT_FRAMEWORK_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cbqt/annotation_cache.h"
#include "cbqt/search.h"
#include "cbqt/transform_mask.h"
#include "common/budget.h"
#include "common/fault_injector.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "sql/query_block.h"
#include "storage/database.h"

namespace cbqt {

/// Configuration of the engine-level plan cache (cbqt/plan_cache.h): a
/// sharded LRU map from a parameterized statement key to an immutable cached
/// plan, owned by QueryEngine. Disabled by default (capacity 0) so that
/// optimization-time measurements keep measuring optimization; workloads
/// with repeated statements opt in.
struct PlanCacheConfig {
  size_t capacity = 0;  ///< total entries; 0 disables the cache
  int num_shards = 8;   ///< use 1 for strict global LRU order

  // Budget-upgrade of degraded plans: an entry produced under a tripped
  // OptimizerBudget re-optimizes itself with an enlarged budget once it
  // proves hot, replacing the degraded plan in place.
  int upgrade_after_hits = 2;   ///< degraded-entry hits before an attempt
  int max_upgrade_attempts = 3; ///< bounded retries per statement
  /// Budget enlargement per attempt: attempt k re-optimizes under the
  /// original budget scaled by multiplier^k (deadline and state cap).
  double upgrade_budget_multiplier = 8.0;

  /// Persistent warm-start: when set, the engine loads this snapshot file at
  /// construction (entries with a stale stats epoch or a foreign schema
  /// fingerprint are skipped) and — with `snapshot_on_shutdown` — streams
  /// the cache back to it at destruction. QueryEngine::SavePlanSnapshot
  /// saves on demand. Empty disables persistence.
  std::string snapshot_path;
  bool snapshot_on_shutdown = true;

  /// Cross-instance plan sharing: when set, the engine attaches to this
  /// file-backed shared plan store (cbqt/plan_store.h). Freshly optimized
  /// and upgraded non-degraded plans are published; a local cache miss
  /// first tries to import a peer's entry before optimizing from scratch.
  /// Empty disables sharing.
  std::string shared_store_path;

  bool enabled() const { return capacity > 0; }
};

/// Configuration of the multi-query optimization layer (cbqt/mqo.h): shared
/// sub-plan annotations and shared scans across the batch of concurrently
/// admitted queries. Off by default — single-query behavior is untouched.
struct MqoConfig {
  bool enabled = false;

  /// Share optimization results across the batch: queries optimize against
  /// one batch-wide AnnotationCache / join-order memo instead of private
  /// per-optimization caches, with relaxed (equivalence-class) annotation
  /// reuse — row-identical results, plan text may differ from a solo run.
  bool share_plans = true;

  /// Share base-table scans and single-table materialized intermediates
  /// across concurrently executing batch members (exec/shared_scan.h).
  bool share_scans = true;

  /// Byte budget of the shared-scan row buffers; streams degrade gracefully
  /// to private execution beyond it. <= 0 means unlimited.
  int64_t buffer_memory_bytes = 64 << 20;

  /// Total milliseconds a shared-scan consumer waits for its producer
  /// before falling back to a private scan.
  int64_t consumer_wait_ms = 250;

  /// Capacities of the batch-shared caches (entries; 0 = unbounded). Larger
  /// than the per-optimization defaults — they serve the whole batch.
  size_t annotation_cache_capacity = 16384;
  size_t join_memo_capacity = 32768;
};

/// Batch-shared optimization caches handed into Optimize() by the MQO layer
/// (null members fall back to the private per-optimization caches). When
/// the annotation cache is shared, reuse is relaxed to the signature's
/// whole equivalence class — see MqoConfig::share_plans.
struct SharedOptimizeCaches {
  AnnotationCache* annotations = nullptr;
  AnnotationCache* join_memo = nullptr;
};

/// Per-call options of CbqtOptimizer::Optimize.
struct OptimizeOptions {
  /// Overrides CbqtConfig::budget when set — the plan cache's upgrade path
  /// re-optimizes degraded statements with an enlarged budget, and the
  /// scheduler's overload ladder shrinks it.
  std::optional<OptimizerBudget> budget;
  /// Per-query runtime guardrails: the cancellation token is polled once
  /// per state (and per planned block); per-state tree clones are charged
  /// against the memory tracker for the lifetime of their evaluation.
  /// Cancellation and memory exhaustion are hard failures — unlike budget
  /// exhaustion there is no best-so-far degradation.
  QueryGuards guards;
  /// Batch-shared caches (the MQO layer's path): non-null members replace
  /// the private per-optimization annotation cache / join-order memo, and
  /// annotation reuse is relaxed to whole signature equivalence classes.
  /// The reported cache telemetry becomes before/after deltas of the shared
  /// counters (concurrent batch members may inflate each other's numbers —
  /// diagnostics, not decisions).
  SharedOptimizeCaches shared;
};

/// Configuration of the cost-based transformation framework.
struct CbqtConfig {
  /// Master switch: false reproduces the heuristic-only optimizer (each
  /// transformation decided by its legacy rule) — Figure 2's baseline.
  bool cost_based = true;

  /// Which cost-based transformations participate (used by Figures 3/4 and
  /// §4.3 ablations). Default: all of them.
  TransformMask transforms = TransformMask::All();

  bool enable_heuristic_phase = true;  ///< §2.1 imperative battery

  // Search-space management (paper §3.2 last paragraph).
  int exhaustive_threshold = 4;      ///< N <= this: exhaustive, else linear
  int two_pass_total_threshold = 10; ///< total objects > this: two-pass
  int iterative_max_states = 32;

  /// When set, overrides the automatic strategy selection for every search.
  std::optional<SearchStrategy> strategy_override;

  /// Interleave group-by view merging with view-generating unnesting
  /// (paper §3.3.1): a state whose unnesting looks unprofitable is also
  /// costed with the generated view merged before being rejected.
  bool interleave_view_merge = true;

  /// §3.4.1 cost cut-off during state evaluation.
  bool cost_cutoff = true;

  /// §3.4.2 reuse of query sub-tree cost annotations.
  bool reuse_annotations = true;

  /// Copy-on-write per-state tree copies: transformations whose Apply is
  /// CowSafe() get a structurally shared CloneCow() copy of the base tree —
  /// applying a state copies only the blocks a flipped transformation
  /// rewrites (plus the spine above them); untouched blocks are shared
  /// read-only across states and pool workers. Results are bit-identical to
  /// full deep copies; false forces Clone() everywhere (the escape hatch the
  /// equivalence tests compare against).
  bool cow_clone = true;

  /// Cross-state join-order memoization: finished join-order DP subproblems
  /// are keyed by canonical fingerprints of (relation set, dependencies,
  /// local predicates, applicable join predicates), so states whose blocks
  /// pose byte-identical FROM+predicate subproblems reuse the enumerated
  /// JoinStepPlans instead of re-running the DP. Bit-identical results;
  /// false disables the memo.
  bool reuse_join_orders = true;

  /// Capacity of the per-optimization join-order memo (total entries, LRU
  /// beyond it; 0 = unbounded). Subset-granularity entries are more numerous
  /// than block annotations, hence the larger default.
  size_t join_memo_capacity = 8192;

  /// Capacity of the per-optimization annotation cache (total entries, LRU
  /// beyond it; 0 = unbounded). The default is far above the signature
  /// population of any paper workload, so Table 1 reuse is unaffected; it
  /// exists so a pathological state space cannot grow the cache without
  /// limit.
  size_t annotation_cache_capacity = 4096;

  /// Engine-level plan cache (QueryEngine). Off by default.
  PlanCacheConfig plan_cache;

  /// Multi-query optimization across the admitted batch (QueryEngine).
  /// Off by default.
  MqoConfig mqo;

  uint64_t seed = 42;  ///< iterative-search randomness

  /// Threads used to evaluate transformation states concurrently (exhaustive
  /// and linear searches). 1 (the default) keeps the historical fully serial
  /// behavior; any value preserves the chosen state/cost/plan bit-for-bit —
  /// see SearchOptions::pool for the determinism contract.
  int num_threads = 1;

  /// Resource governor: ceilings on optimization wall time, states costed,
  /// and executor rows. All disabled by default. When a ceiling trips
  /// mid-search the framework degrades gracefully (best-so-far state, then
  /// heuristic decisions for searches that never started) — a budgeted
  /// Optimize() never fails for budget reasons. The executor row cap is the
  /// exception: it is a hard stop on runaway execution.
  OptimizerBudget budget;

  /// Executor configuration (batch size, spill directory, spill on/off) used
  /// by QueryEngine for every execution. The `budget` and `guards` members
  /// are ignored here — the engine wires its own per-query budget tracker
  /// and guardrails into each ExecOptions it builds.
  ExecOptions exec;

  /// Runtime guardrails enforced by QueryEngine: engine/per-query memory
  /// byte budgets and admission control. All off by default; see
  /// common/guardrails.h. (Cancellation needs no knob — pass a
  /// CancellationToken to QueryEngine::Prepare/Execute/Run or use
  /// QueryEngine::Cancel.)
  GuardrailConfig guardrails;

  /// Testing only: deterministic fault injection into state evaluation, the
  /// physical optimizer, and simulated slow states. Null (the default) in
  /// production; shared because CbqtConfig is copied by value.
  std::shared_ptr<FaultInjector> fault_injector;
};

/// Telemetry of one CBQT optimization.
struct CbqtStats {
  int states_evaluated = 0;      ///< states costed across all searches
  int interleaved_states = 0;    ///< extra states from interleaving
  int64_t blocks_planned = 0;    ///< query blocks physically optimized
  int64_t annotation_hits = 0;   ///< §3.4.2 reuses
  int64_t annotation_evictions = 0;  ///< LRU evictions from the bounded cache

  // Per-state evaluation cost telemetry (copy-on-write trees + join memo).
  int64_t blocks_cloned = 0;     ///< block nodes deep-copied during search
  int64_t blocks_shared = 0;     ///< block edges structurally shared instead
  int64_t join_memo_hits = 0;    ///< join-order subproblems reused
  int64_t join_memo_misses = 0;  ///< join-order subproblems computed fresh
  /// transformation name -> states evaluated in its search
  std::map<std::string, int> states_per_transformation;
  /// transformations actually applied, e.g. "unnest-view(1,0)"
  std::vector<std::string> applied;

  // Parallel-evaluation telemetry (see SearchOutcome).
  int threads_used = 1;        ///< pool width states were evaluated on
  int parallel_batches = 0;    ///< batches dispatched across all searches
  int speculative_wasted = 0;  ///< linear speculation discarded
  int cutoff_races_lost = 0;   ///< full costings a serial cut-off would skip

  // Resource-governor / fault-isolation telemetry.
  bool budget_exhausted = false;  ///< the OptimizerBudget tripped
  /// Searches that fell back to the transformation's heuristic decision
  /// because the budget was already exhausted before they started.
  int searches_degraded = 0;
  /// State evaluations that failed hard and were isolated (infinite cost).
  int failed_states = 0;
  /// transformation name -> isolated state failures in its search
  std::map<std::string, int> failed_per_transformation;
  int64_t budget_check_ns = 0;  ///< time spent inside governor checks

  // Runtime-guardrail telemetry (zero when no guardrails configured).
  /// High-water mark of the per-query memory tracker at the end of the
  /// optimization (includes per-state clone charges still outstanding in
  /// concurrent evaluations at the peak instant).
  int64_t peak_memory_bytes = 0;
};

/// Result of CBQT optimization: the chosen (transformed) query tree, its
/// physical plan, and cost.
struct CbqtResult {
  std::unique_ptr<QueryBlock> tree;
  std::unique_ptr<PlanNode> plan;
  double cost = 0;
  CbqtStats stats;
};

/// The cost-based query transformation framework (paper §3, Figure 1):
/// heuristic transformations run imperatively; each cost-based
/// transformation then enumerates its state space (with automatically
/// selected search strategy), deep-copies the query tree per state, applies
/// the state, invokes the physical optimizer for the cost (with cost
/// cut-off and annotation reuse), and keeps the cheapest tree. With
/// `config.num_threads > 1` the states of one search are costed
/// concurrently on an internal thread pool (each on its own deep copy,
/// sharing only the sharded AnnotationCache and an atomic cut-off), with
/// results guaranteed identical to the serial search.
class CbqtOptimizer {
 public:
  explicit CbqtOptimizer(const Database& db, CbqtConfig config = {},
                         CostParams params = {});

  /// Optimizes a bound or unbound query tree (the input is cloned and
  /// re-bound internally). `opts` carries the per-call budget override,
  /// runtime guardrails, and batch-shared caches (see OptimizeOptions);
  /// the default runs under CbqtConfig::budget with no guardrails and
  /// private caches.
  Result<CbqtResult> Optimize(const QueryBlock& query,
                              const OptimizeOptions& opts = {}) const;

  /// The strategy the framework would pick for a transformation with
  /// `num_objects` objects given `total_objects` in the whole query.
  SearchStrategy ChooseStrategy(int num_objects, int total_objects) const;

  const CbqtConfig& config() const { return config_; }

 private:
  const Database& db_;
  CbqtConfig config_;
  PhysicalOptimizer physical_;
  /// Shared across Optimize() calls; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cbqt

#endif  // CBQT_CBQT_FRAMEWORK_H_
