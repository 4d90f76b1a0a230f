#ifndef CBQT_CBQT_ENGINE_H_
#define CBQT_CBQT_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbqt/framework.h"
#include "cbqt/plan_cache.h"
#include "cbqt/scheduler.h"
#include "common/cancellation.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "exec/executor.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "sql/query_block.h"
#include "storage/database.h"

namespace cbqt {

/// A query that went through parse → bind → cost-based transformation →
/// physical planning and is ready to execute.
struct PreparedQuery {
  std::unique_ptr<QueryBlock> tree;  ///< the chosen (transformed) query tree
  PlanPtr plan;                      ///< its physical plan
  double cost = 0;                   ///< estimated cost of `plan`
  CbqtStats stats;                   ///< CBQT telemetry
  double optimize_ms = 0;            ///< wall time of parse + CBQT + planning
  bool from_plan_cache = false;      ///< served from the engine plan cache
  /// Planned under a tripped OptimizerBudget (the plan cache's upgrade path
  /// re-optimizes such statements once they prove hot).
  bool degraded = false;
};

/// One end-to-end query execution.
struct QueryResult {
  std::vector<Row> rows;
  PreparedQuery prepared;  ///< the plan the rows were produced from
  double execute_ms = 0;   ///< wall time of execution
  /// High-water mark of the per-query memory tracker over the execution
  /// (zero when memory guardrails are off).
  int64_t peak_memory_bytes = 0;
  /// Full executor counters for this execution (rows processed, batches,
  /// subquery caching, spilled pipeline breakers and spill I/O volumes).
  ExecStats exec;
};

/// Telemetry of the engine runtime guardrails — the counters the engine
/// itself keeps (all zero when disabled). Queueing and throttling live in
/// scheduler_stats() and plan-cache shedding in plan_cache_stats().
struct GuardrailStats {
  int64_t admitted = 0;            ///< engine operations admitted
  int64_t cancelled = 0;           ///< operations that unwound kCancelled
  int64_t resource_exhausted = 0;  ///< operations failing kResourceExhausted
  int64_t memory_victims = 0;      ///< queries failed by the victim callback
  int64_t engine_used_bytes = 0;   ///< root tracker charge right now
  int64_t engine_peak_bytes = 0;   ///< root tracker high-water mark
};

/// Per-call options for the engine entry points. The default-constructed
/// value runs as the default tenant with no caller-supplied token.
struct QueryOptions {
  /// Scheduler tenant this query runs as: whose admission queue, slot
  /// share, and byte quota apply. "" (or an unknown name) maps to the
  /// default tenant. Ignored unless GuardrailConfig::scheduler is enabled.
  /// (The `{}` initializer lets `{.cancel = &token}` omit this member
  /// without a -Wmissing-field-initializers warning.)
  std::string tenant{};
  /// Optional caller-owned cooperative cancellation token (must outlive
  /// the call). Tripping it — from any thread, or via Cancel(query_id) —
  /// makes the operation unwind with the token's status within one polling
  /// quantum (per transformation state in the search, per block in the
  /// planner, per row in the executor). A token already tripped at entry
  /// fails fast without doing any work.
  CancellationToken* cancel = nullptr;
};

/// The public facade over the whole pipeline — the one place that wires
/// parse → bind → CBQT → physical plan → execute together. Examples,
/// benches, the workload runner, and downstream users all go through this;
/// nothing else should re-assemble the pipeline by hand.
///
/// A QueryEngine is immutable after construction and safe to share across
/// threads for concurrent Prepare/Run calls; the CbqtConfig fixed at
/// construction covers transformation selection, search strategy,
/// intra-query parallelism (CbqtConfig::num_threads), and the plan cache
/// (CbqtConfig::plan_cache — off by default).
///
/// With the plan cache enabled, Prepare parameterizes the statement's
/// literals (sql/parameterize.h) and serves repeats of the same shape from
/// the cache: a statement without literals gets the cached plan itself, any
/// other a copy of just the nodes holding its re-bound literals.
/// Entries are pinned to the Database stats epoch and invalidated lazily
/// after a stats refresh; entries planned under a tripped OptimizerBudget
/// are re-optimized with an enlarged budget once hot (budget upgrade).
///
/// Runtime guardrails (CbqtConfig::guardrails, all off by default): every
/// engine operation is admitted through the tenant scheduler (bounded
/// per-tenant queues; overload is turned away with a fast typed
/// kTenantThrottled carrying a retry-after hint), registered with a
/// cancellation token (Cancel(query_id), or a caller-supplied token), and —
/// when byte budgets are configured — charged against a per-query child of
/// the engine memory tracker. Per-query budget overruns fail that query
/// with kResourceExhausted; engine-budget pressure first sheds plan-cache
/// memory, then fails the largest admitted query (never a bystander).
class QueryEngine {
 public:
  explicit QueryEngine(const Database& db, CbqtConfig config = {},
                       CostParams params = {});

  /// Trips the engine shutdown token (unwinding any in-flight background
  /// plan-cache upgrade within one polling quantum), cancels the still-
  /// admitted queries, and drains the upgrade pool while the plan cache and
  /// optimizer are still alive.
  ~QueryEngine();

  /// Parses, transforms, and plans `sql` without executing it, admitted
  /// as `opts.tenant` and cancellable through `opts.cancel`.
  Result<PreparedQuery> Prepare(const std::string& sql,
                                const QueryOptions& opts = {}) const;

  /// Executes a previously prepared query (consumes it; the prepared query
  /// is returned inside the result for plan/stats inspection).
  Result<QueryResult> Execute(PreparedQuery prepared,
                              const QueryOptions& opts = {}) const;

  /// Prepare + Execute in one call, under a single admission slot and one
  /// per-query memory tracker covering both phases.
  Result<QueryResult> Run(const std::string& sql,
                          const QueryOptions& opts = {}) const;

  /// Trips the cancellation token of the in-flight engine operation
  /// `query_id` (see ActiveQueryIds). Returns true when this call tripped
  /// it; false when the id is unknown (already finished) or the token was
  /// already tripped. Idempotent and safe from any thread.
  bool Cancel(uint64_t query_id) const;

  /// IDs of the engine operations currently admitted (snapshot).
  std::vector<uint64_t> ActiveQueryIds() const;

  const Database& db() const { return db_; }
  const CbqtConfig& config() const { return config_; }

  bool guardrails_enabled() const { return config_.guardrails.enabled(); }
  /// Snapshot of the guardrail telemetry (admission, cancels, memory).
  GuardrailStats guardrail_stats() const;

  /// True when admission runs through the tenant scheduler
  /// (GuardrailConfig::scheduler is enabled with max_concurrent > 0).
  bool scheduler_enabled() const { return scheduler_ != nullptr; }
  /// Per-tenant scheduling telemetry; empty when no scheduler is running.
  SchedulerStats scheduler_stats() const;

  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  /// Telemetry of the plan cache; all-zero when the cache is disabled.
  PlanCacheStats plan_cache_stats() const;

  /// On-demand snapshot of the plan cache to PlanCacheConfig::snapshot_path
  /// (also runs at destruction whenever a snapshot path is set). Fails
  /// typed when the cache is disabled or no snapshot path is configured.
  Status SavePlanSnapshot() const;

  /// Blocks until every background budget-upgrade scheduled so far has
  /// finished (re-optimized and re-cached, or burned its attempt). Used by
  /// tests and benches for deterministic observation; production callers
  /// never need it — hits keep serving the degraded plan until the upgraded
  /// entry lands.
  void WaitForUpgrades() const;

 private:
  /// One admitted engine operation in the registry: its cancellation token
  /// (caller-supplied or engine-owned) and its per-query memory tracker
  /// (child of the engine root; null when memory guardrails are off).
  struct ActiveQuery {
    CancellationToken* token = nullptr;
    std::shared_ptr<CancellationToken> owned_token;  ///< when none supplied
    std::unique_ptr<MemoryTracker> memory;
    /// The scheduler's grant receipt (slot, tenant, budget factor);
    /// meaningful only when has_admission is set.
    Admission admission;
    bool has_admission = false;
  };

  /// Admission control + registration: routes through the tenant scheduler
  /// (which blocks in the tenant's bounded queue, applies the overload
  /// ladder, and fails typed — kTenantThrottled, or the token's status
  /// when `cancel` trips). On success returns the registered query id; the
  /// caller must pair it with EndQuery.
  Result<uint64_t> Admit(CancellationToken* cancel,
                         const std::string& tenant) const;

  /// Unregisters `id`, frees its admission slot, and folds the operation's
  /// final status into the guardrail counters.
  void EndQuery(uint64_t id, const Status& final_status) const;

  /// The guardrail handles of the admitted operation `id` (token, per-query
  /// tracker, configured fault injector).
  QueryGuards GuardsFor(uint64_t id) const;

  /// The optimizer budget operation `id` runs under: the engine budget,
  /// scaled down when the scheduler admitted the query with a shrunk
  /// budget factor (overload ladder step 2).
  OptimizerBudget BudgetFor(uint64_t id) const;

  /// Prepare/Execute bodies running under an already-admitted id.
  Result<PreparedQuery> PrepareAdmitted(const std::string& sql,
                                        uint64_t id) const;
  Result<QueryResult> ExecuteAdmitted(PreparedQuery prepared,
                                      uint64_t id) const;

  /// The historical Prepare path: parse + optimize, no cache involvement.
  Result<PreparedQuery> PrepareUncached(const std::string& sql,
                                        const OptimizerBudget& budget,
                                        const QueryGuards& guards) const;

  /// Budget-upgrade ladder: called on every cache hit. For a degraded entry
  /// that has accumulated enough hits (and attempts remain), wins the
  /// per-entry CAS gate and schedules RunUpgrade on the engine's background
  /// pool — the serving thread returns the degraded entry immediately
  /// instead of paying for the re-optimization inline.
  void MaybeUpgrade(const std::shared_ptr<const CachedPlanEntry>& entry,
                    uint64_t epoch) const;

  /// The actual upgrade (runs on upgrade_pool_): re-optimizes the entry's
  /// parameterized statement under the enlarged budget and atomically
  /// replaces the cache entry; on failure keeps the degraded plan but burns
  /// the attempt.
  void RunUpgrade(std::shared_ptr<const CachedPlanEntry> entry,
                  uint64_t epoch) const;

  const Database& db_;
  CbqtOptimizer optimizer_;
  CbqtConfig config_;

  /// Engine-wide memory tracker (root of the per-query children). Created
  /// when either byte budget is configured; its pressure callback sheds the
  /// plan cache and its victim callback fails the largest admitted query.
  std::unique_ptr<MemoryTracker> root_memory_;

  /// Tripped by the destructor so in-flight background upgrades unwind
  /// promptly instead of finishing a long re-optimization during teardown.
  std::shared_ptr<CancellationToken> shutdown_token_;

  /// Slot dispatch: created when GuardrailConfig::scheduler is enabled.
  /// Null otherwise — admission is then a no-op registration.
  /// Internally synchronized; owns per-tenant quota MemoryTrackers
  /// (children of root_memory_, so declared after it).
  std::unique_ptr<TenantScheduler> scheduler_;

  // Registry of in-flight operations. All mutable: the engine stays
  // logically const for concurrent queries.
  mutable std::mutex admission_mu_;
  mutable uint64_t next_query_id_ = 1;
  mutable std::unordered_map<uint64_t, ActiveQuery> active_;

  // Guardrail telemetry (queue/rejection counters live in the scheduler).
  mutable std::atomic<int64_t> admitted_{0};
  mutable std::atomic<int64_t> cancelled_{0};
  mutable std::atomic<int64_t> resource_exhausted_{0};
  mutable std::atomic<int64_t> memory_victims_{0};

  /// Catalog schema fingerprint captured at construction; stamps every
  /// persisted plan artifact (the snapshot).
  uint64_t schema_fingerprint_ = 0;

  /// Null when CbqtConfig::plan_cache is disabled. Mutable state lives in
  /// the cache itself (sharded mutexes + atomics), so const Prepare stays
  /// thread-safe.
  std::unique_ptr<PlanCache> plan_cache_;
  /// Background worker for budget upgrades; null when the plan cache is
  /// disabled. Declared last so it is destroyed first: the destructor drains
  /// in-flight upgrades while plan_cache_ and optimizer_ are still alive.
  std::unique_ptr<ThreadPool> upgrade_pool_;
};

}  // namespace cbqt

#endif  // CBQT_CBQT_ENGINE_H_
