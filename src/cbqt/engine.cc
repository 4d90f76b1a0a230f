#include "cbqt/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <utility>

#include "optimizer/card_est.h"
#include "parser/parser.h"
#include "sql/parameterize.h"

namespace cbqt {

namespace {

double MonotonicMs() {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

bool IsDegraded(const CbqtStats& stats) {
  return stats.budget_exhausted || stats.searches_degraded > 0;
}

/// RAII pairing of Admit/EndQuery so every exit path (including early
/// returns on parse errors) frees the admission slot and records the
/// outcome.
class AdmissionScope {
 public:
  using EndFn = std::function<void(uint64_t, const Status&)>;
  AdmissionScope(uint64_t id, EndFn end) : id_(id), end_(std::move(end)) {}
  ~AdmissionScope() { end_(id_, status_); }
  AdmissionScope(const AdmissionScope&) = delete;
  AdmissionScope& operator=(const AdmissionScope&) = delete;

  void set_status(const Status& s) { status_ = s; }

 private:
  uint64_t id_;
  EndFn end_;
  Status status_;
};

}  // namespace

QueryEngine::QueryEngine(const Database& db, CbqtConfig config,
                         CostParams params)
    : db_(db), optimizer_(db, config, params), config_(config) {
  const GuardrailConfig& gr = config_.guardrails;
  if (gr.engine_memory_bytes > 0 || gr.query_memory_bytes > 0 ||
      gr.any_tenant_memory_quota()) {
    root_memory_ = std::make_unique<MemoryTracker>("engine",
                                                   gr.engine_memory_bytes);
    // Pressure ladder, engine level: shed cached plans before failing a
    // reservation against the engine budget...
    root_memory_->set_pressure_callback([this](int64_t missing) -> int64_t {
      if (plan_cache_ == nullptr) return 0;
      return plan_cache_->EvictBytes(missing);
    });
    // ...and as a last resort fail the largest admitted query. The victim
    // is cancelled with kResourceExhausted through the same token plumbing
    // as a user cancel; when the requester itself is the largest there is
    // no victim and the requester's own reservation fails.
    root_memory_->set_victim_callback(
        [this](const MemoryTracker* requester, int64_t missing) -> bool {
          (void)missing;
          std::lock_guard<std::mutex> lock(admission_mu_);
          const ActiveQuery* victim = nullptr;
          int64_t victim_used = -1;
          for (const auto& [id, aq] : active_) {
            if (aq.memory == nullptr) continue;
            int64_t used = aq.memory->used_bytes();
            if (used > victim_used) {
              victim_used = used;
              victim = &aq;
            }
          }
          if (victim == nullptr || victim->memory.get() == requester) {
            return false;  // requester is the largest: it fails itself
          }
          if (victim->token == nullptr) return false;
          bool tripped = victim->token->CancelWith(Status::ResourceExhausted(
              "cancelled as engine memory-pressure victim (largest admitted "
              "query, " +
              std::to_string(victim_used) + " bytes)"));
          if (tripped) {
            memory_victims_.fetch_add(1, std::memory_order_relaxed);
          }
          return tripped;
        });
  }
  if (gr.scheduler.enabled_and_valid()) {
    scheduler_ =
        std::make_unique<TenantScheduler>(gr.scheduler, root_memory_.get());
  }
  if (config_.mqo.enabled) {
    mqo_ = std::make_unique<MqoRegistry>(config_.mqo, root_memory_.get());
  }
  if (config_.plan_cache.enabled()) {
    plan_cache_ =
        std::make_unique<PlanCache>(config_.plan_cache, root_memory_.get());
    // One worker is plenty: upgrades are rare (bounded per statement) and
    // coarse (a whole re-optimization each).
    upgrade_pool_ = std::make_unique<ThreadPool>(1);
    shutdown_token_ = std::make_shared<CancellationToken>();

    schema_fingerprint_ = db_.catalog().Fingerprint();
    const PlanCacheConfig& pc = config_.plan_cache;
    if (!pc.snapshot_path.empty()) {
      // Warm-start: best effort. A missing/stale/corrupt snapshot simply
      // leaves the cache cold; the serde layer guarantees a typed error for
      // malformed bytes, so nothing half-loaded can ever execute.
      (void)plan_cache_->LoadSnapshot(pc.snapshot_path, db_.stats_epoch(),
                                      schema_fingerprint_);
    }
    if (!pc.shared_store_path.empty()) {
      auto store = PlanStore::Open(pc.shared_store_path, schema_fingerprint_);
      // A store of a different schema (or a malformed one) is refused:
      // run without sharing rather than share wrong plans.
      if (store.ok()) plan_store_ = std::move(*store);
    }
  }
}

QueryEngine::~QueryEngine() {
  // Shutdown ordering: trip the shutdown token first so an in-flight
  // background upgrade unwinds at its next polling quantum instead of
  // finishing a long re-optimization, then cancel whatever queries are
  // still admitted, then drain the upgrade pool explicitly while
  // plan_cache_ and optimizer_ are guaranteed alive. (Member order alone
  // would destroy the pool first too, but only after blocking on the full
  // upgrade; and it would not stop admitted queries from racing teardown.)
  if (shutdown_token_ != nullptr) {
    shutdown_token_->CancelWith(Status::Cancelled("engine shutting down"));
  }
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (auto& [id, aq] : active_) {
      if (aq.token != nullptr) {
        aq.token->CancelWith(Status::Cancelled("engine shutting down"));
      }
    }
  }
  if (upgrade_pool_ != nullptr) upgrade_pool_->Wait();
  // Snapshot after the pool drain so the file carries the upgraded entries
  // (and never races a background Put).
  if (plan_cache_ != nullptr && config_.plan_cache.snapshot_on_shutdown &&
      !config_.plan_cache.snapshot_path.empty()) {
    (void)plan_cache_->SaveSnapshot(config_.plan_cache.snapshot_path,
                                    schema_fingerprint_);
  }
}

PlanCacheStats QueryEngine::plan_cache_stats() const {
  return plan_cache_ != nullptr ? plan_cache_->stats() : PlanCacheStats{};
}

PlanStoreStats QueryEngine::plan_store_stats() const {
  return plan_store_ != nullptr ? plan_store_->stats() : PlanStoreStats{};
}

Status QueryEngine::SavePlanSnapshot() const {
  if (plan_cache_ == nullptr) {
    return Status::InvalidArgument("plan cache is disabled");
  }
  if (config_.plan_cache.snapshot_path.empty()) {
    return Status::InvalidArgument("no snapshot path configured");
  }
  return plan_cache_->SaveSnapshot(config_.plan_cache.snapshot_path,
                                   schema_fingerprint_);
}

void QueryEngine::WaitForUpgrades() const {
  if (upgrade_pool_ != nullptr) upgrade_pool_->Wait();
}

GuardrailStats QueryEngine::guardrail_stats() const {
  GuardrailStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.cancelled = cancelled_.load(std::memory_order_relaxed);
  out.resource_exhausted =
      resource_exhausted_.load(std::memory_order_relaxed);
  out.memory_victims = memory_victims_.load(std::memory_order_relaxed);
  if (root_memory_ != nullptr) {
    out.engine_used_bytes = root_memory_->used_bytes();
    out.engine_peak_bytes = root_memory_->peak_bytes();
  }
  return out;
}

MqoStats QueryEngine::mqo_stats() const {
  return mqo_ != nullptr ? mqo_->stats() : MqoStats{};
}

SchedulerStats QueryEngine::scheduler_stats() const {
  return scheduler_ != nullptr ? scheduler_->stats() : SchedulerStats{};
}

bool QueryEngine::Cancel(uint64_t query_id) const {
  // The token is tripped while admission_mu_ is held: EndQuery removes
  // registry entries under the same mutex, so the (possibly caller-owned)
  // token pointer cannot dangle during the trip.
  std::lock_guard<std::mutex> lock(admission_mu_);
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.token == nullptr) return false;
  return it->second.token->Cancel();
}

std::vector<uint64_t> QueryEngine::ActiveQueryIds() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  std::vector<uint64_t> out;
  out.reserve(active_.size());
  for (const auto& [id, aq] : active_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

Result<uint64_t> QueryEngine::Admit(CancellationToken* cancel,
                                    const std::string& tenant) const {
  // Cancel-before-admit: a token tripped at entry fails fast without
  // consuming an admission slot or doing any work.
  if (cancel != nullptr && cancel->cancelled()) {
    Status st = cancel->status();
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  // Pre-admission fault point: nothing is held yet, so a fire here proves
  // the typed error path without any cleanup obligations. (The scheduler
  // fires a second, post-grant kAdmit hit that proves slot release.)
  if (config_.fault_injector != nullptr) {
    Status injected = config_.fault_injector->MaybeFail(FaultSite::kAdmit);
    if (!injected.ok()) return injected;
  }

  Admission adm;
  if (scheduler_ != nullptr) {
    auto granted =
        scheduler_->Admit(tenant, cancel, config_.fault_injector.get());
    if (!granted.ok()) {
      if (cancel != nullptr && cancel->cancelled()) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
      return granted.status();
    }
    adm = *granted;
  }

  std::lock_guard<std::mutex> lock(admission_mu_);
  uint64_t id = next_query_id_++;
  ActiveQuery aq;
  if (cancel != nullptr) {
    aq.token = cancel;
  } else {
    aq.owned_token = std::make_shared<CancellationToken>();
    aq.token = aq.owned_token.get();
  }
  // The per-query tracker charges through the tenant's quota tracker when
  // the tenant has one, otherwise directly through the engine root.
  MemoryTracker* parent = root_memory_.get();
  if (scheduler_ != nullptr) {
    if (MemoryTracker* tm = scheduler_->tenant_memory(adm.tenant_index)) {
      parent = tm;
    }
  }
  if (parent != nullptr) {
    aq.memory = std::make_unique<MemoryTracker>(
        "query-" + std::to_string(id), config_.guardrails.query_memory_bytes,
        parent);
  }
  if (scheduler_ != nullptr) {
    aq.admission = adm;
    aq.has_admission = true;
  }
  active_.emplace(id, std::move(aq));
  admitted_.fetch_add(1, std::memory_order_relaxed);
  // The admitted operation joins the in-flight MQO batch (lock order:
  // admission → registry).
  if (mqo_ != nullptr) mqo_->JoinBatch(id);
  return id;
}

void QueryEngine::EndQuery(uint64_t id, const Status& final_status) const {
  switch (final_status.code()) {
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  Admission adm;
  bool release = false;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    auto it = active_.find(id);
    if (it != active_.end()) {
      adm = it->second.admission;
      release = it->second.has_admission;
      active_.erase(it);
    }
  }
  // Outside admission_mu_: the slot release dispatches queued waiters
  // under the scheduler's own lock, and the last member out retires the
  // MQO batch's shared scan streams (stream locks, consumer wakeups).
  if (release && scheduler_ != nullptr) scheduler_->Release(adm);
  if (mqo_ != nullptr) mqo_->LeaveBatch(id);
}

QueryGuards QueryEngine::GuardsFor(uint64_t id) const {
  QueryGuards g;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    auto it = active_.find(id);
    if (it != active_.end()) {
      g.cancel = it->second.token;
      g.memory = it->second.memory.get();
    }
  }
  g.faults = config_.fault_injector.get();
  return g;
}

OptimizerBudget QueryEngine::BudgetFor(uint64_t id) const {
  double factor = 1.0;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    auto it = active_.find(id);
    if (it != active_.end() && it->second.has_admission) {
      factor = it->second.admission.budget_factor;
    }
  }
  return ScaledBudget(config_.budget, factor);
}

Result<CbqtResult> QueryEngine::OptimizeTree(const QueryBlock& query,
                                             const OptimizerBudget& budget,
                                             const QueryGuards& guards) const {
  OptimizeOptions opts;
  opts.budget = budget;
  opts.guards = guards;
  if (mqo_ != nullptr) opts.shared = mqo_->PrepareCaches(db_.stats_epoch());
  return optimizer_.Optimize(query, opts);
}

Result<PreparedQuery> QueryEngine::PrepareUncached(
    const std::string& sql, const OptimizerBudget& budget,
    const QueryGuards& guards) const {
  double t0 = MonotonicMs();
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  auto optimized = OptimizeTree(*parsed.value(), budget, guards);
  if (!optimized.ok()) return optimized.status();
  PreparedQuery out;
  out.tree = std::move(optimized->tree);
  out.plan = std::move(optimized->plan);
  out.cost = optimized->cost;
  out.stats = std::move(optimized->stats);
  out.degraded = IsDegraded(out.stats);
  out.optimize_ms = MonotonicMs() - t0;
  return out;
}

void QueryEngine::MaybeUpgrade(
    const std::shared_ptr<const CachedPlanEntry>& entry, uint64_t epoch) const {
  int64_t hit_count = entry->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!entry->degraded) return;
  const PlanCacheConfig& pc = config_.plan_cache;
  if (hit_count < pc.upgrade_after_hits) return;
  if (entry->upgrade_attempts >= pc.max_upgrade_attempts) return;
  bool expected = false;
  if (!entry->upgrade_in_flight.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // an upgrade of this statement is already in flight
  }
  // CAS won: hand the re-optimization to the background pool and keep
  // serving the degraded plan. The pool outlives every captured reference
  // (the engine destructor trips the shutdown token and drains it while the
  // cache and optimizer are still alive).
  upgrade_pool_->Submit(
      [this, entry, epoch]() { RunUpgrade(entry, epoch); });
}

void QueryEngine::RunUpgrade(std::shared_ptr<const CachedPlanEntry> entry,
                             uint64_t epoch) const {
  const PlanCacheConfig& pc = config_.plan_cache;
  // Hold the database read lock like any foreground engine operation: the
  // re-optimization must not race a concurrent Analyze().
  auto db_lock = db_.ReadLock();
  // Re-optimize the original parameterized statement under an enlarged
  // budget: the original budget scaled by multiplier^attempt, so persistent
  // exhaustion climbs the ladder instead of retrying the same ceiling.
  double factor = std::pow(pc.upgrade_budget_multiplier,
                           static_cast<double>(entry->upgrade_attempts + 1));
  OptimizeOptions opts;
  opts.budget = ScaledBudget(entry->planned_budget, factor);
  // The shutdown token makes an upgrade caught mid-flight by ~QueryEngine
  // unwind at its next per-state poll instead of finishing the whole
  // re-optimization against an engine that is tearing down.
  opts.guards.cancel = shutdown_token_.get();
  auto optimized = optimizer_.Optimize(*entry->source_tree, opts);
  if (shutdown_token_->cancelled()) {
    // Engine teardown in progress: do not touch the cache; leave the
    // in-flight flag set so no new upgrade starts either.
    return;
  }

  auto fresh = std::make_shared<CachedPlanEntry>();
  fresh->key = entry->key;
  fresh->stats_epoch = epoch;
  fresh->num_params = entry->num_params;
  fresh->param_bands = entry->param_bands;
  fresh->planned_budget = entry->planned_budget;
  fresh->upgrade_attempts = entry->upgrade_attempts + 1;
  fresh->source_tree = entry->source_tree->Clone();
  if (optimized.ok()) {
    fresh->tree = std::move(optimized->tree);
    fresh->plan = std::move(optimized->plan);
    fresh->cost = optimized->cost;
    fresh->stats = std::move(optimized->stats);
    fresh->degraded = IsDegraded(fresh->stats);
  } else {
    // Keep serving the degraded plan, but burn the attempt so a statement
    // that cannot be re-optimized stops retrying.
    fresh->tree = entry->tree->Clone();
    fresh->plan = entry->plan->Clone();
    fresh->cost = entry->cost;
    fresh->stats = entry->stats;
    fresh->degraded = true;
  }
  fresh->bytes = EstimateEntryBytes(*fresh);
  plan_cache_->RecordUpgradeAttempt(!fresh->degraded);
  if (plan_store_ != nullptr && !fresh->degraded) {
    // An upgraded plan is exactly what peers want: publish the improvement.
    if (plan_store_->Publish(*fresh).ok()) plan_cache_->RecordStorePublish();
  }
  plan_cache_->Put(fresh);
  entry->upgrade_in_flight.store(false, std::memory_order_release);
}

Result<PreparedQuery> QueryEngine::PrepareAdmitted(const std::string& sql,
                                                   uint64_t id) const {
  QueryGuards guards = GuardsFor(id);
  // Possibly shrunk by the scheduler's overload ladder (budget_factor < 1
  // when this query was admitted off a backed-up tenant queue).
  OptimizerBudget budget = BudgetFor(id);
  if (plan_cache_ == nullptr) return PrepareUncached(sql, budget, guards);

  double t0 = MonotonicMs();
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  ParameterizedStatement ps = ParameterizeQuery(parsed.value().get());
  // Captured before optimization: if Analyze() runs concurrently the entry
  // is cached under the old epoch and lazily invalidated on its next lookup.
  uint64_t epoch = db_.stats_epoch();

  // Selectivity bands of the statement's literal values (lazy: only needed
  // when a cached/imported candidate exists or a fresh entry is built).
  std::vector<int> bands;
  bool bands_computed = false;
  auto current_bands = [&]() -> const std::vector<int>& {
    if (!bands_computed) {
      bands = ComputeParamBands(*parsed.value(), ps.params.size(),
                                db_.catalog(), db_.stats());
      bands_computed = true;
    }
    return bands;
  };

  auto serve = [&](const std::shared_ptr<const CachedPlanEntry>& e,
                   bool from_store) {
    PreparedQuery out;
    out.tree = e->tree->Clone();
    BindTreeParams(out.tree.get(), ps.params);
    out.plan = e->plan->Clone();
    RebindPlanParams(out.plan.get(), ps.params);
    out.cost = e->cost;
    out.stats = e->stats;
    out.from_plan_cache = true;
    out.from_plan_store = from_store;
    out.degraded = e->degraded;
    out.optimize_ms = MonotonicMs() - t0;
    plan_cache_->RecordHitLatency(out.optimize_ms);
    return out;
  };

  auto entry = plan_cache_->Find(ps.key, epoch);
  if (entry != nullptr) {
    if (ps.params.empty() || current_bands() == entry->param_bands) {
      MaybeUpgrade(entry, epoch);
      return serve(entry, false);
    }
    // Cardinality-aware re-binding: the re-bound literals land in a
    // different selectivity band than the plan was optimized for — blind
    // reuse risks a badly mis-costed plan, so re-cost from scratch (the
    // fresh Put below replaces the entry, re-centering its bands).
    plan_cache_->RecordRebindRecost();
  } else if (plan_store_ != nullptr) {
    // Local miss: try a peer's published plan before paying for the search.
    auto peer = plan_store_->Import(ps.key, epoch, guards.cancel);
    if (!peer.ok()) {
      // Cancellation must unwind; a corrupt store just means no sharing.
      if (IsGuardrailAbort(peer.status().code())) return peer.status();
    } else if (*peer != nullptr) {
      if (ps.params.empty() || current_bands() == (*peer)->param_bands) {
        plan_cache_->Put(*peer);
        plan_cache_->RecordStoreImport();
        return serve(*peer, true);
      }
      plan_cache_->RecordStoreStale();
    }
  }

  auto optimized = OptimizeTree(*parsed.value(), budget, guards);
  if (!optimized.ok()) return optimized.status();
  // A cancelled or memory-failed optimization returned above — only fully
  // successful plans are published, so guardrail unwinds can never leak a
  // partial result into the cache.

  auto fresh = std::make_shared<CachedPlanEntry>();
  fresh->key = std::move(ps.key);
  fresh->stats_epoch = epoch;
  fresh->tree = optimized->tree->Clone();
  fresh->plan = optimized->plan->Clone();
  fresh->source_tree = parsed.value()->Clone();
  fresh->cost = optimized->cost;
  fresh->stats = optimized->stats;
  fresh->num_params = ps.params.size();
  if (!ps.params.empty()) fresh->param_bands = current_bands();
  fresh->degraded = IsDegraded(fresh->stats);
  fresh->planned_budget = budget;
  fresh->bytes = EstimateEntryBytes(*fresh);
  if (plan_store_ != nullptr && !fresh->degraded) {
    // Share the search result with peer instances. Best effort: a store
    // write failure only costs the sharing, never the query.
    if (plan_store_->Publish(*fresh).ok()) plan_cache_->RecordStorePublish();
  }
  plan_cache_->Put(std::move(fresh));

  PreparedQuery out;
  out.tree = std::move(optimized->tree);
  out.plan = std::move(optimized->plan);
  out.cost = optimized->cost;
  out.stats = std::move(optimized->stats);
  out.degraded = IsDegraded(out.stats);
  out.optimize_ms = MonotonicMs() - t0;
  plan_cache_->RecordMissLatency(out.optimize_ms);
  return out;
}

Result<QueryResult> QueryEngine::ExecuteAdmitted(PreparedQuery prepared,
                                                 uint64_t id) const {
  QueryGuards guards = GuardsFor(id);
  // Row-budget governor for this execution (OptimizerBudget::max_exec_rows):
  // a runaway query fails fast with kBudgetExhausted instead of grinding on.
  BudgetTracker exec_budget(config_.budget);
  ExecOptions opts = config_.exec;
  opts.budget = config_.budget.max_exec_rows > 0 ? &exec_budget : nullptr;
  opts.guards = guards;
  if (mqo_ != nullptr && config_.mqo.share_scans) {
    opts.shared_scans = mqo_->hub();
  }
  Executor executor(db_, std::move(opts));
  double t0 = MonotonicMs();
  auto result = executor.Execute(*prepared.plan);
  double t1 = MonotonicMs();
  if (!result.ok()) return result.status();
  QueryResult out;
  out.rows = std::move(result.value().rows);
  out.prepared = std::move(prepared);
  out.execute_ms = t1 - t0;
  out.exec = result.value().stats;
  out.rows_processed = out.exec.rows_processed;
  if (guards.memory != nullptr) {
    out.peak_memory_bytes = guards.memory->peak_bytes();
  }
  return out;
}

Result<PreparedQuery> QueryEngine::Prepare(const std::string& sql,
                                           const QueryOptions& opts) const {
  auto admitted = Admit(opts.cancel, opts.tenant);
  if (!admitted.ok()) return admitted.status();
  AdmissionScope scope(*admitted, [this](uint64_t id, const Status& s) {
    EndQuery(id, s);
  });
  auto db_lock = db_.ReadLock();
  auto out = PrepareAdmitted(sql, *admitted);
  scope.set_status(out.status());
  return out;
}

Result<QueryResult> QueryEngine::Execute(PreparedQuery prepared,
                                         const QueryOptions& opts) const {
  auto admitted = Admit(opts.cancel, opts.tenant);
  if (!admitted.ok()) return admitted.status();
  AdmissionScope scope(*admitted, [this](uint64_t id, const Status& s) {
    EndQuery(id, s);
  });
  auto db_lock = db_.ReadLock();
  auto out = ExecuteAdmitted(std::move(prepared), *admitted);
  scope.set_status(out.status());
  return out;
}

Result<QueryResult> QueryEngine::Run(const std::string& sql,
                                     const QueryOptions& opts) const {
  // One admission slot and one per-query memory tracker cover the whole
  // prepare + execute pipeline.
  auto admitted = Admit(opts.cancel, opts.tenant);
  if (!admitted.ok()) return admitted.status();
  AdmissionScope scope(*admitted, [this](uint64_t id, const Status& s) {
    EndQuery(id, s);
  });
  auto db_lock = db_.ReadLock();
  auto prepared = PrepareAdmitted(sql, *admitted);
  if (!prepared.ok()) {
    scope.set_status(prepared.status());
    return prepared.status();
  }
  auto out = ExecuteAdmitted(std::move(prepared.value()), *admitted);
  scope.set_status(out.status());
  return out;
}

}  // namespace cbqt
