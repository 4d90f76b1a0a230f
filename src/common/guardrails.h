#ifndef CBQT_COMMON_GUARDRAILS_H_
#define CBQT_COMMON_GUARDRAILS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"

namespace cbqt {

class FaultInjector;

/// One tenant's scheduling contract under the tenant-aware scheduler
/// (cbqt/scheduler.h). Weights buy proportional slot share under
/// saturation; priority classes buy dispatch order (with aging so lower
/// classes are delayed, never starved); quotas cap how much of the engine
/// one tenant can hold at once.
struct TenantSpec {
  std::string name;
  /// Deficit-round-robin weight: under saturation a tenant receives slots
  /// in proportion to its weight within its priority class. Clamped to
  /// >= 1.
  int weight = 1;
  /// Priority class, 0 (highest) .. kNumPriorityClasses-1 (lowest).
  /// Dispatch always prefers the highest non-empty class, except for
  /// waiters promoted by aging (SchedulerConfig::aging_dispatches).
  int priority = 1;
  /// Bounded per-tenant wait queue. A query arriving with the queue full
  /// is shed (or sheds a lower-priority waiter) with a typed
  /// kTenantThrottled carrying a retry-after hint.
  int max_queued = 16;
  /// Per-tenant concurrency quota: this tenant may hold at most this many
  /// of the global slots at once. 0 = bounded only by the global
  /// max_concurrent.
  int max_concurrent = 0;
  /// Per-tenant byte quota: a child MemoryTracker under the engine root;
  /// every query of the tenant charges through it, so one tenant's memory
  /// appetite is capped before it can push the whole engine into
  /// pressure. <= 0 = no tenant-level cap.
  int64_t memory_bytes = 0;
};

/// Number of priority classes the scheduler distinguishes (0 = highest).
inline constexpr int kNumPriorityClasses = 3;

/// Admission scheduling (cbqt/scheduler.h): weighted deficit-round-robin
/// slot dispatch over per-tenant bounded queues, with priority classes,
/// aging, per-tenant quotas, and an overload ladder (queue -> shrink
/// optimizer budget -> shed lowest-priority work with a typed
/// kTenantThrottled + retry-after hint). A query names its tenant via
/// QueryOptions::tenant (unknown or empty names fall into
/// `default_tenant`).
///
/// A single global queue is the one-tenant case: leave `tenants` empty,
/// set `default_tenant.priority = 0` and `default_tenant.max_queued`, keep
/// `max_queued_total = 0`, and set `budget_shrink_occupancy = 1` so
/// nothing is shed and no budget shrinks — overload is then queue, then a
/// typed kTenantThrottled turn-away.
struct SchedulerConfig {
  bool enabled = false;
  /// Global concurrency ceiling (slots). Must be > 0 when enabled.
  int max_concurrent = 0;
  /// How long a queued query waits for a slot before being throttled.
  /// 0 = no wait: reject immediately when no slot can be granted, even
  /// when the tenant's max_queued > 0.
  double queue_timeout_ms = 0;
  /// The configured tenants. Names must be unique.
  std::vector<TenantSpec> tenants;
  /// Global bound on queued waiters across all tenants. When an arrival
  /// would push the total past this bound, the scheduler sheds the
  /// lowest-priority queued waiter (if the arrival outranks it) or turns
  /// the arrival away — overload ladder step 3. 0 = no global bound (the
  /// per-tenant max_queued bounds still apply).
  int max_queued_total = 0;
  /// The catch-all tenant for queries that name no tenant (or an unknown
  /// one). Its `name` field is ignored ("default" in telemetry).
  TenantSpec default_tenant;
  /// Starvation bound: a queued request that has been passed over by this
  /// many dispatches is promoted to the highest priority class for
  /// selection, so low-priority work is delayed but admitted within a
  /// bounded number of dispatches. Clamped to >= 1.
  int aging_dispatches = 32;
  /// Overload ladder, step 2: when a tenant's queue occupancy at arrival
  /// is >= this fraction of its max_queued, the query is admitted with
  /// its optimizer budget scaled by `budget_shrink_factor` (via the
  /// ScaledBudget ladder) — trade plan quality for admission throughput
  /// while the backlog drains. >= 1 disables the step.
  double budget_shrink_occupancy = 0.5;
  double budget_shrink_factor = 0.25;
  /// Base of the retry-after hint carried by kTenantThrottled statuses;
  /// scaled up with the shedding tenant's queue occupancy.
  double retry_after_ms = 25;

  bool enabled_and_valid() const { return enabled && max_concurrent > 0; }
};

/// Engine-level runtime-guardrail configuration: memory budgets plus
/// admission scheduling. All knobs default off so existing single-user
/// embedding (tests, benches, examples) pay nothing.
struct GuardrailConfig {
  /// Engine-wide byte budget (root MemoryTracker limit). <= 0 = unlimited.
  int64_t engine_memory_bytes = 0;
  /// Per-query byte budget (child tracker limit). <= 0 = unlimited.
  int64_t query_memory_bytes = 0;
  /// Admission scheduling; every engine operation is admitted through it
  /// when enabled.
  SchedulerConfig scheduler;

  bool enabled() const {
    return engine_memory_bytes > 0 || query_memory_bytes > 0 ||
           scheduler.enabled_and_valid();
  }

  /// True when any tenant (or the default tenant) carries a byte quota —
  /// the engine then needs a root tracker even without engine/query
  /// budgets.
  bool any_tenant_memory_quota() const {
    if (!scheduler.enabled_and_valid()) return false;
    if (scheduler.default_tenant.memory_bytes > 0) return true;
    for (const TenantSpec& t : scheduler.tenants) {
      if (t.memory_bytes > 0) return true;
    }
    return false;
  }
};

/// Per-query guardrail handles threaded through the optimizer, planner and
/// executor alongside the BudgetTracker. All pointers optional (null =
/// that guardrail off); the struct is copied freely — it does not own
/// anything.
struct QueryGuards {
  /// Polled at every BudgetTracker quantum; trips -> hard kCancelled (or
  /// whatever status the token carries).
  CancellationToken* cancel = nullptr;
  /// Per-query memory tracker (child of the engine root). Charged by
  /// pipeline breakers, state clones, memo and cache inserts.
  MemoryTracker* memory = nullptr;
  /// Deterministic fault injection for the guardrail paths themselves
  /// (kMemoryPressure, kCancelAt, kExecBatch, kExecSpillCheck) and the
  /// physical optimizer (kPlanner).
  FaultInjector* faults = nullptr;

  bool any() const { return cancel || memory || faults; }

  /// One cooperative poll: fires kCancelAt injection (tripping the token),
  /// then returns the token's status. Call at the same quanta as
  /// BudgetTracker checks.
  Status Poll() const;
};

}  // namespace cbqt

#endif  // CBQT_COMMON_GUARDRAILS_H_
