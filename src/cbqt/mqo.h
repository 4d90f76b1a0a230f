#ifndef CBQT_CBQT_MQO_H_
#define CBQT_CBQT_MQO_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "cbqt/annotation_cache.h"
#include "cbqt/framework.h"
#include "common/memory_tracker.h"
#include "exec/shared_scan.h"

namespace cbqt {

/// Telemetry of the MQO layer — batch formation, cross-query sub-plan
/// sharing, and the shared-scan registry (folded into GuardrailStats and
/// WorkloadRunReport).
struct MqoStats {
  int64_t batches_formed = 0;   ///< optimization batches opened
  int64_t batch_queries = 0;    ///< queries that joined a batch
  /// Hits against the batch-shared annotation cache. Includes a query's own
  /// intra-optimization reuse (which a private cache would also serve) —
  /// the cross-query surplus is what grows with batch width.
  int64_t shared_subplan_hits = 0;
  int64_t shared_join_memo_hits = 0;
  int64_t cache_memory_bytes = 0;  ///< bytes held by the shared caches

  // Shared-scan registry (exec/shared_scan.h), flattened from its atomics.
  int64_t scan_streams = 0;
  int64_t materialize_streams = 0;
  int64_t scan_consumers = 0;
  int64_t scan_replays = 0;
  int64_t rows_shared = 0;
  int64_t bytes_saved = 0;
  int64_t pressure_fallbacks = 0;
  int64_t wait_fallbacks = 0;
  int64_t private_fallbacks = 0;
};

/// The shared-work registry of the multi-query optimization layer, owned by
/// QueryEngine (one per engine, alive for its whole lifetime).
///
/// Batching model: the *batch* is the set of concurrently admitted engine
/// operations. Admit joins the batch, EndQuery leaves it; while at least
/// one member is in flight, later admissions land in the same batch and
/// probe the work its members already registered — sub-blocks with the
/// same exact text share AnnotationCache / join-order-memo entries
/// (PrepareCaches; a shared hit is the plan the block would get anyway), and
/// matching scans share one producer's row stream (hub). When the last
/// member leaves, the batch dissolves: incomplete scan streams are retired.
/// The optimization caches persist across batches (they are keyed content
/// caches, invalidated on a Database stats-epoch change), so a steady
/// workload keeps its warmed sub-plan annotations.
///
/// Thread-safe; QueryEngine calls Join/Leave under its admission mutex and
/// the registry only ever takes its own lock (lock order: admission →
/// registry, never reversed).
class MqoRegistry {
 public:
  /// `parent` (optional) chains the registry's memory accounting into the
  /// engine's root tracker.
  MqoRegistry(const MqoConfig& config, MemoryTracker* parent = nullptr)
      : memory_("mqo", 0, parent),
        hub_(config.buffer_memory_bytes, &memory_),
        annotations_(AnnotationCache::kDefaultShards,
                     kAnnotationCacheCapacity, &memory_),
        join_memo_(AnnotationCache::kDefaultShards, kJoinMemoCapacity,
                   &memory_) {}

  MqoRegistry(const MqoRegistry&) = delete;
  MqoRegistry& operator=(const MqoRegistry&) = delete;

  /// Admission joined the in-flight batch (opens a new one when none is).
  void JoinBatch(uint64_t query_id);

  /// The operation ended; the last member out retires the batch's scan
  /// streams.
  void LeaveBatch(uint64_t query_id);

  /// The batch-shared optimization caches, valid for the given Database
  /// stats epoch — an epoch change clears them (annotations embed
  /// statistics-derived costs and plans). Callers hold the database read
  /// lock, so the epoch is stable across the returned caches' use.
  SharedOptimizeCaches PrepareCaches(uint64_t stats_epoch);

  /// The shared-scan registry, wired into ExecOptions::shared_scans.
  SharedScanHub* hub() { return &hub_; }

  MqoStats stats() const;

 private:
  /// Capacities of the batch-shared caches (entries): larger than the
  /// per-optimization ones, since they serve the whole batch.
  static constexpr size_t kAnnotationCacheCapacity = 16384;
  static constexpr size_t kJoinMemoCapacity = 32768;

  MemoryTracker memory_;
  SharedScanHub hub_;
  AnnotationCache annotations_;
  AnnotationCache join_memo_;

  mutable std::mutex mu_;
  int active_ = 0;             ///< batch members in flight
  uint64_t caches_epoch_ = 0;  ///< stats epoch the caches are valid for
  int64_t batches_formed_ = 0;
  int64_t batch_queries_ = 0;
};

}  // namespace cbqt

#endif  // CBQT_CBQT_MQO_H_
