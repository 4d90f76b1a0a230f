#ifndef CBQT_CBQT_MQO_H_
#define CBQT_CBQT_MQO_H_

#include <cstdint>
#include <mutex>

#include "cbqt/annotation_cache.h"
#include "cbqt/framework.h"
#include "common/memory_tracker.h"

namespace cbqt {

/// Telemetry of the MQO layer's engine-wide optimizer caches (folded into
/// WorkloadRunReport).
struct MqoStats {
  /// Hits against the engine-wide annotation cache. Includes a query's own
  /// intra-optimization reuse (which a private cache would also serve) —
  /// the cross-query surplus is what grows with concurrent sessions.
  int64_t shared_subplan_hits = 0;
  int64_t shared_join_memo_hits = 0;
  int64_t cache_memory_bytes = 0;  ///< bytes held by the shared caches
};

/// The multi-query optimization layer, owned by QueryEngine (one per
/// engine, alive for its whole lifetime): one AnnotationCache and one
/// join-order memo that every optimization of the engine plans against,
/// instead of the per-call caches of a single optimization. Sub-blocks with
/// the same exact text share entries across queries and sessions; a shared
/// hit is the plan the block would get anyway, so MQO never changes a plan.
/// The caches are keyed content caches, invalidated on a Database
/// stats-epoch change, so a steady workload keeps its warmed sub-plan
/// annotations.
///
/// Thread-safe: the caches are sharded and internally locked, and the
/// registry's own lock guards only the epoch check.
class MqoRegistry {
 public:
  /// `parent` (optional) chains the caches' memory accounting into the
  /// engine's root tracker.
  explicit MqoRegistry(MemoryTracker* parent = nullptr)
      : memory_("mqo", 0, parent),
        annotations_(AnnotationCache::kDefaultShards,
                     kAnnotationCacheCapacity, &memory_),
        join_memo_(AnnotationCache::kDefaultShards, kJoinMemoCapacity,
                   &memory_) {}

  MqoRegistry(const MqoRegistry&) = delete;
  MqoRegistry& operator=(const MqoRegistry&) = delete;

  /// The engine-wide optimization caches, valid for the given Database
  /// stats epoch — an epoch change clears them (annotations embed
  /// statistics-derived costs and plans). Callers hold the database read
  /// lock, so the epoch is stable across the returned caches' use.
  SharedOptimizeCaches PrepareCaches(uint64_t stats_epoch);

  /// Memory-pressure shedding: evicts annotation entries, then join-memo
  /// entries, until at least `target_bytes` are freed or both caches are
  /// empty. Returns the bytes freed.
  int64_t EvictBytes(int64_t target_bytes);

  MqoStats stats() const;

 private:
  /// Capacities of the engine-wide caches (entries): larger than the
  /// per-optimization ones, since they serve every query of the engine.
  static constexpr size_t kAnnotationCacheCapacity = 16384;
  static constexpr size_t kJoinMemoCapacity = 32768;

  MemoryTracker memory_;
  AnnotationCache annotations_;
  AnnotationCache join_memo_;

  std::mutex mu_;
  uint64_t caches_epoch_ = 0;  ///< stats epoch the caches are valid for
};

}  // namespace cbqt

#endif  // CBQT_CBQT_MQO_H_
