#ifndef CBQT_CBQT_ANNOTATION_CACHE_H_
#define CBQT_CBQT_ANNOTATION_CACHE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "common/memory_tracker.h"
#include "common/sharded_lru.h"
#include "optimizer/card_est.h"
#include "optimizer/plan.h"

namespace cbqt {

/// The optimization result of one query block, memoized by the block's
/// exact text (BlockToSql).
struct CostAnnotation {
  double cost = 0;
  double rows = 0;
  RelStats out_stats;
  PlanPtr plan;
};

/// Re-use of query sub-tree cost annotations (paper §3.4.2): when the CBQT
/// framework costs many transformation states of the same query, unchanged
/// sub-blocks re-appear verbatim across states; their optimization results
/// are reused instead of re-planned. The paper's Table 1 counts exactly
/// these reuses (12 blocks optimized, 4 reused, for Q1 under exhaustive
/// search). The join-order memo is a second instance with its own key space.
///
/// A ShardedLruMap (common/sharded_lru.h) over CostAnnotation: thread-safe
/// for concurrent state evaluations, lookups by std::string_view, entries
/// immutable once published and handed out as shared_ptr, per-shard LRU
/// beyond `capacity` (0 = unbounded). The default capacity is far above any
/// per-optimization population the paper's workloads produce (Table 1 needs
/// a few dozen), so reuse numbers are unaffected.
class AnnotationCache {
 public:
  static constexpr int kDefaultShards = 16;
  static constexpr size_t kDefaultCapacity = 4096;

  /// `tracker` (optional) charges every cached entry's estimated bytes for
  /// its lifetime in the cache: the CBQT framework passes the query's memory
  /// tracker, so annotation and join-memo growth shows up in the query's
  /// accounting. Without a tracker no entry bytes are computed.
  explicit AnnotationCache(int num_shards = kDefaultShards,
                           size_t capacity = kDefaultCapacity,
                           MemoryTracker* tracker = nullptr)
      : map_(num_shards, capacity, tracker) {}

  /// nullptr if not cached. A hit refreshes the entry's LRU position.
  std::shared_ptr<const CostAnnotation> Find(std::string_view key) const {
    return map_.Find(key);
  }

  /// Publishes `annotation`, replacing any entry under `key`.
  void Put(std::string_view key, CostAnnotation annotation) {
    int64_t bytes = 0;
    if (map_.tracker() != nullptr) {
      // The entry struct, the key and the memoized plan tree.
      bytes = static_cast<int64_t>(sizeof(CostAnnotation) + key.size());
      if (annotation.plan != nullptr) {
        bytes += annotation.plan->EstimateBytes();
      }
    }
    map_.Put(key,
             std::make_shared<const CostAnnotation>(std::move(annotation)),
             bytes);
  }

  /// Drops every entry and resets the counters.
  void Clear() {
    map_.Clear();
    map_.ResetCounters();
  }

  /// Telemetry for Table 1 and the micro benches.
  int64_t hits() const { return map_.hits(); }
  int64_t misses() const { return map_.misses(); }
  int64_t evictions() const { return map_.evictions(); }
  size_t size() const { return map_.size(); }
  size_t capacity() const { return map_.capacity(); }
  /// Estimated bytes currently held by cached entries (0 untracked).
  int64_t memory_bytes() const { return map_.memory_bytes(); }

 private:
  /// mutable: a lookup refreshes LRU order and counts, logically const.
  mutable ShardedLruMap<CostAnnotation> map_;
};

}  // namespace cbqt

#endif  // CBQT_CBQT_ANNOTATION_CACHE_H_
