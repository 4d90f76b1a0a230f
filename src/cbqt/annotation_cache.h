#ifndef CBQT_CBQT_ANNOTATION_CACHE_H_
#define CBQT_CBQT_ANNOTATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "optimizer/card_est.h"
#include "optimizer/plan.h"

namespace cbqt {

/// The optimization result of one query block, memoized by structural
/// signature.
struct CostAnnotation {
  double cost = 0;
  double rows = 0;
  RelStats out_stats;
  PlanPtr plan;
  /// Exact (non-canonicalized) unparsing of the annotated block. The cache
  /// key canonicalizes orderings SQL leaves free (sql/signature.h), so one
  /// key covers a whole equivalence class; consumers that require
  /// bit-identical plans (the per-optimization cache, whose reuse must not
  /// depend on which class member was cached first) compare this field and
  /// treat a mismatch as a miss. MQO cross-query sharing reuses the whole
  /// class (row-identical, not plan-text-identical).
  std::string exact_sql;
};

/// Re-use of query sub-tree cost annotations (paper §3.4.2): when the CBQT
/// framework costs many transformation states of the same query, unchanged
/// sub-blocks re-appear verbatim across states; their optimization results
/// are reused instead of re-planned. The paper's Table 1 counts exactly
/// these reuses (12 blocks optimized, 4 reused, for Q1 under exhaustive
/// search).
///
/// Thread-safe: the map is split into mutex-guarded shards keyed by a hash
/// of the signature, so concurrent state evaluations (parallel search)
/// contend only when they touch the same shard. Entries are immutable once
/// published; Find hands out a shared_ptr so a hit stays valid even if the
/// entry is concurrently replaced, evicted, or the cache cleared.
///
/// Bounded: `capacity` (total entries, split evenly across shards) caps the
/// cache with per-shard LRU eviction, so a pathological state space cannot
/// grow it without limit; evictions are counted. The default capacity is far
/// above any per-optimization signature population the paper's workloads
/// produce (Table 1 needs a few dozen), so reuse numbers are unaffected.
/// 0 = unbounded.
///
/// Lookup is heterogeneous (transparent hash/equality): Find and Put accept
/// std::string_view, so per-state probes with an already-materialized
/// signature never copy the string.
class AnnotationCache {
 public:
  static constexpr int kDefaultShards = 16;
  static constexpr size_t kDefaultCapacity = 4096;

  /// `tracker` (optional) charges every cached entry's estimated bytes for
  /// its lifetime in the cache — the CBQT framework passes the query's
  /// memory tracker so annotation / join-memo growth shows up in the
  /// query's accounting. Charges use ForceReserve (an insert never fails
  /// mid-structure); the enforcement point is the next TryReserve of
  /// whoever shares the tracker. All bytes are released on eviction,
  /// Clear(), and destruction.
  explicit AnnotationCache(int num_shards = kDefaultShards,
                           size_t capacity = kDefaultCapacity,
                           MemoryTracker* tracker = nullptr);

  ~AnnotationCache();

  /// nullptr if not cached. A hit refreshes the entry's LRU position.
  std::shared_ptr<const CostAnnotation> Find(std::string_view signature) const;

  /// Publishes `annotation`, replacing any entry under `signature`.
  void Put(std::string_view signature, CostAnnotation annotation);

  void Clear();

  /// Telemetry for Table 1 and the micro benches.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Estimated bytes currently held by cached entries.
  int64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Slot {
    std::shared_ptr<const CostAnnotation> annotation;
    /// Position in the shard's LRU list (front = most recently used).
    std::list<const std::string*>::iterator lru_it;
    int64_t bytes = 0;  ///< estimate charged to tracker_ while cached
  };

  struct Shard {
    mutable std::mutex mu;
    /// Keys live in the map nodes (stable addresses); the LRU list points
    /// back at them.
    std::unordered_map<std::string, Slot, TransparentHash, std::equal_to<>>
        map;
    std::list<const std::string*> lru;
  };

  Shard& ShardFor(std::string_view signature) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t capacity_ = kDefaultCapacity;  ///< total; 0 = unbounded
  size_t shard_capacity_ = 0;           ///< per shard; 0 = unbounded
  MemoryTracker* tracker_ = nullptr;    ///< optional byte accounting
  std::atomic<int64_t> memory_bytes_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace cbqt

#endif  // CBQT_CBQT_ANNOTATION_CACHE_H_
