#ifndef CBQT_COMMON_SHARDED_LRU_H_
#define CBQT_COMMON_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"

namespace cbqt {

/// A thread-safe, bounded, byte-charged map from string keys to immutable
/// values: the one cache structure behind the annotation cache and the
/// join-order memo (cbqt/annotation_cache.h) and behind the plan map and the
/// cursor table of the plan cache (cbqt/plan_cache.h).
///
/// - Sharded: a key hashes to one of `num_shards` mutex-guarded shards, so
///   concurrent users contend only when they touch the same shard. Lookups
///   take a std::string_view; a probe never copies its key.
/// - Bounded: each shard keeps at most capacity / num_shards entries (at
///   least one; capacity 0 = unbounded) and evicts its least recently used
///   entry beyond that. A hit or a re-publish makes an entry the most recent.
/// - Immutable values: entries are handed out as shared_ptr<const V>, so a
///   value stays valid after it is replaced, evicted or cleared.
/// - Byte-charged: every entry carries the byte estimate its publisher gave.
///   memory_bytes() is their sum, and the optional `tracker` is charged with
///   it (ForceReserve on growth, so publishing never fails mid-structure;
///   Release on eviction, Clear and destruction). The tracker is called
///   outside the shard locks: its pressure callback may shed this very map.
template <typename V>
class ShardedLruMap {
 public:
  using Ptr = std::shared_ptr<const V>;

  ShardedLruMap(int num_shards, size_t capacity,
                MemoryTracker* tracker = nullptr)
      : capacity_(capacity), tracker_(tracker) {
    const int n = std::max(1, num_shards);
    shards_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
    if (capacity_ > 0) {
      shard_capacity_ =
          std::max<size_t>(1, capacity_ / static_cast<size_t>(n));
    }
  }

  ~ShardedLruMap() { Account(-memory_bytes()); }

  ShardedLruMap(const ShardedLruMap&) = delete;
  ShardedLruMap& operator=(const ShardedLruMap&) = delete;

  /// The default staleness predicate: nothing is stale.
  struct NeverStale {
    bool operator()(const V&) const { return false; }
  };

  /// The value under `key`, or nullptr. A hit makes the entry the most
  /// recent of its shard. An entry for which `stale(value)` holds is erased
  /// and counted as an invalidation and a miss.
  template <typename Stale = NeverStale>
  Ptr Find(std::string_view key, Stale stale = {}) {
    Shard& shard = ShardFor(key);
    int64_t freed = 0;
    Ptr found;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        if (stale(*it->second.value)) {
          freed = it->second.bytes;
          shard.lru.erase(it->second.lru_it);
          shard.map.erase(it);
          invalidations_.fetch_add(1, std::memory_order_relaxed);
        } else {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
          found = it->second.value;
        }
      }
    }
    Account(-freed);
    (found != nullptr ? hits_ : misses_)
        .fetch_add(1, std::memory_order_relaxed);
    return found;
  }

  /// Publishes `value` under `key`, charged at `bytes`, replacing any entry
  /// there. A new key evicts its shard's LRU tail beyond the capacity.
  void Put(std::string_view key, Ptr value, int64_t bytes) {
    Upsert(key, [&](const V*) {
      return std::make_pair(std::move(value), bytes);
    });
  }

  /// Read-modify-write of one key under its shard lock: `merge(old)`, where
  /// `old` is the current value or nullptr, returns the {value, bytes} pair
  /// to publish in its place. Otherwise as Put.
  template <typename Merge>
  void Upsert(std::string_view key, Merge merge) {
    Shard& shard = ShardFor(key);
    int64_t delta = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      const bool inserted = it == shard.map.end();
      auto [value, bytes] =
          merge(inserted ? nullptr : it->second.value.get());
      if (inserted) {
        it = shard.map.try_emplace(std::string(key)).first;
        shard.lru.push_front(&it->first);
        it->second.lru_it = shard.lru.begin();
      } else {
        delta -= it->second.bytes;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      }
      it->second.value = std::move(value);
      it->second.bytes = bytes;
      delta += bytes;
      if (inserted && shard_capacity_ > 0 &&
          shard.map.size() > shard_capacity_) {
        delta -= EvictTail(&shard);
      }
    }
    Account(delta);
  }

  /// Memory-pressure shedding: evicts LRU entries, one per shard per
  /// round-robin pass so no single shard is emptied first, until at least
  /// `target_bytes` are freed or the map is empty. Returns the bytes freed.
  int64_t EvictBytes(int64_t target_bytes) {
    int64_t freed = 0;
    bool progressed = true;
    while (freed < target_bytes && progressed) {
      progressed = false;
      for (auto& shard : shards_) {
        if (freed >= target_bytes) break;
        std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->lru.empty()) continue;
        freed += EvictTail(shard.get());
        progressed = true;
      }
    }
    Account(-freed);
    return freed;
  }

  /// Calls `fn(value)` for every entry, shard by shard, each shard from its
  /// most to its least recently used entry, under that shard's lock.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const std::string* key : shard->lru) {
        fn(*shard->map.find(*key)->second.value);
      }
    }
  }

  /// Drops every entry. The counters are kept (see ResetCounters).
  void Clear() {
    int64_t freed = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& entry : shard->map) freed += entry.second.bytes;
      shard->map.clear();
      shard->lru.clear();
    }
    Account(-freed);
  }

  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    invalidations_.store(0, std::memory_order_relaxed);
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->map.size();
    }
    return total;
  }

  size_t capacity() const { return capacity_; }
  MemoryTracker* tracker() const { return tracker_; }
  int64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Includes invalidations.
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Capacity and EvictBytes evictions.
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Entries dropped on lookup as stale.
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Slot {
    Ptr value;
    int64_t bytes = 0;
    /// Position in the shard's LRU list (front = most recently used).
    std::list<const std::string*>::iterator lru_it;
  };

  struct Shard {
    std::mutex mu;
    /// Keys live in the map nodes (stable addresses); the LRU list points
    /// back at them.
    std::unordered_map<std::string, Slot, TransparentHash, std::equal_to<>>
        map;
    std::list<const std::string*> lru;
  };

  Shard& ShardFor(std::string_view key) const {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  /// Erases the LRU tail of `shard` (lock held; not empty); returns its
  /// bytes.
  int64_t EvictTail(Shard* shard) {
    auto it = shard->map.find(*shard->lru.back());
    const int64_t bytes = it->second.bytes;
    shard->lru.pop_back();
    shard->map.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return bytes;
  }

  /// Applies a byte delta to memory_bytes() and the tracker. Called with no
  /// shard lock held.
  void Account(int64_t delta) {
    if (delta == 0) return;
    memory_bytes_.fetch_add(delta, std::memory_order_relaxed);
    if (tracker_ == nullptr) return;
    if (delta > 0) {
      tracker_->ForceReserve(delta);
    } else {
      tracker_->Release(-delta);
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t capacity_ = 0;        ///< total; 0 = unbounded
  size_t shard_capacity_ = 0;  ///< per shard; 0 = unbounded
  MemoryTracker* tracker_ = nullptr;
  std::atomic<int64_t> memory_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace cbqt

#endif  // CBQT_COMMON_SHARDED_LRU_H_
