#include "cbqt/annotation_cache.h"

#include <algorithm>

namespace cbqt {

namespace {

/// Estimated footprint of one cached annotation: the entry struct, the key
/// string, the out-stats, and the memoized plan tree.
int64_t EstimateEntryBytes(std::string_view signature,
                           const CostAnnotation& annotation) {
  int64_t bytes = static_cast<int64_t>(sizeof(CostAnnotation)) +
                  static_cast<int64_t>(signature.size()) +
                  static_cast<int64_t>(annotation.exact_sql.size());
  if (annotation.plan != nullptr) bytes += annotation.plan->EstimateBytes();
  return bytes;
}

}  // namespace

AnnotationCache::AnnotationCache(int num_shards, size_t capacity,
                                 MemoryTracker* tracker)
    : capacity_(capacity), tracker_(tracker) {
  int n = std::max(1, num_shards);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (capacity_ > 0) {
    shard_capacity_ =
        std::max<size_t>(1, capacity_ / static_cast<size_t>(n));
  }
}

AnnotationCache::~AnnotationCache() {
  if (tracker_ != nullptr) {
    int64_t held = memory_bytes_.load(std::memory_order_relaxed);
    if (held > 0) tracker_->Release(held);
  }
}

AnnotationCache::Shard& AnnotationCache::ShardFor(
    std::string_view signature) const {
  size_t h = std::hash<std::string_view>{}(signature);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const CostAnnotation> AnnotationCache::Find(
    std::string_view signature) const {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(signature);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.annotation;
}

std::shared_ptr<const CostAnnotation> AnnotationCache::Put(
    std::string_view signature, CostAnnotation annotation) {
  int64_t entry_bytes =
      tracker_ != nullptr ? EstimateEntryBytes(signature, annotation) : 0;
  auto entry =
      std::make_shared<const CostAnnotation>(std::move(annotation));
  Shard& shard = ShardFor(signature);
  int64_t delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(signature);
    if (it != shard.map.end()) {
      delta = entry_bytes - it->second.bytes;
      it->second.annotation = entry;
      it->second.bytes = entry_bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      auto pos = shard.map.try_emplace(std::string(signature)).first;
      pos->second.annotation = entry;
      pos->second.bytes = entry_bytes;
      shard.lru.push_front(&pos->first);
      pos->second.lru_it = shard.lru.begin();
      delta = entry_bytes;
      if (shard_capacity_ > 0 && shard.map.size() > shard_capacity_) {
        const std::string* victim = shard.lru.back();
        shard.lru.pop_back();
        auto vit = shard.map.find(*victim);
        delta -= vit->second.bytes;
        shard.map.erase(vit);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (tracker_ != nullptr && delta != 0) {
    // ForceReserve: cache growth must not fail an insert mid-structure; the
    // shared tracker's next TryReserve is the enforcement point.
    if (delta > 0) {
      tracker_->ForceReserve(delta);
    } else {
      tracker_->Release(-delta);
    }
    memory_bytes_.fetch_add(delta, std::memory_order_relaxed);
  }
  return entry;
}

void AnnotationCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  int64_t held = memory_bytes_.exchange(0, std::memory_order_relaxed);
  if (tracker_ != nullptr && held > 0) tracker_->Release(held);
}

size_t AnnotationCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

}  // namespace cbqt
