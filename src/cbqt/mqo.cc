#include "cbqt/mqo.h"

namespace cbqt {

SharedOptimizeCaches MqoRegistry::PrepareCaches(uint64_t stats_epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_epoch != caches_epoch_) {
      // Annotations embed statistics-derived costs and plans; a stats
      // refresh invalidates them wholesale (epoch bumps happen under the
      // database write lock, so no query is mid-optimization here).
      annotations_.Clear();
      join_memo_.Clear();
      caches_epoch_ = stats_epoch;
    }
  }
  SharedOptimizeCaches out;
  out.annotations = &annotations_;
  out.join_memo = &join_memo_;
  return out;
}

int64_t MqoRegistry::EvictBytes(int64_t target_bytes) {
  int64_t freed = annotations_.EvictBytes(target_bytes);
  if (freed < target_bytes) {
    freed += join_memo_.EvictBytes(target_bytes - freed);
  }
  return freed;
}

MqoStats MqoRegistry::stats() const {
  MqoStats out;
  out.shared_subplan_hits = annotations_.hits();
  out.shared_join_memo_hits = join_memo_.hits();
  out.cache_memory_bytes =
      annotations_.memory_bytes() + join_memo_.memory_bytes();
  return out;
}

}  // namespace cbqt
