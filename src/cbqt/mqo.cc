#include "cbqt/mqo.h"

namespace cbqt {

void MqoRegistry::JoinBatch(uint64_t query_id) {
  (void)query_id;
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ == 0) ++batches_formed_;
  ++active_;
  ++batch_queries_;
}

void MqoRegistry::LeaveBatch(uint64_t query_id) {
  (void)query_id;
  bool batch_over = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ > 0 && --active_ == 0) batch_over = true;
  }
  // Outside the registry lock: retiring degrades incomplete streams, which
  // takes stream locks and wakes waiting consumers.
  if (batch_over) hub_.RetireAll();
}

SharedOptimizeCaches MqoRegistry::PrepareCaches(uint64_t stats_epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_epoch != caches_epoch_) {
      // Annotations embed statistics-derived costs and plans; a stats
      // refresh invalidates them wholesale (epoch bumps happen under the
      // database write lock, so no batch member is mid-optimization here).
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

MqoStats MqoRegistry::stats() const {
  MqoStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.batches_formed = batches_formed_;
    out.batch_queries = batch_queries_;
  }
  out.shared_subplan_hits = annotations_.hits();
  out.shared_join_memo_hits = join_memo_.hits();
  out.cache_memory_bytes =
      annotations_.memory_bytes() + join_memo_.memory_bytes();
  const SharedScanStats& s = hub_.stats();
  out.scan_streams = s.scan_streams.load(std::memory_order_relaxed);
  out.materialize_streams =
      s.materialize_streams.load(std::memory_order_relaxed);
  out.scan_consumers = s.consumers.load(std::memory_order_relaxed);
  out.scan_replays = s.replays.load(std::memory_order_relaxed);
  out.rows_shared = s.rows_shared.load(std::memory_order_relaxed);
  out.bytes_saved = s.bytes_saved.load(std::memory_order_relaxed);
  out.pressure_fallbacks = s.pressure_fallbacks.load(std::memory_order_relaxed);
  out.wait_fallbacks = s.wait_fallbacks.load(std::memory_order_relaxed);
  out.private_fallbacks = s.private_fallbacks.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cbqt
