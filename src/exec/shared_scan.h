#ifndef CBQT_EXEC_SHARED_SCAN_H_
#define CBQT_EXEC_SHARED_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "optimizer/plan.h"

namespace cbqt {

/// Multi-query shared scans and shared materialized intermediates
/// (exec side of the MQO layer, cbqt/mqo.h).
///
/// When several concurrently admitted queries scan the same table under the
/// same pushed predicate — or compute the same single-table intermediate
/// (filter / project / sort / distinct / aggregate chain) — only one of
/// them runs the work. The first execution to open such an operator becomes
/// the *producer*: it runs the wrapped operator normally and appends every
/// produced batch to a keyed SharedStream. Every later execution becomes a
/// *consumer* and drains the stream's buffer instead of re-scanning.
///
/// Invariants the implementation maintains:
///   - Row identity: a consumer observes exactly the rows (values and
///     order) its private execution would have produced. Eligibility
///     (ShareableScanKey / ShareableMaterializeKey) admits only
///     deterministic, correlation-free, ROWNUM-free, subquery-free
///     subtrees, so the producer's stream *is* the consumer's stream.
///   - Never block on yourself: a consumer never waits on a stream whose
///     producer lives in the same execution (an in-plan self-join), nor on
///     any stream while its own execution holds an unfinished producer
///     role elsewhere (two queries could otherwise wait on each other).
///     Both cases degrade to private execution immediately.
///   - Bounded waiting: a consumer waits for the producer in short slices,
///     polling its own cancellation guardrail between slices, and gives up
///     after the hub's wait budget — falling back to a private scan that
///     skips the rows already served (scans are deterministic, so skip-N
///     resumes bit-identically).
///   - Graceful degradation: the stream buffer is charged to the hub's
///     MemoryTracker; when a reservation fails the stream is marked
///     degraded, consumers finish the already-buffered prefix and continue
///     privately, and the producer keeps running unbuffered.
///   - Independent cancellation: consumers poll their own guardrails and
///     fail individually; a cancelled consumer detaches without touching
///     the producer or the other consumers.
struct SharedScanStats {
  std::atomic<int64_t> scan_streams{0};         ///< producer streams (base scans)
  std::atomic<int64_t> materialize_streams{0};  ///< producer streams (intermediates)
  std::atomic<int64_t> consumers{0};            ///< consumer attachments
  std::atomic<int64_t> replays{0};              ///< rescans served from a
                                                ///< completed stream
  std::atomic<int64_t> rows_shared{0};          ///< rows served from buffers
  std::atomic<int64_t> bytes_saved{0};          ///< estimated bytes of those rows
  std::atomic<int64_t> pressure_fallbacks{0};   ///< streams degraded by memory
  std::atomic<int64_t> wait_fallbacks{0};       ///< consumers that timed out
  std::atomic<int64_t> private_fallbacks{0};    ///< deadlock-avoid / degraded-
                                                ///< stream fallbacks
};

/// One keyed producer→consumers row buffer. Thread-safe; created and
/// retired by the SharedScanHub, drained by SharedScanOperator.
class SharedStream {
 public:
  SharedStream(std::string key, const void* producer, MemoryTracker* tracker)
      : key_(std::move(key)), producer_(producer), tracker_(tracker) {}
  ~SharedStream();

  SharedStream(const SharedStream&) = delete;
  SharedStream& operator=(const SharedStream&) = delete;

  /// What a consumer Read() observed past the buffered rows.
  enum class ReadState {
    kRows,      ///< `out` holds served rows
    kEnd,       ///< buffer drained and the stream completed intact
    kPending,   ///< producer still running — wait or fall back
    kDegraded,  ///< stream degraded — finish privately with skip
  };

  /// Producer: buffers a copy of `batch`, charging its estimated bytes.
  /// Returns false once the stream is degraded (charge failure or retire);
  /// the already-buffered prefix stays valid for consumers.
  bool Append(const RowBatch& batch);
  void MarkComplete();
  void MarkDegraded();

  /// Consumer: copies up to `max` rows starting at `*cursor` into `out`
  /// (cleared first), advancing the cursor; `*bytes` gets their estimated
  /// size. Buffered rows are served even on a degraded stream — the prefix
  /// is identical to private execution.
  ReadState Read(size_t* cursor, size_t max, RowBatch* out, int64_t* bytes);

  /// Consumer: sleeps up to `timeout_ms` for rows past `cursor` (or a
  /// terminal state). Returns true when there is something new to observe.
  bool WaitForMore(size_t cursor, int64_t timeout_ms);

  bool IsCompleteIntact() const;
  bool IsDegraded() const;
  const void* producer() const { return producer_; }
  const std::string& key() const { return key_; }

 private:
  friend class SharedScanHub;

  const std::string key_;
  const void* const producer_;
  MemoryTracker* const tracker_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Row> rows_;
  bool complete_ = false;
  bool degraded_ = false;
  int64_t reserved_ = 0;

  /// Guarded by the hub's mutex, not mu_.
  int attached_ = 0;
};

/// The per-engine registry of live shared streams. One hub per
/// MqoRegistry; executions of the same admission batch share it through
/// ExecOptions::shared_scans.
class SharedScanHub {
 public:
  /// `buffer_limit_bytes <= 0` means unlimited buffering; `parent` chains
  /// the hub into the engine's tracker hierarchy.
  explicit SharedScanHub(int64_t buffer_limit_bytes,
                         MemoryTracker* parent = nullptr)
      : buffers_("mqo-shared-scans", buffer_limit_bytes, parent) {}

  /// Total milliseconds a consumer waits for its producer before falling
  /// back to a private scan.
  static constexpr int64_t kConsumerWaitMs = 250;

  struct Acquired {
    std::shared_ptr<SharedStream> stream;  ///< null: run privately
    bool is_producer = false;
  };

  /// Joins the stream for `key`: the first caller becomes the producer (a
  /// fresh stream is registered and `owner`'s producer count is raised),
  /// later callers attach as consumers. A degraded stream is not joinable —
  /// callers get a null stream and run privately.
  Acquired Acquire(const std::string& key, const void* owner,
                   bool materialize);

  /// Drops one attachment. The last detach erases a stream that did not
  /// complete intact; completed streams stay registered (later queries of
  /// the batch replay them) until RetireAll.
  void Detach(const std::shared_ptr<SharedStream>& stream);

  /// The producer for one of `owner`'s streams finished (complete,
  /// degraded, or closed early) — drops one open-producer slot.
  void ProducerSettled(const void* owner);

  /// True while `owner` holds an unfinished producer role. Consumers owned
  /// by such an execution must not block (cross-query producer/consumer
  /// cycles would deadlock).
  bool OwnerHasOpenProducer(const void* owner) const;

  /// Ends an optimization batch: degrades every incomplete stream (waking
  /// any waiter into its private fallback) and clears the registry. Buffers
  /// stay alive while replaying operators still hold their shared_ptr.
  void RetireAll();

  SharedScanStats& stats() { return stats_; }
  const SharedScanStats& stats() const { return stats_; }
  MemoryTracker* tracker() { return &buffers_; }
  size_t live_streams() const;

 private:
  MemoryTracker buffers_;
  SharedScanStats stats_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<SharedStream>> streams_;
  std::unordered_map<const void*, int> open_producers_;
};

/// The SharedScan / SharedMaterialize operator: wraps the ordinary operator
/// for an eligible subtree and routes its stream through the hub. The same
/// class implements both roles — `materialize` only selects the stats
/// bucket; OperatorFactory::Build wraps base scans (ShareableScanKey) and
/// single-table intermediate chains (ShareableMaterializeKey).
class SharedScanOperator final : public Operator {
 public:
  SharedScanOperator(ExecContext* ctx, const PlanNode* node,
                     SharedScanHub* hub, std::string key,
                     std::unique_ptr<Operator> inner, bool materialize)
      : Operator(ctx, node),
        hub_(hub),
        key_(std::move(key)),
        inner_(std::move(inner)),
        materialize_(materialize) {}

  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  enum class Mode { kUnopened, kProducer, kConsumer, kReplay, kPrivate };

  Status OpenInner();
  /// Leaves the stream (degrading an unfinished producer role) and
  /// re-enters as a private scan that drops the first `skip` output rows.
  Status GoPrivate(size_t skip);
  void SettleProducer();
  Result<bool> ProducerNext(RowBatch* out);
  Result<bool> ConsumerNext(RowBatch* out);
  Result<bool> PrivateNext(RowBatch* out);

  SharedScanHub* const hub_;
  const std::string key_;
  std::unique_ptr<Operator> inner_;
  const bool materialize_;

  std::shared_ptr<SharedStream> stream_;
  Mode mode_ = Mode::kUnopened;
  size_t cursor_ = 0;  ///< rows consumed from the stream buffer
  size_t skip_ = 0;    ///< private mode: output rows still to drop
  bool producer_open_ = false;
  bool inner_opened_ = false;
  bool opened_once_ = false;
  bool append_failed_ = false;
};

/// Sharing key for a base-table scan, or "" when the scan is not
/// shareable. Eligible: kTableScan without index probes whose every pushed
/// filter is self-contained on the scan's alias (sql/signature.h). The key
/// normalizes the alias away and canonicalizes the predicate, so the same
/// table + predicate under different aliases or conjunct orders collides.
std::string ShareableScanKey(const PlanNode& node);

/// Sharing key for a single-table intermediate — a chain of
/// filter / project / sort / distinct / aggregate nodes over one eligible
/// base scan — or "" when not shareable. All expressions in the chain must
/// be self-contained on the leaf scan's alias.
std::string ShareableMaterializeKey(const PlanNode& node);

}  // namespace cbqt

#endif  // CBQT_EXEC_SHARED_SCAN_H_
