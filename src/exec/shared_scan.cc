#include "exec/shared_scan.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/value.h"
#include "sql/signature.h"

namespace cbqt {

namespace {

/// Consumer wait slice: short enough that cancellation polls stay
/// responsive, long enough that a healthy producer outruns the waiter.
constexpr int64_t kWaitSliceMs = 5;

int64_t BatchBytes(const RowBatch& batch) {
  int64_t bytes = 0;
  for (const auto& row : batch.rows()) bytes += EstimateRowBytes(row);
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedStream

SharedStream::~SharedStream() {
  if (tracker_ != nullptr && reserved_ > 0) tracker_->Release(reserved_);
}

bool SharedStream::Append(const RowBatch& batch) {
  if (batch.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    return !degraded_;
  }
  int64_t bytes = BatchBytes(batch);
  // Reserve outside the stream lock: the tracker may run the engine's
  // pressure ladder (cache eviction callbacks), which must not nest under
  // stream state.
  bool reserved = tracker_ == nullptr || tracker_->TryReserve(bytes).ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) {
      if (reserved && tracker_ != nullptr) tracker_->Release(bytes);
      return false;
    }
    if (!reserved) {
      degraded_ = true;
      cv_.notify_all();
      return false;
    }
    reserved_ += bytes;
    for (const auto& row : batch.rows()) rows_.push_back(row);
  }
  cv_.notify_all();
  return true;
}

void SharedStream::MarkComplete() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    complete_ = true;
  }
  cv_.notify_all();
}

void SharedStream::MarkDegraded() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    degraded_ = true;
  }
  cv_.notify_all();
}

SharedStream::ReadState SharedStream::Read(size_t* cursor, size_t max,
                                           RowBatch* out, int64_t* bytes) {
  out->Clear();
  *bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (*cursor < rows_.size()) {
    size_t end = std::min(rows_.size(), *cursor + max);
    for (size_t i = *cursor; i < end; ++i) {
      *bytes += EstimateRowBytes(rows_[i]);
      out->Add(Row(rows_[i]));
    }
    *cursor = end;
    return ReadState::kRows;
  }
  if (complete_ && !degraded_) return ReadState::kEnd;
  if (degraded_) return ReadState::kDegraded;
  return ReadState::kPending;
}

bool SharedStream::WaitForMore(size_t cursor, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return rows_.size() > cursor || complete_ || degraded_;
  });
}

bool SharedStream::IsCompleteIntact() const {
  std::lock_guard<std::mutex> lock(mu_);
  return complete_ && !degraded_;
}

bool SharedStream::IsDegraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

// ---------------------------------------------------------------------------
// SharedScanHub

SharedScanHub::Acquired SharedScanHub::Acquire(const std::string& key,
                                               const void* owner,
                                               bool materialize) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(key);
  if (it != streams_.end()) {
    if (it->second->IsDegraded()) return {};
    it->second->attached_++;
    return {it->second, false};
  }
  auto stream = std::make_shared<SharedStream>(key, owner, &buffers_);
  stream->attached_ = 1;
  streams_[key] = stream;
  open_producers_[owner]++;
  auto& counter = materialize ? stats_.materialize_streams : stats_.scan_streams;
  counter.fetch_add(1, std::memory_order_relaxed);
  return {stream, true};
}

void SharedScanHub::Detach(const std::shared_ptr<SharedStream>& stream) {
  std::lock_guard<std::mutex> lock(mu_);
  if (--stream->attached_ > 0) return;
  if (stream->IsCompleteIntact()) return;  // stays joinable until RetireAll
  auto it = streams_.find(stream->key());
  if (it != streams_.end() && it->second == stream) streams_.erase(it);
}

void SharedScanHub::ProducerSettled(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_producers_.find(owner);
  if (it != open_producers_.end() && --it->second <= 0) {
    open_producers_.erase(it);
  }
}

bool SharedScanHub::OwnerHasOpenProducer(const void* owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_producers_.find(owner);
  return it != open_producers_.end() && it->second > 0;
}

void SharedScanHub::RetireAll() {
  std::vector<std::shared_ptr<SharedStream>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.reserve(streams_.size());
    for (auto& entry : streams_) doomed.push_back(entry.second);
    streams_.clear();
    open_producers_.clear();
  }
  for (auto& stream : doomed) {
    if (!stream->IsCompleteIntact()) stream->MarkDegraded();
  }
}

size_t SharedScanHub::live_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streams_.size();
}

// ---------------------------------------------------------------------------
// SharedScanOperator

Status SharedScanOperator::OpenInner() {
  CBQT_RETURN_IF_ERROR(inner_->Open());
  inner_opened_ = true;
  return Status::OK();
}

void SharedScanOperator::SettleProducer() {
  if (!producer_open_) return;
  producer_open_ = false;
  hub_->ProducerSettled(ctx_);
}

Status SharedScanOperator::Open() {
  cursor_ = 0;
  if (opened_once_) {
    // Rescan (nested-loop right side). A completed intact stream replays
    // from its buffer — the shared-scan analogue of a materialized rescan;
    // anything else abandons sharing and rescans privately from row 0.
    if (stream_ != nullptr && stream_->IsCompleteIntact()) {
      mode_ = Mode::kReplay;
      hub_->stats().replays.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (producer_open_) {
      if (stream_ != nullptr) stream_->MarkDegraded();
      SettleProducer();
    }
    if (stream_ != nullptr) {
      hub_->Detach(stream_);
      stream_.reset();
    }
    mode_ = Mode::kPrivate;
    skip_ = 0;
    return OpenInner();
  }
  opened_once_ = true;
  auto acquired = hub_->Acquire(key_, ctx_, materialize_);
  if (acquired.stream == nullptr) {
    mode_ = Mode::kPrivate;
    skip_ = 0;
    return OpenInner();
  }
  stream_ = std::move(acquired.stream);
  if (acquired.is_producer) {
    mode_ = Mode::kProducer;
    producer_open_ = true;
    return OpenInner();
  }
  mode_ = Mode::kConsumer;
  hub_->stats().consumers.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<bool> SharedScanOperator::ProducerNext(RowBatch* out) {
  auto more = inner_->NextBatch(out);
  if (!more.ok()) {
    // The producing query failed (cancel, fault, resource) — degrade so
    // waiting consumers fall back instead of hanging on a dead stream.
    stream_->MarkDegraded();
    SettleProducer();
    return more;
  }
  if (!more.value()) {
    stream_->MarkComplete();
    SettleProducer();
    return false;
  }
  if (!append_failed_ && !stream_->Append(*out)) {
    append_failed_ = true;
    hub_->stats().pressure_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

Status SharedScanOperator::GoPrivate(size_t skip) {
  if (stream_ != nullptr) {
    hub_->Detach(stream_);
    stream_.reset();
  }
  mode_ = Mode::kPrivate;
  skip_ = skip;
  return OpenInner();
}

Result<bool> SharedScanOperator::ConsumerNext(RowBatch* out) {
  int64_t waited_ms = 0;
  while (mode_ == Mode::kConsumer || mode_ == Mode::kReplay) {
    int64_t bytes = 0;
    auto state = stream_->Read(&cursor_, ctx_->batch_size, out, &bytes);
    if (state == SharedStream::ReadState::kRows) {
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(out->size())));
      hub_->stats().rows_shared.fetch_add(static_cast<int64_t>(out->size()),
                                          std::memory_order_relaxed);
      hub_->stats().bytes_saved.fetch_add(bytes, std::memory_order_relaxed);
      return true;
    }
    if (state == SharedStream::ReadState::kEnd) return false;
    if (state == SharedStream::ReadState::kDegraded ||
        stream_->producer() == ctx_ || hub_->OwnerHasOpenProducer(ctx_)) {
      // Degraded stream, in-plan self-share, or our own execution holds an
      // unfinished producer role — never wait in any of these.
      hub_->stats().private_fallbacks.fetch_add(1, std::memory_order_relaxed);
      CBQT_RETURN_IF_ERROR(GoPrivate(cursor_));
      break;
    }
    CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
    if (waited_ms >= SharedScanHub::kConsumerWaitMs) {
      hub_->stats().wait_fallbacks.fetch_add(1, std::memory_order_relaxed);
      CBQT_RETURN_IF_ERROR(GoPrivate(cursor_));
      break;
    }
    stream_->WaitForMore(cursor_, kWaitSliceMs);
    waited_ms += kWaitSliceMs;
  }
  return PrivateNext(out);
}

Result<bool> SharedScanOperator::PrivateNext(RowBatch* out) {
  auto more = inner_->NextBatch(out);
  if (!more.ok() || !more.value()) return more;
  if (skip_ > 0 && !out->empty()) {
    // Resuming after rows were served from a stream: the wrapped operator
    // is deterministic, so dropping the first skip_ output rows continues
    // the stream bit-identically. An over-dropped (empty) true batch is
    // legal — the caller keeps pulling.
    size_t drop = std::min(skip_, out->size());
    out->rows().erase(out->rows().begin(),
                      out->rows().begin() + static_cast<ptrdiff_t>(drop));
    skip_ -= drop;
  }
  return true;
}

Result<bool> SharedScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  switch (mode_) {
    case Mode::kProducer:
      return ProducerNext(out);
    case Mode::kConsumer:
    case Mode::kReplay:
      return ConsumerNext(out);
    case Mode::kPrivate:
      return PrivateNext(out);
    case Mode::kUnopened:
      break;
  }
  return Status::Internal("SharedScanOperator::NextBatch before Open");
}

void SharedScanOperator::Close() {
  if (producer_open_) {
    // Closed before completing (LIMIT above us, error unwind): the buffered
    // prefix alone is not the full stream — degrade it.
    if (stream_ != nullptr && !stream_->IsCompleteIntact()) {
      stream_->MarkDegraded();
    }
    SettleProducer();
  }
  if (stream_ != nullptr) {
    hub_->Detach(stream_);
    stream_.reset();
  }
  if (inner_opened_) {
    inner_->Close();
    inner_opened_ = false;
  }
  mode_ = Mode::kUnopened;
  opened_once_ = false;
}

// ---------------------------------------------------------------------------
// Eligibility and keys

namespace {

bool ExprsShareable(const std::vector<ExprPtr>& exprs,
                    const std::string& alias) {
  for (const auto& e : exprs) {
    if (e == nullptr || !ExprUsesOnlyAlias(*e, alias)) return false;
  }
  return true;
}

/// Output schema fragment of the key: slot names and types, with the scan's
/// alias normalized away so per-query aliasing does not split streams.
std::string OutCols(const PlanNode& node, const std::string& alias) {
  std::string s;
  for (const auto& slot : node.output) {
    if (!s.empty()) s += ",";
    s += (slot.alias == alias ? std::string("$T") : slot.alias);
    s += ".";
    s += slot.name;
    s += ":";
    s += std::to_string(static_cast<int>(slot.type));
  }
  return s;
}

std::string ExprListSignature(const std::vector<ExprPtr>& exprs,
                              const std::string& alias) {
  std::string s;
  for (const auto& e : exprs) {
    if (!s.empty()) s += ",";
    s += ExprSignature(*e, alias);
  }
  return s;
}

/// Finds the single base scan a candidate chain bottoms out on, or null
/// when the subtree contains anything outside the shareable chain shape.
const PlanNode* ChainLeafScan(const PlanNode& node) {
  const PlanNode* cur = &node;
  for (;;) {
    switch (cur->op) {
      case PlanOp::kTableScan:
        return cur->probes.empty() ? cur : nullptr;
      case PlanOp::kFilter:
      case PlanOp::kProject:
      case PlanOp::kSort:
      case PlanOp::kDistinct:
      case PlanOp::kAggregate:
        if (cur->children.size() != 1 || !cur->subplans.empty()) {
          return nullptr;
        }
        cur = cur->children[0].get();
        break;
      default:
        return nullptr;
    }
  }
}

/// Renders one chain node's key (recursing into its child), or "" when an
/// expression is not self-contained on the leaf alias.
std::string ChainNodeKey(const PlanNode& node, const std::string& alias) {
  std::string child;
  if (node.op != PlanOp::kTableScan) {
    child = ChainNodeKey(*node.children[0], alias);
    if (child.empty()) return "";
  }
  switch (node.op) {
    case PlanOp::kTableScan:
      if (!ExprsShareable(node.filter, alias)) return "";
      return "scan(" + node.table_name + "|" + OutCols(node, alias) + "|" +
             ConjunctsSignature(node.filter, alias) + ")";
    case PlanOp::kFilter:
      if (!ExprsShareable(node.filter, alias)) return "";
      return "filter(" + ConjunctsSignature(node.filter, alias) + ")<" +
             child + ">";
    case PlanOp::kProject:
      if (!ExprsShareable(node.projections, alias)) return "";
      return "project(" + ExprListSignature(node.projections, alias) + "|" +
             OutCols(node, alias) + ")<" + child + ">";
    case PlanOp::kSort: {
      if (!ExprsShareable(node.sort_keys, alias)) return "";
      std::string keys;
      for (size_t i = 0; i < node.sort_keys.size(); ++i) {
        if (!keys.empty()) keys += ",";
        keys += ExprSignature(*node.sort_keys[i], alias);
        keys += (i < node.sort_ascending.size() && !node.sort_ascending[i])
                    ? " desc"
                    : " asc";
      }
      return "sort(" + keys + ")<" + child + ">";
    }
    case PlanOp::kDistinct:
      return "distinct<" + child + ">";
    case PlanOp::kAggregate: {
      if (!ExprsShareable(node.group_keys, alias) ||
          !ExprsShareable(node.agg_exprs, alias)) {
        return "";
      }
      std::string sets;
      for (const auto& gs : node.grouping_sets) {
        sets += "(";
        for (size_t i = 0; i < gs.size(); ++i) {
          if (i > 0) sets += ",";
          sets += std::to_string(gs[i]);
        }
        sets += ")";
      }
      return "agg(" + ExprListSignature(node.group_keys, alias) + ";" +
             ExprListSignature(node.agg_exprs, alias) + ";" + sets + "|" +
             OutCols(node, alias) + ")<" + child + ">";
    }
    default:
      return "";
  }
}

}  // namespace

std::string ShareableScanKey(const PlanNode& node) {
  if (node.op != PlanOp::kTableScan || !node.probes.empty()) return "";
  if (!ExprsShareable(node.filter, node.table_alias)) return "";
  return "scan:" + node.table_name + "|" + OutCols(node, node.table_alias) +
         "|" + ConjunctsSignature(node.filter, node.table_alias);
}

std::string ShareableMaterializeKey(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kFilter:
    case PlanOp::kProject:
    case PlanOp::kSort:
    case PlanOp::kDistinct:
    case PlanOp::kAggregate:
      break;
    default:
      return "";  // base scans go through ShareableScanKey
  }
  const PlanNode* leaf = ChainLeafScan(node);
  if (leaf == nullptr) return "";
  std::string key = ChainNodeKey(node, leaf->table_alias);
  if (key.empty()) return "";
  return "mat:" + key;
}

}  // namespace cbqt
