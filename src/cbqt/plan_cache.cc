#include "cbqt/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sql/expr_util.h"

namespace cbqt {

PlanCache::PlanCache(PlanCacheConfig config, MemoryTracker* tracker)
    : config_(config), tracker_(tracker) {
  int n = std::max(1, config_.num_shards);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (config_.capacity > 0) {
    shard_capacity_ =
        std::max<size_t>(1, config_.capacity / static_cast<size_t>(n));
  }
}

PlanCache::~PlanCache() {
  if (tracker_ != nullptr) {
    int64_t held = memory_bytes_.load(std::memory_order_relaxed);
    if (held > 0) tracker_->Release(held);
  }
}

void PlanCache::AccountDelta(int64_t delta) {
  if (delta == 0) return;
  memory_bytes_.fetch_add(delta, std::memory_order_relaxed);
  if (tracker_ == nullptr) return;
  // ForceReserve: publishing a finished plan must not fail; enforcement
  // happens at the next TryReserve against the shared tracker (whose
  // pressure callback sheds this very cache first).
  if (delta > 0) {
    tracker_->ForceReserve(delta);
  } else {
    tracker_->Release(-delta);
  }
}

PlanCache::Shard& PlanCache::ShardFor(std::string_view key) const {
  size_t h = std::hash<std::string_view>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const CachedPlanEntry> PlanCache::Find(std::string_view key,
                                                       uint64_t current_epoch) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second.entry->stats_epoch != current_epoch) {
    // Planned against stale statistics: drop lazily and re-optimize.
    int64_t freed = it->second.entry->bytes;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    AccountDelta(-freed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.entry;
}

int64_t PlanCache::EraseCursorShape(Shard* shard, CursorMap::iterator it) {
  int64_t freed = 0;
  for (const auto& r : it->second.records) freed += r->bytes;
  shard->cursor_lru.erase(it->second.lru_it);
  shard->cursors.erase(it);
  return freed;
}

std::shared_ptr<const CursorRecord> PlanCache::FindCursor(
    std::string_view shape, const std::vector<Token>& tokens,
    uint64_t current_epoch) {
  Shard& shard = ShardFor(shape);
  std::shared_ptr<const CursorRecord> found;
  int64_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.cursors.find(shape);
    if (it != shard.cursors.end()) {
      if (it->second.records.front()->stats_epoch != current_epoch) {
        // The band recipes hold stale statistics: re-register on the full
        // path.
        freed = EraseCursorShape(&shard, it);
      } else {
        for (const auto& r : it->second.records) {
          if (r->Matches(tokens)) {
            found = r;
            break;
          }
        }
        if (found != nullptr) {
          shard.cursor_lru.splice(shard.cursor_lru.begin(), shard.cursor_lru,
                                  it->second.lru_it);
        }
      }
    }
  }
  AccountDelta(-freed);
  (found != nullptr ? cursor_hits_ : cursor_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  return found;
}

void PlanCache::PutCursor(std::shared_ptr<const CursorRecord> record) {
  Shard& shard = ShardFor(record->shape);
  int64_t delta = record->bytes;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.cursors.try_emplace(record->shape);
    CursorSlot& slot = it->second;
    if (inserted) {
      shard.cursor_lru.push_front(&it->first);
      slot.lru_it = shard.cursor_lru.begin();
    } else {
      shard.cursor_lru.splice(shard.cursor_lru.begin(), shard.cursor_lru,
                              slot.lru_it);
    }
    // One epoch per shape, one record per set of constants.
    auto& records = slot.records;
    for (auto r = records.begin(); r != records.end();) {
      if ((*r)->stats_epoch != record->stats_epoch ||
          (*r)->constants == record->constants) {
        delta -= (*r)->bytes;
        r = records.erase(r);
      } else {
        ++r;
      }
    }
    records.insert(records.begin(), std::move(record));
    if (records.size() > kMaxCursorChildren) {
      delta -= records.back()->bytes;
      records.pop_back();
    }
    if (inserted && shard_capacity_ > 0 &&
        shard.cursors.size() > shard_capacity_) {
      const std::string* victim = shard.cursor_lru.back();
      delta -= EraseCursorShape(&shard, shard.cursors.find(*victim));
    }
  }
  AccountDelta(delta);
}

void PlanCache::Put(std::shared_ptr<const CachedPlanEntry> entry) {
  Shard& shard = ShardFor(entry->key);
  int64_t delta = entry->bytes;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(entry->key);
    if (it != shard.map.end()) {
      delta -= it->second.entry->bytes;
      it->second.entry = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      insertions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto pos = shard.map.try_emplace(entry->key).first;
      pos->second.entry = std::move(entry);
      shard.lru.push_front(&pos->first);
      pos->second.lru_it = shard.lru.begin();
      insertions_.fetch_add(1, std::memory_order_relaxed);
      if (shard_capacity_ > 0 && shard.map.size() > shard_capacity_) {
        const std::string* victim = shard.lru.back();
        shard.lru.pop_back();
        auto vit = shard.map.find(*victim);
        delta -= vit->second.entry->bytes;
        shard.map.erase(vit);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  AccountDelta(delta);
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    shard->cursors.clear();
    shard->cursor_lru.clear();
  }
  AccountDelta(-memory_bytes_.load(std::memory_order_relaxed));
}

int64_t PlanCache::EvictBytes(int64_t target_bytes) {
  if (target_bytes <= 0) return 0;
  int64_t freed = 0;
  // Round-robin over the shards, dropping one LRU tail entry per visit, so
  // shedding spreads across shards instead of emptying the first one. Plans
  // go first; a shard without plans sheds its LRU cursor shape instead.
  bool progressed = true;
  while (freed < target_bytes && progressed) {
    progressed = false;
    for (auto& shard : shards_) {
      if (freed >= target_bytes) break;
      std::lock_guard<std::mutex> lock(shard->mu);
      if (shard->lru.empty()) {
        if (shard->cursor_lru.empty()) continue;
        const std::string* victim = shard->cursor_lru.back();
        freed += EraseCursorShape(shard.get(), shard->cursors.find(*victim));
        progressed = true;
        continue;
      }
      const std::string* victim = shard->lru.back();
      shard->lru.pop_back();
      auto vit = shard->map.find(*victim);
      freed += vit->second.entry->bytes;
      shard->map.erase(vit);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      progressed = true;
    }
  }
  if (freed > 0) {
    shed_bytes_.fetch_add(freed, std::memory_order_relaxed);
    AccountDelta(-freed);
  }
  return freed;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.upgrade_attempts = upgrade_attempts_.load(std::memory_order_relaxed);
  out.upgrades = upgrades_.load(std::memory_order_relaxed);
  out.hit_prepares = hit_prepares_.load(std::memory_order_relaxed);
  out.miss_prepares = miss_prepares_.load(std::memory_order_relaxed);
  out.hit_prepare_ms_total =
      static_cast<double>(hit_prepare_ns_.load(std::memory_order_relaxed)) /
      1e6;
  out.miss_prepare_ms_total =
      static_cast<double>(miss_prepare_ns_.load(std::memory_order_relaxed)) /
      1e6;
  out.entries = size();
  out.memory_bytes = memory_bytes_.load(std::memory_order_relaxed);
  out.shed_bytes = shed_bytes_.load(std::memory_order_relaxed);
  out.snapshot_loaded = snapshot_loaded_.load(std::memory_order_relaxed);
  out.snapshot_stale = snapshot_stale_.load(std::memory_order_relaxed);
  out.snapshot_saved = snapshot_saved_.load(std::memory_order_relaxed);
  out.store_imports = store_imports_.load(std::memory_order_relaxed);
  out.store_publishes = store_publishes_.load(std::memory_order_relaxed);
  out.store_stale = store_stale_.load(std::memory_order_relaxed);
  out.rebind_recosts = rebind_recosts_.load(std::memory_order_relaxed);
  out.cursor_hits = cursor_hits_.load(std::memory_order_relaxed);
  out.cursor_misses = cursor_misses_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [shape, slot] : shard->cursors) {
      out.cursors += slot.records.size();
    }
  }
  return out;
}

void PlanCache::RecordHitLatency(double ms) {
  hit_prepares_.fetch_add(1, std::memory_order_relaxed);
  hit_prepare_ns_.fetch_add(static_cast<int64_t>(ms * 1e6),
                            std::memory_order_relaxed);
}

void PlanCache::RecordMissLatency(double ms) {
  miss_prepares_.fetch_add(1, std::memory_order_relaxed);
  miss_prepare_ns_.fetch_add(static_cast<int64_t>(ms * 1e6),
                             std::memory_order_relaxed);
}

void PlanCache::RecordUpgradeAttempt(bool upgraded) {
  upgrade_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (upgraded) upgrades_.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::RecordStoreImport() {
  store_imports_.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::RecordStorePublish() {
  store_publishes_.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::RecordStoreStale() {
  store_stale_.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::RecordRebindRecost() {
  rebind_recosts_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

bool IsLiteralToken(const Token& t) {
  return t.kind == TokenKind::kInt || t.kind == TokenKind::kReal ||
         t.kind == TokenKind::kString;
}

/// True when literal token `t` spells `v` (same kind, same value).
bool TokenSpells(const Token& t, const Value& v) {
  switch (t.kind) {
    case TokenKind::kInt:
      return v.kind() == ValueKind::kInt64 && v.AsInt() == t.int_val;
    case TokenKind::kReal:
      return v.kind() == ValueKind::kDouble && v.AsDouble() == t.real_val;
    case TokenKind::kString:
      return v.kind() == ValueKind::kString && v.AsString() == t.text;
    default:
      return false;
  }
}

/// Heap bytes a Value owns beyond its own size.
int64_t HeapBytes(const Value& v) {
  return v.kind() == ValueKind::kString
             ? static_cast<int64_t>(v.AsString().capacity())
             : 0;
}

int64_t EstimateCursorBytes(const CursorRecord& r) {
  int64_t bytes = static_cast<int64_t>(sizeof(CursorRecord)) +
                  static_cast<int64_t>(r.shape.capacity()) +
                  static_cast<int64_t>(r.key_prefix.capacity()) +
                  static_cast<int64_t>(r.slot_tokens.capacity() * sizeof(int));
  for (const Value& v : r.fixed_params) {
    bytes += static_cast<int64_t>(sizeof(Value)) + HeapBytes(v);
  }
  for (const auto& c : r.constants) {
    bytes += static_cast<int64_t>(sizeof(c)) + HeapBytes(c.second);
  }
  for (const ParamBandRecipe& recipe : r.band_recipes) {
    bytes += static_cast<int64_t>(sizeof(ParamBandRecipe));
    if (recipe.column) {
      bytes += HeapBytes(recipe.column->min) + HeapBytes(recipe.column->max);
    }
  }
  return bytes;
}

}  // namespace

std::string StatementShape(const std::vector<Token>& tokens) {
  std::string shape;
  shape.reserve(tokens.size() * 8);
  for (const Token& t : tokens) {
    shape.push_back(static_cast<char>('0' + static_cast<int>(t.kind)));
    if (IsLiteralToken(t)) continue;  // a literal contributes its kind only
    // Length-prefixed text keeps the encoding injective whatever a hint
    // comment contains.
    size_t n = t.text.size();
    if (n < 0xff) {
      shape.push_back(static_cast<char>(n));
    } else {
      shape.push_back(static_cast<char>(0xff));
      for (int b = 0; b < 4; ++b) {
        shape.push_back(static_cast<char>((n >> (8 * b)) & 0xff));
      }
    }
    shape += t.text;
  }
  return shape;
}

bool CursorRecord::Matches(const std::vector<Token>& tokens) const {
  for (const auto& [pos, value] : constants) {
    if (static_cast<size_t>(pos) >= tokens.size() ||
        !TokenSpells(tokens[static_cast<size_t>(pos)], value)) {
      return false;
    }
  }
  return true;
}

std::vector<Value> CursorRecord::Params(
    const std::vector<Token>& tokens) const {
  std::vector<Value> params;
  params.reserve(slot_tokens.size());
  for (size_t s = 0; s < slot_tokens.size(); ++s) {
    int pos = slot_tokens[s];
    params.push_back(pos >= 0
                         ? LiteralTokenValue(tokens[static_cast<size_t>(pos)])
                         : fixed_params[s]);
  }
  return params;
}

std::string CursorRecord::Key(const std::vector<Value>& params) const {
  std::string key;
  key.reserve(key_prefix.size() + 8 + 4 * params.size());
  key = key_prefix;
  AppendParamKeySuffix(params, &key);
  return key;
}

std::vector<int> CursorRecord::Bands(const std::vector<Value>& params) const {
  return EvaluateParamBands(band_recipes, params);
}

std::shared_ptr<const CursorRecord> BuildCursorRecord(
    const std::vector<Token>& tokens, std::string shape,
    const QueryBlock& tree, const ParameterizedStatement& ps,
    uint64_t stats_epoch, const Catalog& catalog, const StatsRegistry& stats) {
  auto record = std::make_shared<CursorRecord>();
  record->shape = std::move(shape);
  record->stats_epoch = stats_epoch;
  const size_t num_params = ps.params.size();
  record->slot_tokens.assign(num_params, -1);
  record->fixed_params.resize(num_params);

  // Role of each literal token in the parameterized tree: it feeds a slot,
  // and/or it is spelled by a literal that stays a constant.
  constexpr char kFeedsSlot = 1;
  constexpr char kConstant = 2;
  std::vector<char> role(tokens.size(), 0);
  std::vector<bool> slot_seen(num_params, false);
  auto note = [&](const Expr* e, char how) {
    if (e->token_ordinal >= 0 &&
        static_cast<size_t>(e->token_ordinal) < tokens.size()) {
      role[static_cast<size_t>(e->token_ordinal)] |= how;
    }
  };
  VisitAllExprsConst(&tree, [&](const Expr* e) {
    if (e->kind != ExprKind::kLiteral) return;
    if (e->param_index < 0 ||
        static_cast<size_t>(e->param_index) >= num_params) {
      note(e, kConstant);
      return;
    }
    size_t slot = static_cast<size_t>(e->param_index);
    slot_seen[slot] = true;
    record->slot_tokens[slot] = e->token_ordinal;
    if (e->token_ordinal < 0) record->fixed_params[slot] = e->literal;
    note(e, kFeedsSlot);
  });
  // The one place the parser looks at literal values: GROUPING SETS keys
  // are deduplicated by ExprEquals, so how many keys survive depends on
  // their literals. Pin every literal there.
  VisitAllBlocksConst(&tree, [&](const QueryBlock* qb) {
    if (qb->grouping_sets.empty()) return;
    for (const auto& key : qb->group_by) {
      VisitExprDeepConst(key.get(), [&](const Expr* e) {
        if (e->kind == ExprKind::kLiteral) note(e, kConstant);
      });
    }
  });
  for (bool seen : slot_seen) {
    if (!seen) return nullptr;  // a slot the walk cannot place: no record
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsLiteralToken(tokens[i]) || role[i] == kFeedsSlot) continue;
    // Not a slot, or also spelled as a constant, or dropped by the parse:
    // a statement of this shape matches only with the same value here.
    record->constants.emplace_back(static_cast<int>(i),
                                   LiteralTokenValue(tokens[i]));
  }

  std::string suffix;
  AppendParamKeySuffix(ps.params, &suffix);
  record->key_prefix = ps.key.substr(0, ps.key.size() - suffix.size());
  record->band_recipes =
      BuildParamBandRecipes(tree, num_params, catalog, stats);
  record->bytes = EstimateCursorBytes(*record);
  return record;
}

int64_t EstimateEntryBytes(const CachedPlanEntry& entry) {
  int64_t bytes = static_cast<int64_t>(sizeof(CachedPlanEntry)) +
                  static_cast<int64_t>(entry.key.capacity());
  if (entry.tree != nullptr) bytes += entry.tree->EstimateBytes();
  if (entry.source_tree != nullptr) bytes += entry.source_tree->EstimateBytes();
  if (entry.plan != nullptr) bytes += entry.plan->EstimateBytes();
  bytes += static_cast<int64_t>(entry.param_bands.capacity() * sizeof(int));
  return bytes;
}

void SerializeCachedPlanEntry(const CachedPlanEntry& entry, ByteWriter* w) {
  w->Str(entry.key);
  w->U64(entry.stats_epoch);
  w->Bool(entry.tree != nullptr);
  if (entry.tree != nullptr) WriteQueryBlock(*entry.tree, w);
  w->Bool(entry.plan != nullptr);
  if (entry.plan != nullptr) WritePlanNode(*entry.plan, w);
  w->Bool(entry.source_tree != nullptr);
  if (entry.source_tree != nullptr) WriteQueryBlock(*entry.source_tree, w);
  w->F64(entry.cost);
  // Telemetry subset of CbqtStats worth surviving a restart: what the search
  // did and whether it was budget-limited. The per-transformation maps are
  // diagnostic-only and are not persisted.
  w->I32(entry.stats.states_evaluated);
  w->I64(entry.stats.blocks_planned);
  w->Bool(entry.stats.budget_exhausted);
  w->I32(entry.stats.searches_degraded);
  w->U32(static_cast<uint32_t>(entry.stats.applied.size()));
  for (const auto& t : entry.stats.applied) w->Str(t);
  w->U32(static_cast<uint32_t>(entry.num_params));
  w->U32(static_cast<uint32_t>(entry.param_bands.size()));
  for (int b : entry.param_bands) w->I32(b);
  w->Bool(entry.degraded);
  w->F64(entry.planned_budget.deadline_ms);
  w->I64(entry.planned_budget.max_states);
  w->I64(entry.planned_budget.max_exec_rows);
  w->I32(entry.upgrade_attempts);
}

Result<std::shared_ptr<CachedPlanEntry>> DeserializeCachedPlanEntry(
    ByteReader* r) {
  auto entry = std::make_shared<CachedPlanEntry>();
  CBQT_RETURN_IF_ERROR(r->Str(&entry->key));
  CBQT_RETURN_IF_ERROR(r->U64(&entry->stats_epoch));
  bool present = false;
  CBQT_RETURN_IF_ERROR(r->Bool(&present));
  if (present) {
    std::unique_ptr<QueryBlock> tree;
    CBQT_RETURN_IF_ERROR(ReadQueryBlock(r, &tree));
    entry->tree = std::move(tree);
  }
  CBQT_RETURN_IF_ERROR(r->Bool(&present));
  if (present) {
    std::unique_ptr<PlanNode> plan;
    CBQT_RETURN_IF_ERROR(ReadPlanNode(r, &plan));
    entry->plan = std::move(plan);
  }
  CBQT_RETURN_IF_ERROR(r->Bool(&present));
  if (present) {
    std::unique_ptr<QueryBlock> source;
    CBQT_RETURN_IF_ERROR(ReadQueryBlock(r, &source));
    entry->source_tree = std::move(source);
  }
  if (entry->tree == nullptr || entry->plan == nullptr ||
      entry->source_tree == nullptr) {
    return r->Fail("cached entry missing tree, plan, or source tree");
  }
  CBQT_RETURN_IF_ERROR(r->F64(&entry->cost));
  CBQT_RETURN_IF_ERROR(r->I32(&entry->stats.states_evaluated));
  CBQT_RETURN_IF_ERROR(r->I64(&entry->stats.blocks_planned));
  CBQT_RETURN_IF_ERROR(r->Bool(&entry->stats.budget_exhausted));
  CBQT_RETURN_IF_ERROR(r->I32(&entry->stats.searches_degraded));
  uint32_t n = 0;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string t;
    CBQT_RETURN_IF_ERROR(r->Str(&t));
    entry->stats.applied.push_back(std::move(t));
  }
  uint32_t num_params = 0;
  CBQT_RETURN_IF_ERROR(r->U32(&num_params));
  entry->num_params = num_params;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    int32_t b = 0;
    CBQT_RETURN_IF_ERROR(r->I32(&b));
    entry->param_bands.push_back(b);
  }
  CBQT_RETURN_IF_ERROR(r->Bool(&entry->degraded));
  CBQT_RETURN_IF_ERROR(r->F64(&entry->planned_budget.deadline_ms));
  CBQT_RETURN_IF_ERROR(r->I64(&entry->planned_budget.max_states));
  CBQT_RETURN_IF_ERROR(r->I64(&entry->planned_budget.max_exec_rows));
  CBQT_RETURN_IF_ERROR(r->I32(&entry->upgrade_attempts));
  entry->bytes = EstimateEntryBytes(*entry);
  return entry;
}

Status PlanCache::SaveSnapshot(const std::string& path,
                               uint64_t schema_fingerprint) const {
  ByteWriter payload;
  payload.U64(schema_fingerprint);
  uint32_t count = 0;
  ByteWriter entries;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // LRU order, most recent first, so a capacity-truncated reload keeps the
    // hottest statements.
    for (const std::string* key : shard->lru) {
      auto it = shard->map.find(*key);
      SerializeCachedPlanEntry(*it->second.entry, &entries);
      ++count;
    }
  }
  payload.U32(count);
  std::string body = payload.Take() + entries.Take();
  std::string framed = FramePayload(kPlanSnapshotMagic, std::move(body));

  // Atomic replace: a crash mid-save leaves the previous snapshot intact,
  // and a concurrent loader never observes a half-written file.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open snapshot tmp file: " + tmp);
    }
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    if (!out) {
      return Status::Internal("short write to snapshot tmp file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename snapshot into place: " + path);
  }
  snapshot_saved_.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

Result<size_t> PlanCache::LoadSnapshot(const std::string& path,
                                       uint64_t current_epoch,
                                       uint64_t schema_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return size_t{0};  // no snapshot yet: cold start, not an error
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();

  auto payload = UnframePayload(kPlanSnapshotMagic, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r(*payload);
  uint64_t fingerprint = 0;
  uint32_t count = 0;
  CBQT_RETURN_IF_ERROR(r.U64(&fingerprint));
  CBQT_RETURN_IF_ERROR(r.U32(&count));
  if (fingerprint != schema_fingerprint) {
    // A snapshot of some other schema: plans in it must never execute here.
    snapshot_stale_.fetch_add(count, std::memory_order_relaxed);
    return size_t{0};
  }
  size_t loaded = 0;
  for (uint32_t i = 0; i < count; ++i) {
    auto entry = DeserializeCachedPlanEntry(&r);
    if (!entry.ok()) return entry.status();
    if ((*entry)->stats_epoch != current_epoch) {
      snapshot_stale_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Put(std::move(*entry));
    ++loaded;
  }
  if (!r.exhausted()) {
    return r.Fail(std::to_string(r.remaining()) +
                  " trailing bytes after snapshot entries");
  }
  snapshot_loaded_.fetch_add(static_cast<int64_t>(loaded),
                             std::memory_order_relaxed);
  return loaded;
}

namespace {

bool IsBoundParam(const Expr* e, const std::vector<Value>& params) {
  return e->kind == ExprKind::kLiteral && e->param_index >= 0 &&
         static_cast<size_t>(e->param_index) < params.size();
}

// Calls `fn` on every expression of `node` itself (not of its children).
template <typename Node, typename Fn>
void ForEachOwnExpr(Node& node, Fn fn) {
  for (auto* exprs : {&node.probes, &node.filter, &node.join_conds,
                      &node.hash_left_keys, &node.hash_right_keys,
                      &node.group_keys, &node.agg_exprs, &node.projections,
                      &node.sort_keys, &node.window_exprs}) {
    for (auto& e : *exprs) fn(e);
  }
  for (auto& keys : node.subplan_corr_keys) {
    for (auto& e : keys) fn(e);
  }
}

bool HasOwnParams(const PlanNode& node, const std::vector<Value>& params) {
  bool found = false;
  ForEachOwnExpr(node, [&](const ExprPtr& e) {
    if (e == nullptr) return;
    VisitExprDeepConst(e.get(), [&](const Expr* x) {
      found = found || IsBoundParam(x, params);
    });
  });
  return found;
}

void RebindOwnParams(PlanNode* node, const std::vector<Value>& params) {
  ForEachOwnExpr(*node, [&](ExprPtr& e) {
    if (e == nullptr) return;
    VisitExprDeep(e.get(), [&](Expr* x) {
      if (IsBoundParam(x, params)) {
        x->literal = params[static_cast<size_t>(x->param_index)];
      }
    });
  });
}

constexpr std::vector<PlanPtr> PlanNode::*kChildLists[] = {
    &PlanNode::children, &PlanNode::subplans};

// A rebound copy of `node` over rebound children, or null when no parameter
// lies in its subtree (the node stays shared).
std::unique_ptr<PlanNode> Rebound(const PlanNode& node,
                                  const std::vector<Value>& params) {
  std::unique_ptr<PlanNode> copy;  // made at the first change
  for (auto list : kChildLists) {
    for (size_t i = 0; i < (node.*list).size(); ++i) {
      std::unique_ptr<PlanNode> child = Rebound(*(node.*list)[i], params);
      if (child == nullptr) continue;
      if (copy == nullptr) copy = node.Clone();
      ((*copy).*list)[i] = std::move(child);
    }
  }
  if (copy == nullptr) {
    if (!HasOwnParams(node, params)) return nullptr;
    copy = node.Clone();
  }
  RebindOwnParams(copy.get(), params);
  return copy;
}

}  // namespace

void RebindPlanParams(PlanNode* plan, const std::vector<Value>& params) {
  if (plan == nullptr || params.empty()) return;
  RebindOwnParams(plan, params);
  for (auto list : kChildLists) {
    for (auto& child : plan->*list) {
      if (auto rebound = Rebound(*child, params)) child = std::move(rebound);
    }
  }
}

}  // namespace cbqt
