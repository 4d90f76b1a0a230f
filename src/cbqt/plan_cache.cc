#include "cbqt/plan_cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sql/expr_util.h"

namespace cbqt {

PlanCache::PlanCache(PlanCacheConfig config, MemoryTracker* tracker)
    : config_(config),
      plans_(config_.num_shards, config_.capacity, tracker),
      cursors_(config_.num_shards, config_.capacity, tracker) {}

std::shared_ptr<const CachedPlanEntry> PlanCache::Find(std::string_view key,
                                                       uint64_t current_epoch) {
  // Planned against stale statistics: dropped lazily, then re-optimized.
  return plans_.Find(key, [current_epoch](const CachedPlanEntry& entry) {
    return entry.stats_epoch != current_epoch;
  });
}

void PlanCache::Put(std::shared_ptr<const CachedPlanEntry> entry) {
  const CachedPlanEntry& e = *entry;
  plans_.Put(e.key, std::move(entry), e.bytes);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const CursorRecord> PlanCache::FindCursor(
    std::string_view shape, const std::vector<Token>& tokens,
    uint64_t current_epoch) {
  // A shape of another epoch holds stale band recipes: it is dropped and
  // re-registered on the full path.
  auto records = cursors_.Find(shape, [current_epoch](const CursorShape& r) {
    return r.front()->stats_epoch != current_epoch;
  });
  std::shared_ptr<const CursorRecord> found;
  if (records != nullptr) {
    for (const auto& r : *records) {
      if (r->Matches(tokens)) {
        found = r;
        break;
      }
    }
  }
  (found != nullptr ? cursor_hits_ : cursor_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  return found;
}

void PlanCache::PutCursor(std::shared_ptr<const CursorRecord> record) {
  cursors_.Upsert(record->shape, [&record](const CursorShape* old) {
    auto records = std::make_shared<CursorShape>();
    records->push_back(record);
    int64_t bytes = record->bytes;
    // One epoch per shape, one record per set of constants.
    for (size_t i = 0; old != nullptr && i < old->size(); ++i) {
      const auto& r = (*old)[i];
      if (records->size() == kMaxCursorChildren) break;
      if (r->stats_epoch == record->stats_epoch &&
          r->constants != record->constants) {
        records->push_back(r);
        bytes += r->bytes;
      }
    }
    return std::make_pair(std::move(records), bytes);
  });
}

void PlanCache::Clear() {
  plans_.Clear();
  cursors_.Clear();
}

int64_t PlanCache::EvictBytes(int64_t target_bytes) {
  int64_t freed = plans_.EvictBytes(target_bytes);
  if (freed < target_bytes) freed += cursors_.EvictBytes(target_bytes - freed);
  shed_bytes_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

size_t PlanCache::size() const { return plans_.size(); }

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  out.hits = plans_.hits();
  out.misses = plans_.misses();
  out.evictions = plans_.evictions();
  out.invalidations = plans_.invalidations();
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
  out.memory_bytes = memory_bytes();
  out.shed_bytes = shed_bytes_.load(std::memory_order_relaxed);
  out.snapshot_loaded = snapshot_loaded_.load(std::memory_order_relaxed);
  out.snapshot_stale = snapshot_stale_.load(std::memory_order_relaxed);
  out.snapshot_saved = snapshot_saved_.load(std::memory_order_relaxed);
  out.rebind_recosts = rebind_recosts_.load(std::memory_order_relaxed);
  out.cursor_hits = cursor_hits_.load(std::memory_order_relaxed);
  out.cursor_misses = cursor_misses_.load(std::memory_order_relaxed);
  cursors_.ForEach(
      [&out](const CursorShape& records) { out.cursors += records.size(); });
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
  // Each shard most recent first; LoadSnapshot inserts in reverse.
  plans_.ForEach([&](const CachedPlanEntry& entry) {
    SerializeCachedPlanEntry(entry, &entries);
    ++count;
  });
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
  // Decode and check everything before the first Put: a malformed entry
  // or trailing bytes load nothing.
  std::vector<std::shared_ptr<CachedPlanEntry>> decoded;
  for (uint32_t i = 0; i < count; ++i) {
    auto entry = DeserializeCachedPlanEntry(&r);
    if (!entry.ok()) return entry.status();
    decoded.push_back(std::move(*entry));
  }
  if (!r.exhausted()) {
    return r.Fail(std::to_string(r.remaining()) +
                  " trailing bytes after snapshot entries");
  }
  // Coldest first: each Put makes its entry the most recent of its shard.
  size_t loaded = 0;
  for (auto it = decoded.rbegin(); it != decoded.rend(); ++it) {
    if ((*it)->stats_epoch != current_epoch) {
      snapshot_stale_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Put(std::move(*it));
    ++loaded;
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
