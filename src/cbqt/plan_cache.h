#ifndef CBQT_CBQT_PLAN_CACHE_H_
#define CBQT_CBQT_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cbqt/framework.h"
#include "common/budget.h"
#include "common/memory_tracker.h"
#include "common/sharded_lru.h"
#include "common/value.h"
#include "optimizer/card_est.h"
#include "optimizer/plan.h"
#include "optimizer/plan_serde.h"
#include "parser/lexer.h"
#include "sql/parameterize.h"
#include "sql/query_block.h"

namespace cbqt {

/// One cached optimization result, keyed by a parameterized statement key
/// (sql/parameterize.h) and pinned to the catalog stats epoch it was planned
/// under. Immutable once published — a hit clones the tree and re-binds the
/// caller's literal values into the clone and into copies of just the plan
/// nodes that hold them; upgrades replace the whole entry rather than
/// mutating it. The only mutable members are the atomics driving the
/// budget-upgrade ladder.
struct CachedPlanEntry {
  std::string key;
  uint64_t stats_epoch = 0;

  /// The chosen (transformed, bound) query tree and physical plan, with
  /// parameterized literals carrying their Expr::param_index slots.
  std::unique_ptr<const QueryBlock> tree;
  PlanPtr plan;
  /// The *original* parsed (parameterized, untransformed) statement: the
  /// budget-upgrade path re-optimizes from here, because a degraded
  /// optimization may have applied heuristic transformations that a
  /// full-budget search starting from the transformed tree could not undo.
  std::unique_ptr<const QueryBlock> source_tree;
  double cost = 0;
  CbqtStats stats;  ///< telemetry of the Optimize() that produced the plan
  size_t num_params = 0;
  /// Selectivity band (optimizer/card_est.h) of each parameter slot at the
  /// literal values the plan was optimized for; -1 = band-insensitive. A hit
  /// whose re-bound literals land in a different band re-costs the statement
  /// instead of blindly reusing the plan.
  std::vector<int> param_bands;
  /// Estimated footprint of the entry (trees + plan + key), computed by the
  /// engine before Put and charged against the engine memory tracker while
  /// the entry is cached.
  int64_t bytes = 0;

  // Budget-upgrade state (PlanCacheConfig): a degraded entry was planned
  // under a tripped OptimizerBudget and re-optimizes itself with an enlarged
  // budget once hot.
  bool degraded = false;
  OptimizerBudget planned_budget;  ///< budget the plan was produced under
  int upgrade_attempts = 0;        ///< attempts consumed so far (inherited)
  mutable std::atomic<int64_t> hits{0};  ///< hits since this entry was cached
  /// CAS gate so at most one thread runs the (expensive) re-optimization for
  /// this statement at a time; others keep serving the degraded plan.
  mutable std::atomic<bool> upgrade_in_flight{false};
};

/// A statement's shape for cursor sharing: its token stream with every
/// literal token (kInt / kReal / kString) replaced by a marker of its kind.
/// Whitespace, comments and identifier case never reach the tokens, so two
/// statements differing only in those and in literal values share a shape.
/// The encoding is injective: equal shapes mean equal token streams up to
/// the literal values.
std::string StatementShape(const std::vector<Token>& tokens);

/// One cursor-sharing record (Oracle's CURSOR_SHARING done at the token
/// level): what one full parse + ParameterizeQuery of a statement found,
/// kept so that a later statement of the same shape gets its plan-cache key,
/// parameters and selectivity bands from its tokens alone, with no parse.
/// Every field is a replay of ParameterizeQuery's result, never a second
/// implementation of its sharing rule. Immutable once published.
struct CursorRecord {
  std::string shape;  ///< exact shape: a hash collision can never match
  /// The band recipes embed this epoch's statistics; a record of another
  /// epoch is dropped on lookup.
  uint64_t stats_epoch = 0;
  /// Per parameter slot: the token position of the literal it stands for,
  /// or -1 when a keyword (NULL/TRUE/FALSE) spelled it and its value is
  /// fixed_params[slot].
  std::vector<int> slot_tokens;
  std::vector<Value> fixed_params;
  /// Every literal token that is not a slot (ROWNUM limits, select-list and
  /// arithmetic literals, ...), with the value it must equal for this
  /// record to apply. A statement that differs there is a different
  /// statement: it gets its own record through the full path.
  std::vector<std::pair<int, Value>> constants;
  /// The key ParameterizeQuery rendered, minus AppendParamKeySuffix's part.
  std::string key_prefix;
  std::vector<ParamBandRecipe> band_recipes;  ///< one per slot
  int64_t bytes = 0;  ///< estimated footprint, charged like a plan entry

  /// True when the constant literal tokens of `tokens` (a statement of this
  /// shape) hold the recorded values.
  bool Matches(const std::vector<Token>& tokens) const;
  /// The statement's parameters, in slot order: the values ParameterizeQuery
  /// would extract from its parse.
  std::vector<Value> Params(const std::vector<Token>& tokens) const;
  /// The plan-cache key of the statement with parameters `params`.
  std::string Key(const std::vector<Value>& params) const;
  /// The selectivity band of each slot at `params` (ComputeParamBands).
  std::vector<int> Bands(const std::vector<Value>& params) const;
};

/// The cursor record of a statement that took the full path: `tokens` are
/// its tokens, `tree` is ParseTokens(tokens) after ParameterizeQuery(tree)
/// returned `ps`, and the band recipes resolve against `catalog`/`stats` as
/// of `stats_epoch`.
std::shared_ptr<const CursorRecord> BuildCursorRecord(
    const std::vector<Token>& tokens, std::string shape,
    const QueryBlock& tree, const ParameterizedStatement& ps,
    uint64_t stats_epoch, const Catalog& catalog, const StatsRegistry& stats);

/// Telemetry snapshot of a PlanCache (QueryEngine::plan_cache_stats()).
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;          ///< includes epoch invalidations
  int64_t evictions = 0;       ///< LRU capacity evictions
  int64_t invalidations = 0;   ///< entries dropped for a stale stats epoch
  int64_t insertions = 0;
  int64_t upgrade_attempts = 0;  ///< budget-upgrade re-optimizations started
  int64_t upgrades = 0;          ///< ... that produced a non-degraded plan
  int64_t hit_prepares = 0;      ///< Prepare calls served from the cache
  int64_t miss_prepares = 0;     ///< Prepare calls that optimized from scratch
  double hit_prepare_ms_total = 0;
  double miss_prepare_ms_total = 0;
  size_t entries = 0;
  int64_t memory_bytes = 0;      ///< estimated bytes held by cached entries
  int64_t shed_bytes = 0;        ///< bytes freed by EvictBytes (memory pressure)

  // Persistence telemetry (zero when no snapshot is configured).
  int64_t snapshot_loaded = 0;   ///< entries warm-started from a snapshot
  int64_t snapshot_stale = 0;    ///< snapshot entries skipped (epoch/schema)
  int64_t snapshot_saved = 0;    ///< entries streamed to a snapshot file
  int64_t rebind_recosts = 0;    ///< hits re-costed on a selectivity-band move

  // Cursor table (FindCursor / PutCursor).
  int64_t cursor_hits = 0;     ///< statements keyed from a record, no parse
  int64_t cursor_misses = 0;   ///< statements that had to parse (incl. stale)
  size_t cursors = 0;          ///< records held (memory_bytes includes them)

  double hit_rate() const {
    int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0;
  }
  double avg_hit_prepare_ms() const {
    return hit_prepares > 0 ? hit_prepare_ms_total / hit_prepares : 0;
  }
  double avg_miss_prepare_ms() const {
    return miss_prepares > 0 ? miss_prepare_ms_total / miss_prepares : 0;
  }
};

/// Engine-level plan cache: a sharded, thread-safe, LRU-bounded map from a
/// normalized (literal-parameterized) statement key to an immutable cached
/// plan entry. Owned by QueryEngine; `WHERE id = 7` and `WHERE id = 9` map
/// to one entry whose literal vector is re-bound at Prepare time.
///
/// Invalidation is lazy and epoch-based: every entry records the Database
/// stats epoch it was planned under, and Find() drops entries whose epoch no
/// longer matches — a stats refresh (Database::Analyze) silently invalidates
/// the whole cache without touching it.
///
/// Beside the plans, the cache keeps the cursor table: statement shape ->
/// CursorRecord, so a repeat of a known shape is keyed from one lexer pass
/// (FindCursor). The table holds at most as many shapes as the cache holds
/// plans, evicts them LRU, drops records of a stale stats epoch on lookup,
/// and charges them to memory_bytes like plans. A shape keeps a few child
/// records that differ in their constant literals.
///
/// Plans and shapes are two ShardedLruMaps (common/sharded_lru.h), which
/// own the locking: mutex-guarded shards, entries handed out as shared_ptr
/// so a hit survives concurrent replacement or eviction.
class PlanCache {
 public:
  /// `tracker` (optional) charges every cached entry's CachedPlanEntry::bytes
  /// while it sits in the cache — the engine passes its root MemoryTracker so
  /// cached plans participate in the engine byte budget and can be shed under
  /// memory pressure (EvictBytes). All bytes are released on eviction,
  /// invalidation, Clear(), and destruction.
  explicit PlanCache(PlanCacheConfig config, MemoryTracker* tracker = nullptr);

  /// The cached entry for `key` planned under `current_epoch`, or nullptr.
  /// An entry with a stale epoch is erased (counted as invalidation + miss).
  /// A hit refreshes LRU position.
  std::shared_ptr<const CachedPlanEntry> Find(std::string_view key,
                                              uint64_t current_epoch);

  /// Inserts or replaces the entry under entry->key, evicting the LRU tail
  /// beyond the per-shard capacity.
  void Put(std::shared_ptr<const CachedPlanEntry> entry);

  /// The record of `shape` whose constants `tokens` match, registered under
  /// `current_epoch`, or nullptr. A shape whose records carry a stale epoch
  /// is dropped. Finding the shape refreshes its LRU position.
  std::shared_ptr<const CursorRecord> FindCursor(
      std::string_view shape, const std::vector<Token>& tokens,
      uint64_t current_epoch);

  /// Registers `record` under its shape: it replaces a record with the same
  /// constants, joins the shape's other children (the oldest beyond
  /// kMaxCursorChildren leaves), and evicts the LRU shape beyond the
  /// per-shard capacity.
  void PutCursor(std::shared_ptr<const CursorRecord> record);

  void Clear();

  /// Memory-pressure shedding: evicts LRU plans (round-robin across shards),
  /// then LRU cursor shapes — a record without its plan saves only a parse —
  /// until at least `target_bytes` of estimated entry bytes are freed or
  /// the cache is empty. Returns the bytes actually freed. Wired as the
  /// engine root tracker's pressure callback, so a reservation that would
  /// exceed the engine budget sheds cached plans before failing.
  int64_t EvictBytes(int64_t target_bytes);

  /// Estimated bytes currently held by cached entries.
  int64_t memory_bytes() const {
    return plans_.memory_bytes() + cursors_.memory_bytes();
  }

  size_t size() const;
  PlanCacheStats stats() const;
  const PlanCacheConfig& config() const { return config_; }

  // Latency / upgrade telemetry, recorded by QueryEngine::Prepare.
  void RecordHitLatency(double ms);
  void RecordMissLatency(double ms);
  void RecordUpgradeAttempt(bool upgraded);

  // Re-binding telemetry, recorded by QueryEngine.
  void RecordRebindRecost();

  /// Streams every cached entry to `path` (atomically: tmp file + rename) as
  /// one framed, checksummed blob stamped with the catalog schema
  /// fingerprint. Degraded entries are saved too — their upgrade ladder
  /// resumes after the restart.
  Status SaveSnapshot(const std::string& path,
                      uint64_t schema_fingerprint) const;

  /// Warm-starts the cache from `path`: validates the frame (magic, version,
  /// checksum), the schema fingerprint and every entry, then Put()s the
  /// entries whose stats epoch equals `current_epoch` (others count as
  /// snapshot_stale), coldest first, so the reload reproduces each shard's
  /// recency and a capacity-truncated reload keeps the hottest entries.
  /// A missing file is not an error (returns 0); malformed bytes yield a
  /// typed DataCorruption and load nothing.
  Result<size_t> LoadSnapshot(const std::string& path, uint64_t current_epoch,
                              uint64_t schema_fingerprint);

 private:
  /// Child records one shape keeps (statements of one shape that differ in
  /// a constant literal, such as a ROWNUM limit).
  static constexpr size_t kMaxCursorChildren = 8;

  /// The records of one shape, newest first, all of one stats epoch.
  using CursorShape = std::vector<std::shared_ptr<const CursorRecord>>;

  PlanCacheConfig config_;
  ShardedLruMap<CachedPlanEntry> plans_;
  ShardedLruMap<CursorShape> cursors_;
  std::atomic<int64_t> shed_bytes_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> upgrade_attempts_{0};
  std::atomic<int64_t> upgrades_{0};
  std::atomic<int64_t> hit_prepares_{0};
  std::atomic<int64_t> miss_prepares_{0};
  std::atomic<int64_t> hit_prepare_ns_{0};
  std::atomic<int64_t> miss_prepare_ns_{0};
  std::atomic<int64_t> snapshot_loaded_{0};
  std::atomic<int64_t> snapshot_stale_{0};
  /// mutable: SaveSnapshot is logically const (the cache is unchanged).
  mutable std::atomic<int64_t> snapshot_saved_{0};
  std::atomic<int64_t> rebind_recosts_{0};
  std::atomic<int64_t> cursor_hits_{0};
  std::atomic<int64_t> cursor_misses_{0};
};

/// Estimated footprint of one plan-cache entry (trees + plan + key), charged
/// against the engine memory tracker while the entry is cached.
int64_t EstimateEntryBytes(const CachedPlanEntry& entry);

/// Magic of a framed plan-cache snapshot file ("CBQS").
inline constexpr uint32_t kPlanSnapshotMagic = 0x53514243u;  // "CBQS" LE

/// Serializes one cache entry (key, epoch, trees, plan, cost, telemetry,
/// parameter bands, upgrade-ladder state) into `w` — unframed; the snapshot
/// file adds its own frame around the batch of entries. The mutable atomics (hits, upgrade gate) are not persisted.
void SerializeCachedPlanEntry(const CachedPlanEntry& entry, ByteWriter* w);

/// Inverse of SerializeCachedPlanEntry. The deserialized trees are unbound
/// (catalog pointers are never serialized), which every consumer tolerates:
/// execution uses only the plan, and upgrades re-optimize the source tree
/// through CbqtOptimizer::Optimize, which re-binds internally. `bytes` is
/// recomputed; the atomics start fresh.
Result<std::shared_ptr<CachedPlanEntry>> DeserializeCachedPlanEntry(
    ByteReader* r);

/// Sets every parameterized literal (Expr::param_index >= 0) anywhere in
/// `plan` — probes, filters, join conditions, keys, projections, subplans,
/// TIS cache keys, recursively — to the value of its slot in `params`. `plan`
/// (a Clone() of a cached root) is rebound in place; below it, each shared
/// node on a path to a parameter is replaced by a rebound copy. The
/// complement of BindTreeParams for physical plans.
void RebindPlanParams(PlanNode* plan, const std::vector<Value>& params);

}  // namespace cbqt

#endif  // CBQT_CBQT_PLAN_CACHE_H_
