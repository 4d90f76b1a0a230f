#include "exec/operators.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/fault_injector.h"
#include "exec/compiled_expr.h"
#include "exec/key_table.h"
#include "sql/expr_util.h"

namespace cbqt {

// ---------------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------------

namespace {

ExecOptions ClampBatchSize(ExecOptions options) {
  if (options.batch_size == 0) options.batch_size = 1;
  return options;
}

int64_t RowCap(const BudgetTracker* budget) {
  if (budget != nullptr && budget->budget().max_exec_rows > 0) {
    return budget->budget().max_exec_rows;
  }
  return std::numeric_limits<int64_t>::max();
}

}  // namespace

ExecContext::ExecContext(const Database& database, const ExecOptions& opts)
    : db(&database),
      options(ClampBatchSize(opts)),
      has_guards(opts.guards.any()),
      row_cap(RowCap(opts.budget)) {}

Status ExecContext::CountBatch(int64_t n) {
  if (n <= 0) return Status::OK();
  ++stats.batches;
  stats.rows_processed += n;
  if (stats.rows_processed > row_cap) {
    options.budget->MarkExhausted(BudgetDimension::kExecRows);
    return Status::BudgetExhausted(
        "executor row budget exceeded (max_exec_rows=" +
        std::to_string(options.budget->budget().max_exec_rows) + ")");
  }
  if (has_guards) {
    if (options.guards.faults != nullptr) {
      CBQT_RETURN_IF_ERROR(
          options.guards.faults->MaybeFail(FaultSite::kExecBatch));
    }
    return options.guards.Poll();
  }
  return Status::OK();
}

Status ExecContext::ChargeBuffered(ScopedReservation& res, int64_t bytes) {
  FaultInjector* faults = options.guards.faults;
  if (faults != nullptr) {
    CBQT_RETURN_IF_ERROR(faults->MaybeFail(FaultSite::kExecSpillCheck));
    if (faults->MaybeFire(FaultSite::kMemoryPressure)) {
      return Status::ResourceExhausted(
          "injected memory pressure (executor pipeline breaker)");
    }
  }
  return res.Grow(bytes);
}

Result<SpillManager*> ExecContext::GetSpill() {
  if (spill_mgr_ == nullptr) {
    auto m = SpillManager::Create(options.spill_dir, options.guards.faults,
                                  &stats.spill);
    if (!m.ok()) return m.status();
    spill_mgr_ = std::move(m.value());
  }
  return spill_mgr_.get();
}

namespace {

/// Fan-out of a spilling pipeline breaker, and the recursion bound when a
/// partition itself does not fit (each level re-salts the hash, so only an
/// adversarial key set can keep colliding).
constexpr size_t kSpillPartitions = 8;
constexpr int kMaxSpillDepth = 6;

/// Poll cadence (rows) while re-reading spilled partitions: the rows were
/// already counted when first consumed, so cancellation is checked without
/// recounting (and without consuming kExecBatch fault hits).
constexpr int64_t kSpillPollMask = 0xFF;

size_t PartitionOfHash(size_t row_hash, int salt) {
  uint64_t h = static_cast<uint64_t>(row_hash);
  h ^= 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(salt + 1);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % kSpillPartitions);
}

size_t PartitionOfKey(const Row& key, int salt) {
  return PartitionOfHash(HashRow(key), salt);
}

/// Opens the kSpillPartitions files of a spilling pipeline breaker into
/// `parts` and counts the operator as spilled.
Status OpenSpillPartitions(ExecContext* ctx, const char* tag,
                           std::vector<SpillFile*>* parts) {
  auto mgr = ctx->GetSpill();
  if (!mgr.ok()) return mgr.status();
  parts->reserve(kSpillPartitions);
  for (size_t i = 0; i < kSpillPartitions; ++i) {
    auto f = mgr.value()->NewFile(tag);
    if (!f.ok()) return f.status();
    parts->push_back(f.value());
  }
  ++ctx->stats.spilled_operators;
  return Status::OK();
}

/// LEFT OUTER null extension: `left` padded with one NULL per right column.
Row NullExtend(Row left, size_t right_width) {
  left.insert(left.end(), right_width, Value::Null());
  return left;
}

/// The hash join's build image: a KeyTable of the distinct build keys, and
/// per key its first and last build row, with per-build-row next links
/// chaining each key's rows in build-input order. Callers never insert a
/// key that holds a NULL.
class JoinTable {
 public:
  static constexpr int kNone = KeyTable::kNone;

  /// Drops every key and row, keeping the allocations for the next build.
  void Clear() {
    keys_.Clear();
    head_.clear();
    tail_.clear();
    rows_.clear();
    next_.clear();
  }

  bool empty() const { return rows_.empty(); }

  /// Appends `row` after the earlier build rows of `key`.
  Status Insert(const Row& key, Row&& row) {
    if (rows_.size() >= static_cast<size_t>(INT32_MAX)) {
      return Status::ResourceExhausted(
          "hash-join build side exceeds 2^31-1 rows");
    }
    const int ri = static_cast<int>(rows_.size());
    rows_.push_back(std::move(row));
    next_.push_back(kNone);
    const auto [k, fresh] = keys_.Insert(key);
    if (fresh) {
      head_.push_back(ri);
      tail_.push_back(ri);
      return Status::OK();
    }
    next_[static_cast<size_t>(tail_[static_cast<size_t>(k)])] = ri;
    tail_[static_cast<size_t>(k)] = ri;
    return Status::OK();
  }

  /// The first build row under `key`, or kNone; Next() walks the rest.
  int Find(const Row& key) const { return Head(keys_.Find(key)); }

  /// Find() on a one-column table, by the key value itself.
  int Find(const Value& key) const { return Head(keys_.Find(key)); }
  int Next(int ri) const { return next_[static_cast<size_t>(ri)]; }
  const Row& row(int ri) const { return rows_[static_cast<size_t>(ri)]; }

  /// Calls fn(key hash, row) for every build row: keys in first-seen
  /// order, each key's rows in build-input order.
  template <typename Fn>
  Status ForEachRow(Fn&& fn) const {
    for (size_t k = 0; k < head_.size(); ++k) {
      for (int ri = head_[k]; ri != kNone; ri = Next(ri)) {
        CBQT_RETURN_IF_ERROR(fn(keys_.hash(static_cast<int>(k)), row(ri)));
      }
    }
    return Status::OK();
  }

 private:
  int Head(int k) const {
    return k == kNone ? kNone : head_[static_cast<size_t>(k)];
  }

  KeyTable keys_;
  std::vector<int> head_;  // first build row per key id
  std::vector<int> tail_;  // last build row per key id
  std::vector<Row> rows_;  // build rows in input order
  std::vector<int> next_;  // next build row under the same key
};

// Mirrors the planner's subquery traversal order (pre-order, not descending
// into nested subquery blocks).
void CollectSubqueryNodesExec(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kSubquery) {
    out->push_back(e);
    return;
  }
  for (const auto& c : e->children) CollectSubqueryNodesExec(c.get(), out);
  for (const auto& c : e->partition_by) CollectSubqueryNodesExec(c.get(), out);
  for (const auto& c : e->win_order_by) CollectSubqueryNodesExec(c.get(), out);
}

struct AggAccum {
  double sum = 0;
  int64_t count = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;
  KeyTable distinct;  // COUNT(DISTINCT)'s values seen, one column

  void Add(const Value& v, const Expr& agg) {
    if (agg.agg == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    if (agg.agg_distinct && !distinct.Insert(v).second) return;
    ++count;
    switch (agg.agg) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.kind() == ValueKind::kInt64 && sum_is_int) {
          isum += v.AsInt();
        } else {
          if (sum_is_int) {
            sum = static_cast<double>(isum);
            sum_is_int = false;
          }
          sum += v.NumericValue();
        }
        break;
      case AggFunc::kMin:
        if (min.is_null() || TotalLess(v, min)) min = v;
        break;
      case AggFunc::kMax:
        if (max.is_null() || TotalLess(max, v)) max = v;
        break;
      default:
        break;
    }
  }

  Value Finish(const Expr& agg) const {
    switch (agg.agg) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return sum_is_int ? Value::Int(isum) : Value::Real(sum);
      case AggFunc::kAvg: {
        if (count == 0) return Value::Null();
        double total = sum_is_int ? static_cast<double>(isum) : sum;
        return Value::Real(total / static_cast<double>(count));
      }
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

bool SortRowLess(const Row& a, const Row& b, const std::vector<bool>& asc,
                 size_t num_keys) {
  for (size_t i = 0; i < num_keys; ++i) {
    bool ascending = i < asc.size() ? asc[i] : true;
    const Value& x = a[i];
    const Value& y = b[i];
    // Oracle default: NULLS LAST ascending, NULLS FIRST descending.
    if (x.is_null() && y.is_null()) continue;
    if (x.is_null()) return !ascending;
    if (y.is_null()) return ascending;
    Ordering ord = CompareValues(x, y);
    if (ord == Ordering::kEqual || ord == Ordering::kUnknown) continue;
    bool less = ord == Ordering::kLess;
    return ascending ? less : !less;
  }
  return false;
}

bool SortRowLess(const Row& a, const Row& b, const std::vector<bool>& asc) {
  return SortRowLess(a, b, asc, a.size());
}

/// Opens `child`, hands fn each row of its non-empty batches — each batch
/// counted with CountBatch first — and closes it.
template <typename Fn>
Status ConsumeInput(ExecContext* ctx, Operator* child, Fn&& fn) {
  CBQT_RETURN_IF_ERROR(child->Open());
  RowBatch b;
  for (;;) {
    auto more = child->NextBatch(&b);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    if (b.empty()) continue;
    CBQT_RETURN_IF_ERROR(ctx->CountBatch(static_cast<int64_t>(b.size())));
    for (Row& r : b.rows()) CBQT_RETURN_IF_ERROR(fn(r));
  }
  child->Close();
  return Status::OK();
}

/// Re-reads spill file `f` from its start, calling fn(i, row) on each row
/// i (0-based) while fn returns true. The rows were counted when first
/// consumed, so the walk only polls for cancellation, once per 256 rows:
/// after rows 255, 511, ..., or after rows 0, 256, ... when `poll_first`.
template <typename Fn>
Status WalkSpill(ExecContext* ctx, SpillFile* f, bool poll_first, Fn&& fn) {
  CBQT_RETURN_IF_ERROR(f->Rewind());
  const int64_t phase = poll_first ? 0 : 1;
  Row r;
  for (int64_t i = 0;; ++i) {
    auto more = f->Next(&r);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    if (((i + phase) & kSpillPollMask) == 0) {
      CBQT_RETURN_IF_ERROR(ctx->PollOnly());
    }
    Result<bool> go_on = fn(i, r);
    if (!go_on.ok()) return go_on.status();
    if (!go_on.value()) return Status::OK();
  }
}

/// Inner and left outer joins emit every matching combined row; semi and
/// anti joins stop at a probe row's first match, which decides it.
bool EmitsMatches(JoinKind kind) {
  return kind == JoinKind::kInner || kind == JoinKind::kLeftOuter;
}

/// The join verdict: what a probe row emits beyond its matching combined
/// rows, from whether some build row matched it and whether some
/// comparison was unknown. Semi emits the row when matched, anti when not,
/// null-aware anti when neither matched nor unknown (NOT IN semantics), and
/// left outer the row NULL-extended by `right_width` when unmatched. Forced
/// inline: it runs once per probe row, where the join kind's switch stays
/// free of a call.
[[gnu::always_inline]] inline void EmitVerdict(JoinKind kind, bool matched,
                                               bool unknown, Row&& lrow,
                                               size_t right_width,
                                               std::vector<Row>* sink) {
  switch (kind) {
    case JoinKind::kSemi:
      if (matched) sink->push_back(std::move(lrow));
      return;
    case JoinKind::kAnti:
      if (!matched) sink->push_back(std::move(lrow));
      return;
    case JoinKind::kAntiNA:
      if (!matched && !unknown) sink->push_back(std::move(lrow));
      return;
    case JoinKind::kLeftOuter:
      if (!matched) sink->push_back(NullExtend(std::move(lrow), right_width));
      return;
    case JoinKind::kInner:
      return;
  }
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Sentinel source index for the rowid pseudo-column.
constexpr int kRowIdSrc = -1;

/// Maps each output slot of a scan to its column index in the stored table
/// (or kRowIdSrc for the rowid pseudo-column). Column pruning may have
/// narrowed the scan's output to a subset of the table's columns, so the
/// mapping is by name, mirroring how the planner built the schema.
Status MapScanSlots(const Schema& output, const TableDef& def,
                    std::vector<int>* src_slots) {
  src_slots->clear();
  src_slots->reserve(output.size());
  for (const auto& slot : output) {
    int idx = def.FindColumn(slot.name);
    if (idx < 0 && slot.name == "rowid") idx = kRowIdSrc;
    if (idx < 0 && slot.name != "rowid") {
      return Status::Internal("scan output column missing from table " +
                              def.name + ": " + slot.name);
    }
    src_slots->push_back(idx);
  }
  return Status::OK();
}

/// True when `e` is built from literals, unary and binary operators and
/// column refs that all resolve outside `schema` (the scan's output),
/// through an enclosing frame: its value is fixed while the enclosing
/// frames hold their rows.
bool IsOuterBound(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return FindSlot(schema, e.table_alias, e.column_name) < 0;
    case ExprKind::kUnary:
    case ExprKind::kBinary:
      for (const auto& c : e.children) {
        if (!IsOuterBound(*c, schema)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// True when conjunct `e` is `column <cmp> outer` or `outer <cmp> column`,
/// where the column resolves in `schema` and `outer` IsOuterBound. Fills the
/// column's slot, the comparison as seen with the column on the left, and
/// the outer expression.
bool AsOuterBoundCompare(const Expr& e, const Schema& schema, int* slot,
                         BinaryOp* op, const Expr** outer) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bop)) return false;
  for (size_t side = 0; side < 2; ++side) {
    const Expr& col = *e.children[side];
    const Expr& other = *e.children[1 - side];
    if (col.kind != ExprKind::kColumnRef) continue;
    const int found = FindSlot(schema, col.table_alias, col.column_name);
    if (found < 0 || !IsOuterBound(other, schema)) continue;
    *slot = found;
    *op = side == 0 ? e.bop : SwapComparison(e.bop);
    *outer = &other;
    return true;
  }
  return false;
}

/// A scan's pushed filter and its materialization from the stored columns,
/// shared by the table and index scans. Candidates arrive as a selection
/// vector of rowids. Each `slot <cmp> constant` conjunct on a stored column
/// runs first as a typed FilterKernel straight over that column's array,
/// narrowing the selection vector. So does each outer-bound conjunct,
/// `slot <cmp> outer` where `outer` reads only enclosing frames (a
/// correlated predicate of a tuple-iteration subquery): its constant is
/// `outer`'s value, evaluated once per Open at the first non-empty batch,
/// and a NULL value rejects every candidate. The other conjuncts then test
/// each remaining candidate on a scratch scan row that holds only the slots
/// they read. The survivors are materialized last, from the columns, a
/// column at a time and only the scan's output slots (late
/// materialization: rows that fail, and unreferenced columns, never leave
/// the table). A conjunct that needs the enclosing frames and is not
/// outer-bound (a function call, say) keeps the filter whole: no kernels,
/// every conjunct tested in its original order, so each conjunct is
/// evaluated on the rows the planner priced it for.
class ScanFilter {
 public:
  explicit ScanFilter(const PlanNode* node)
      : node_(node), filter_(node->filter, &node->output) {}

  /// Called by each Open of the scan: binds the filter to `table` on the
  /// first call, and makes the outer-bound kernels bind afresh.
  Status Open(const Table& table) {
    if (table_ == nullptr) CBQT_RETURN_IF_ERROR(Bind(table));
    outer_pending_ = !outer_.empty();
    return Status::OK();
  }

  /// Appends to `out`, in order, the scan row of each candidate stored row
  /// (rowids sel[0, n)) that passes. The rowids are narrowed in place.
  Status Emit(EvalContext& ev, int64_t* sel, size_t n, RowBatch* out) {
    if (n == 0) return Status::OK();
    if (outer_pending_) CBQT_RETURN_IF_ERROR(BindOuter(ev));
    if (outer_null_) return Status::OK();
    for (const FilterKernel& k : kernels_) {
      if (n == 0) return Status::OK();
      n = k.Select(sel, n);
    }
    if (!filter_.empty()) {
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        for (int s : rest_slots_) {
          scratch_[static_cast<size_t>(s)] =
              ValueAt(src_slots_[static_cast<size_t>(s)], sel[i]);
        }
        auto pass = filter_.Test(ev, scratch_);
        if (!pass.ok()) return pass.status();
        sel[kept] = sel[i];
        kept += IsTruthy(pass.value()) ? 1 : 0;
      }
      n = kept;
    }
    std::vector<Row>& rows = out->rows();
    const size_t base = rows.size();
    rows.resize(base + n);
    Row* dst = rows.data() + base;
    for (size_t i = 0; i < n; ++i) dst[i].reserve(src_slots_.size());
    for (int s : src_slots_) {
      if (s == kRowIdSrc) {
        for (size_t i = 0; i < n; ++i) dst[i].push_back(Value::Int(sel[i]));
      } else {
        table_->column(static_cast<size_t>(s)).AppendTo(sel, n, dst);
      }
    }
    return Status::OK();
  }

 private:
  /// An outer-bound kernel: kernels_[kernel] tests `slot <op> expr`.
  struct OuterBound {
    size_t kernel = 0;
    int slot = -1;
    BinaryOp op = BinaryOp::kEq;
    const Expr* expr = nullptr;
    const Column* column = nullptr;
  };

  /// Maps the scan's output onto `table`'s columns and moves the kernel
  /// conjuncts onto their columns.
  Status Bind(const Table& table) {
    CBQT_RETURN_IF_ERROR(MapScanSlots(node_->output, table.def(), &src_slots_));
    table_ = &table;
    scratch_.resize(src_slots_.size());
    std::vector<CompiledExpr> rest;
    bool rest_needs_frame = false;
    size_t i = 0;
    for (const CompiledExpr& p : filter_) {
      const Expr& e = *node_->filter[i++];
      FilterKernel k;
      OuterBound ob;
      int src = kRowIdSrc;
      if (FilterKernel::Make(p, &k)) {
        src = src_slots_[static_cast<size_t>(k.slot())];
      } else if (AsOuterBoundCompare(e, node_->output, &ob.slot, &ob.op,
                                     &ob.expr)) {
        src = src_slots_[static_cast<size_t>(ob.slot)];
      }
      if (src == kRowIdSrc) {  // not a kernel, or a test of the rowid
        rest_needs_frame |= !p.fast();
        rest.push_back(p);
        continue;
      }
      const Column& column = table.column(static_cast<size_t>(src));
      if (ob.expr != nullptr) {
        ob.kernel = kernels_.size();
        ob.column = &column;
        outer_.push_back(ob);
      }
      k.Bind(column);
      kernels_.push_back(std::move(k));
    }
    if (rest_needs_frame) {
      kernels_.clear();
      outer_.clear();
      for (const auto& f : node_->filter) {
        VisitExprDeepConst(f.get(), [this](const Expr* x) {
          if (x->kind != ExprKind::kColumnRef) return;
          const int s = FindSlot(node_->output, x->table_alias, x->column_name);
          if (s >= 0) rest_slots_.push_back(s);
        });
      }
    } else {
      filter_ = CompiledList(std::move(rest), &node_->output);
      for (const CompiledExpr& p : filter_) p.CollectSlots(&rest_slots_);
    }
    std::sort(rest_slots_.begin(), rest_slots_.end());
    rest_slots_.erase(std::unique(rest_slots_.begin(), rest_slots_.end()),
                      rest_slots_.end());
    return Status::OK();
  }

  /// Specializes each outer-bound kernel to its expression's value under
  /// the enclosing frames, the frames every candidate of this Open is
  /// tested under. A NULL value makes its comparison unknown for every
  /// candidate.
  Status BindOuter(EvalContext& ev) {
    outer_pending_ = false;
    outer_null_ = false;
    for (const OuterBound& ob : outer_) {
      auto v = EvalExpr(*ob.expr, ev);
      if (!v.ok()) return v.status();
      FilterKernel& k = kernels_[ob.kernel];
      if (!FilterKernel::MakeCompare(ob.slot, ob.op, v.value(), &k)) {
        outer_null_ = true;
        continue;
      }
      k.Bind(*ob.column);
    }
    return Status::OK();
  }

  /// The value of stored column `src` (or the rowid) at `rowid`.
  Value ValueAt(int src, int64_t rowid) const {
    if (src == kRowIdSrc) return Value::Int(rowid);
    return table_->column(static_cast<size_t>(src))
        .Get(static_cast<size_t>(rowid));
  }

  const PlanNode* node_;
  // On the scan's output schema; after the first Open, the conjuncts that
  // are not kernels.
  CompiledList filter_;
  const Table* table_ = nullptr;      // set by the first Open
  std::vector<int> src_slots_;
  std::vector<FilterKernel> kernels_;  // bound to their stored columns
  std::vector<OuterBound> outer_;      // the kernels bound per Open
  bool outer_pending_ = false;         // outer_ not yet bound this Open
  bool outer_null_ = false;            // some outer value is NULL
  std::vector<int> rest_slots_;        // the output slots filter_ reads
  Row scratch_;  // the candidate in test, rest_slots_ only
};

class TableScanOperator final : public Operator {
 public:
  TableScanOperator(ExecContext* ctx, const PlanNode* node)
      : Operator(ctx, node), filter_(node) {}

  Status Open() override {
    table_ = ctx_->db->FindTable(node_->table_name);
    if (table_ == nullptr) {
      return Status::Internal("missing table at execution: " +
                              node_->table_name);
    }
    CBQT_RETURN_IF_ERROR(filter_.Open(*table_));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    const size_t num_rows = table_->NumRows();
    if (pos_ >= num_rows) return false;
    size_t end = std::min(num_rows, pos_ + ctx_->options.batch_size);
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(end - pos_)));
    sel_.resize(end - pos_);
    for (size_t i = 0; i < sel_.size(); ++i) {
      sel_[i] = static_cast<int64_t>(pos_ + i);
    }
    pos_ = end;
    CBQT_RETURN_IF_ERROR(
        filter_.Emit(ctx_->eval, sel_.data(), sel_.size(), out));
    return true;
  }

 private:
  ScanFilter filter_;
  const Table* table_ = nullptr;
  std::vector<int64_t> sel_;  // the batch's candidate rowids, reused
  size_t pos_ = 0;
};

class IndexScanOperator final : public Operator {
 public:
  IndexScanOperator(ExecContext* ctx, const PlanNode* node)
      : Operator(ctx, node), filter_(node) {}

  Status Open() override {
    const Table* table = ctx_->db->FindTable(node_->table_name);
    const Index* index = ctx_->db->FindIndex(node_->table_name,
                                             node_->index_name);
    if (table == nullptr || index == nullptr) {
      return Status::Internal("missing table/index at execution: " +
                              node_->table_name + "/" + node_->index_name);
    }
    CBQT_RETURN_IF_ERROR(filter_.Open(*table));
    // Probe values resolve through the *enclosing* frames (a rescanning
    // nested-loop join re-Opens this operator once per outer row with the
    // outer frame pushed), so they go through the tree evaluator.
    key_.clear();
    for (const auto& p : node_->probes) {
      auto v = EvalExpr(*p, ctx_->eval);
      if (!v.ok()) return v.status();
      key_.push_back(std::move(v.value()));
    }
    index->LookupEqual(key_, &rowids_);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (pos_ >= rowids_.size()) return false;
    size_t end = std::min(rowids_.size(), pos_ + ctx_->options.batch_size);
    // Candidates are counted before the filter, as the table scan counts.
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(end - pos_)));
    // The batch's stretch of rowids_ is its selection vector; a rescan
    // re-Opens and looks the rowids up again.
    int64_t* sel = rowids_.data() + pos_;
    const size_t n = end - pos_;
    pos_ = end;
    CBQT_RETURN_IF_ERROR(filter_.Emit(ctx_->eval, sel, n, out));
    return true;
  }

 private:
  ScanFilter filter_;
  Row key_;                     // the probe key, reused across re-Opens
  std::vector<int64_t> rowids_;  // its matches, capacity reused likewise
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

class FilterOperator final : public Operator {
 public:
  FilterOperator(ExecContext* ctx, const PlanNode* node,
                 std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        filter_(node->filter, &node->output) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    if (in_.empty()) return true;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    for (auto& r : in_.rows()) {
      auto pass = filter_.Test(ctx_->eval, r);
      if (!pass.ok()) return pass.status();
      if (IsTruthy(pass.value())) out->Add(std::move(r));
    }
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  CompiledList filter_;
  RowBatch in_;
};

class ProjectOperator final : public Operator {
 public:
  ProjectOperator(ExecContext* ctx, const PlanNode* node,
                  std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        projs_(node->projections, node->children.empty()
                                      ? &node->output
                                      : &node->children[0]->output) {}

  Status Open() override {
    row_index_ = 0;
    synthetic_done_ = false;
    if (child_ != nullptr) return child_->Open();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (child_ == nullptr) {
      // No-FROM block: one synthetic empty input row.
      if (synthetic_done_) return false;
      synthetic_done_ = true;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(1));
      Row empty;
      CBQT_RETURN_IF_ERROR(ProjectRow(empty, 1, out));
      return true;
    }
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    if (in_.empty()) return true;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    for (auto& r : in_.rows()) {
      ++row_index_;
      CBQT_RETURN_IF_ERROR(ProjectRow(r, row_index_, out));
    }
    return true;
  }

  void Close() override {
    if (child_ != nullptr) child_->Close();
  }

 private:
  Status ProjectRow(Row& in, int64_t rownum, RowBatch* out) {
    // ROWNUM scopes to this projection: set for the row, restored after
    // (the enclosing operator may maintain its own, e.g. a lazy Limit).
    int64_t saved = ctx_->eval.rownum;
    ctx_->eval.rownum = rownum;
    Status st = projs_.Eval(ctx_->eval, in, &scratch_);
    ctx_->eval.rownum = saved;
    CBQT_RETURN_IF_ERROR(st);
    // The input row is dead once evaluated; reuse its heap buffer for the
    // output row so steady-state projection allocates nothing per row.
    in.clear();
    in.reserve(scratch_.size());
    for (auto& v : scratch_) in.push_back(std::move(v));
    out->Add(std::move(in));
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  CompiledList projs_;
  Row scratch_;
  RowBatch in_;
  int64_t row_index_ = 0;
  bool synthetic_done_ = false;
};

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

class NestedLoopJoinOperator final : public Operator {
 public:
  NestedLoopJoinOperator(ExecContext* ctx, const PlanNode* node,
                         std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right)
      : Operator(ctx, node),
        left_(std::move(left)),
        right_(std::move(right)),
        left_schema_(&node->children[0]->output),
        right_schema_(&node->children[1]->output),
        right_mem_(ctx->BufferReservation()) {
    combined_ = *left_schema_;
    combined_.insert(combined_.end(), right_schema_->begin(),
                     right_schema_->end());
    conds_ = CompiledList(node->join_conds, &combined_);
  }

  Status Open() override {
    CBQT_RETURN_IF_ERROR(left_->Open());
    left_batch_.Clear();
    left_pos_ = 0;
    left_done_ = false;
    right_cache_.clear();
    if (!node_->rescan_right) {
      auto rows = DrainOperator(right_.get(), &right_mem_);
      if (!rows.ok()) return rows.status();
      right_cache_ = std::move(rows.value());
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (!left_done_ && out->size() < ctx_->options.batch_size) {
      if (left_pos_ >= left_batch_.size()) {
        auto more = left_->NextBatch(&left_batch_);
        if (!more.ok()) return more.status();
        if (!more.value()) {
          left_done_ = true;
          break;
        }
        left_pos_ = 0;
        continue;
      }
      Row& lrow = left_batch_[left_pos_++];
      CBQT_RETURN_IF_ERROR(ProcessLeftRow(lrow, out));
    }
    if (left_done_ && out->empty()) return false;
    return true;
  }

  void Close() override {
    left_->Close();
    right_->Close();
    right_cache_.clear();
    right_mem_.Release();
  }

 private:
  Status ProcessLeftRow(Row& lrow, RowBatch* out) {
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(1));
    const std::vector<Row>* right_rows = &right_cache_;
    std::vector<Row> per_row;
    if (node_->rescan_right) {
      // Re-run the right subtree with the outer row in scope: index probes
      // and correlated filters below re-resolve against this frame.
      ScopedFrame frame(ctx_->eval, left_schema_, &lrow);
      auto rows = DrainOperator(right_.get());
      if (!rows.ok()) return rows.status();
      per_row = std::move(rows.value());
      right_rows = &per_row;
    }
    bool matched = false;
    bool unknown = false;
    int64_t examined = 0;
    for (const auto& rrow : *right_rows) {
      ++examined;
      Row comb = lrow;
      comb.insert(comb.end(), rrow.begin(), rrow.end());
      Value pass = Value::Boolean(true);
      if (!conds_.empty()) {
        auto v = conds_.Test(ctx_->eval, comb);
        if (!v.ok()) return v.status();
        pass = std::move(v.value());
      }
      if (pass.is_null()) {
        unknown = true;
        continue;
      }
      if (!pass.AsBool()) continue;
      matched = true;
      if (!EmitsMatches(node_->join_kind)) break;
      out->Add(std::move(comb));
    }
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(examined));
    EmitVerdict(node_->join_kind, matched, unknown, std::move(lrow),
                right_schema_->size(), &out->rows());
    return Status::OK();
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const Schema* left_schema_;
  const Schema* right_schema_;
  Schema combined_;
  CompiledList conds_;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
  std::vector<Row> right_cache_;
  ScopedReservation right_mem_;  // right_cache_'s rows
};

// ---------------------------------------------------------------------------
// Hash join (Grace-partitioned spill on build-side memory pressure)
// ---------------------------------------------------------------------------

class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(ExecContext* ctx, const PlanNode* node,
                   std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right)
      : Operator(ctx, node),
        left_(std::move(left)),
        right_(std::move(right)),
        right_schema_(&node->children[1]->output) {
    const Schema* left_schema = &node->children[0]->output;
    combined_ = *left_schema;
    combined_.insert(combined_.end(), right_schema_->begin(),
                     right_schema_->end());
    lkeys_ = CompiledList(node->hash_left_keys, left_schema);
    rkeys_ = CompiledList(node->hash_right_keys, right_schema_);
    conds_ = CompiledList(node->join_conds, &combined_);
    if (lkeys_.size() == 1) probe_slot_ = lkeys_.begin()->AsSlot();
  }

  Status Open() override {
    table_.Clear();
    build_has_null_key_ = false;
    build_input_rows_ = 0;
    spilled_ = false;
    parts_.clear();
    pending_.clear();
    pending_pos_ = 0;
    next_part_ = 0;
    skip_parts_ = false;
    probe_batch_.Clear();
    probe_pos_ = 0;
    probe_done_ = false;
    build_mem_.emplace(ctx_->BufferReservation());

    // Build on the right. The build side is a pipeline breaker: its hash
    // table bytes are charged against the per-query memory tracker, and on
    // the first failed charge the build degrades to Grace partitioning.
    CBQT_RETURN_IF_ERROR(ConsumeInput(ctx_, right_.get(), [&](Row& row) {
      ++build_input_rows_;
      bool has_null = false;
      auto fits = BuildStep(row, spilled_ ? nullptr : &*build_mem_, &has_null);
      if (!fits.ok()) return fits.status();
      if (has_null) {
        // NULL keys never equal anything; they only matter for the
        // null-aware antijoin's three-valued verdict.
        build_has_null_key_ = true;
        return Status::OK();
      }
      if (!fits.value()) CBQT_RETURN_IF_ERROR(BeginBuildSpill());
      if (spilled_) {
        return parts_[PartitionOfKey(build_key_, 0)].build->Append(row);
      }
      return table_.Insert(build_key_, std::move(row));
    }));
    if (spilled_) return RouteProbeSide();
    return left_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (spilled_) return NextSpilled(out);
    while (!probe_done_ && out->size() < ctx_->options.batch_size) {
      if (probe_pos_ >= probe_batch_.size()) {
        auto more = left_->NextBatch(&probe_batch_);
        if (!more.ok()) return more.status();
        if (!more.value()) {
          probe_done_ = true;
          break;
        }
        probe_pos_ = 0;
        if (!probe_batch_.empty()) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(probe_batch_.size())));
        }
        continue;
      }
      Row& lrow = probe_batch_[probe_pos_++];
      CBQT_RETURN_IF_ERROR(ProbeOne(std::move(lrow), &out->rows()));
    }
    if (probe_done_ && out->empty()) return false;
    return true;
  }

  void Close() override {
    left_->Close();
    table_.Clear();
    pending_.clear();
    if (build_mem_) build_mem_->Release();
  }

 private:
  struct Part {
    SpillFile* build = nullptr;
    SpillFile* probe = nullptr;
    int64_t probe_rows = 0;
  };

  /// One build row's step: evaluates its key into build_key_ and, unless
  /// `res` is null or the key holds a NULL, charges the row's table bytes
  /// (key, row and one hash slot) to `res`. False when that charge failed
  /// for memory and the build may spill or stop instead.
  Result<bool> BuildStep(const Row& row, ScopedReservation* res,
                         bool* has_null) {
    CBQT_RETURN_IF_ERROR(rkeys_.Eval(ctx_->eval, row, &build_key_, has_null));
    if (res == nullptr || !ctx_->charge_memory() ||
        (has_null != nullptr && *has_null)) {
      return true;
    }
    Status st = ctx_->ChargeBuffered(
        *res, EstimateRowBytes(build_key_) + EstimateRowBytes(row) +
                  static_cast<int64_t>(sizeof(size_t)));
    if (st.ok()) return true;
    if (ctx_->ShouldSpill(st)) return false;
    return st;
  }

  /// Probes `lrow` against table_: each build row under its key that
  /// passes the residual conditions matches. Inner and left outer joins
  /// append each joined row to `sink`; semi and anti joins stop at the
  /// first match. The candidates examined are counted as one batch, as the
  /// row-at-a-time executor counted them. Sets *matched, and *unknown when
  /// a comparison was unknown: a NULL probe key against a non-empty build,
  /// or a residual condition that is NULL.
  Status Probe(const Row& lrow, std::vector<Row>* sink, bool* matched,
               bool* unknown) {
    // A one-slot key is read in place; any other key is evaluated into
    // probe_key_, a reused scratch row.
    bool has_null = false;
    const Value* slot_key = nullptr;
    if (probe_slot_ >= 0) {
      slot_key = &lrow[static_cast<size_t>(probe_slot_)];
      has_null = slot_key->is_null();
    } else {
      CBQT_RETURN_IF_ERROR(
          lkeys_.Eval(ctx_->eval, lrow, &probe_key_, &has_null));
    }
    if (has_null) {
      *unknown = *unknown || build_input_rows_ > 0;
      return Status::OK();
    }
    int64_t examined = 0;
    int ri = slot_key != nullptr ? table_.Find(*slot_key)
                                 : table_.Find(probe_key_);
    for (; ri != JoinTable::kNone; ri = table_.Next(ri)) {
      ++examined;
      const Row& rrow = table_.row(ri);
      Row comb;
      comb.reserve(lrow.size() + rrow.size());
      comb.insert(comb.end(), lrow.begin(), lrow.end());
      comb.insert(comb.end(), rrow.begin(), rrow.end());
      if (!conds_.empty()) {
        auto pass = conds_.Test(ctx_->eval, comb);
        if (!pass.ok()) return pass.status();
        if (pass->is_null()) {
          *unknown = true;
          continue;
        }
        if (!pass->AsBool()) continue;
      }
      *matched = true;
      if (!EmitsMatches(node_->join_kind)) break;
      sink->push_back(std::move(comb));
    }
    if (examined > 0) CBQT_RETURN_IF_ERROR(ctx_->CountBatch(examined));
    return Status::OK();
  }

  /// Probes one outer row and applies the join verdict. Shared by the
  /// in-memory path and the per-partition spill path.
  Status ProbeOne(Row&& lrow, std::vector<Row>* sink) {
    bool matched = false;
    bool unknown = build_has_null_key_;
    CBQT_RETURN_IF_ERROR(Probe(lrow, sink, &matched, &unknown));
    EmitVerdict(node_->join_kind, matched, unknown, std::move(lrow),
                right_schema_->size(), sink);
    return Status::OK();
  }

  Status BeginBuildSpill() {
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    parts_.resize(kSpillPartitions);
    for (auto& p : parts_) {
      auto bf = mgr.value()->NewFile("hj-build");
      if (!bf.ok()) return bf.status();
      p.build = bf.value();
      auto pf = mgr.value()->NewFile("hj-probe");
      if (!pf.ok()) return pf.status();
      p.probe = pf.value();
    }
    // Flush what was already built in memory into its partitions.
    CBQT_RETURN_IF_ERROR(table_.ForEachRow([&](size_t hash, const Row& row) {
      return parts_[PartitionOfHash(hash, 0)].build->Append(row);
    }));
    table_.Clear();
    build_mem_->Release();
    spilled_ = true;
    ++ctx_->stats.spilled_operators;
    return Status::OK();
  }

  /// Spilled build: the probe side is routed into matching partitions in
  /// one pass. Probe rows with NULL keys can never hash-match and are
  /// resolved immediately by the join verdict, as unknown.
  Status RouteProbeSide() {
    CBQT_RETURN_IF_ERROR(ConsumeInput(ctx_, left_.get(), [&](Row& lrow) {
      bool has_null = false;
      CBQT_RETURN_IF_ERROR(
          lkeys_.Eval(ctx_->eval, lrow, &probe_key_, &has_null));
      if (has_null) {
        EmitVerdict(node_->join_kind, false, true, std::move(lrow),
                    right_schema_->size(), &pending_);
        return Status::OK();
      }
      Part& p = parts_[PartitionOfKey(probe_key_, 0)];
      CBQT_RETURN_IF_ERROR(p.probe->Append(lrow));
      ++p.probe_rows;
      return Status::OK();
    }));
    for (auto& p : parts_) {
      CBQT_RETURN_IF_ERROR(p.build->FinishWrite());
      CBQT_RETURN_IF_ERROR(p.probe->FinishWrite());
    }
    // Null-aware antijoin with a NULL build key: every probe row gets the
    // unknown verdict, so no partition can emit anything.
    if (node_->join_kind == JoinKind::kAntiNA && build_has_null_key_) {
      skip_parts_ = true;
    }
    return Status::OK();
  }

  Result<bool> NextSpilled(RowBatch* out) {
    for (;;) {
      while (pending_pos_ < pending_.size() &&
             out->size() < ctx_->options.batch_size) {
        out->Add(std::move(pending_[pending_pos_++]));
      }
      if (out->size() >= ctx_->options.batch_size) return true;
      if (skip_parts_ || next_part_ >= parts_.size()) break;
      pending_.clear();
      pending_pos_ = 0;
      CBQT_RETURN_IF_ERROR(ProcessPartition(parts_[next_part_++]));
    }
    return !out->empty();
  }

  /// Loads partition `p`'s build rows from row `start` on into table_,
  /// charging each to `res` — except a chunk's first row, which is always
  /// admitted so every chunk makes progress. Stops before the first row
  /// whose charge does not fit; returns the index past the last row loaded.
  Result<int64_t> LoadBuild(Part& p, int64_t start, bool chunk,
                            ScopedReservation& res) {
    int64_t end = start;
    CBQT_RETURN_IF_ERROR(WalkSpill(
        ctx_, p.build, chunk, [&](int64_t i, Row& r) -> Result<bool> {
          if (i < start) return true;  // before this chunk
          auto fits =
              BuildStep(r, chunk && table_.empty() ? nullptr : &res, nullptr);
          if (!fits.ok()) return fits.status();
          if (!fits.value()) return false;
          CBQT_RETURN_IF_ERROR(table_.Insert(build_key_, std::move(r)));
          end = i + 1;
          return true;
        }));
    return end;
  }

  /// Joins one partition: reload its build rows into the table (charged
  /// against the budget again — one partition is ~1/8 of the input) and
  /// stream its probe rows through ProbeOne. Falls back to chunked
  /// multi-pass probing when even a single partition does not fit.
  Status ProcessPartition(Part& p) {
    if (p.probe_rows == 0) return Status::OK();  // nothing can be emitted
    {
      ScopedReservation res = ctx_->BufferReservation();
      auto end = LoadBuild(p, 0, false, res);
      if (!end.ok()) return end.status();
      if (end.value() < p.build->row_count()) {
        // The chunks get the whole budget, not what the abandoned load
        // left of it.
        res.Release();
        return ProcessPartitionChunked(p);
      }
      CBQT_RETURN_IF_ERROR(WalkSpill(
          ctx_, p.probe, false, [&](int64_t, Row& lrow) -> Result<bool> {
            CBQT_RETURN_IF_ERROR(ProbeOne(std::move(lrow), &pending_));
            return true;
          }));
    }
    table_.Clear();
    return Status::OK();
  }

  /// Last-resort path: the partition's build side is processed in chunks
  /// that do fit, with each probe row's verdict inputs (matched, unknown)
  /// carried across chunks, so the join verdict stays exact.
  Status ProcessPartitionChunked(Part& p) {
    const JoinKind kind = node_->join_kind;
    constexpr char kMatched = 1;
    constexpr char kUnknown = 2;
    std::vector<char> seen(static_cast<size_t>(p.probe_rows), 0);
    const int64_t build_total = p.build->row_count();
    int64_t start = 0;
    while (start < build_total) {
      table_.Clear();
      ScopedReservation res = ctx_->BufferReservation();
      auto end = LoadBuild(p, start, true, res);
      if (!end.ok()) return end.status();
      start = end.value();
      // Probe every partition row against this chunk.
      CBQT_RETURN_IF_ERROR(WalkSpill(
          ctx_, p.probe, true, [&](int64_t pi, Row& lrow) -> Result<bool> {
            char& s = seen[static_cast<size_t>(pi)];
            if ((s & kMatched) != 0 && !EmitsMatches(kind)) {
              return true;  // verdict decided by an earlier chunk
            }
            bool matched = false;
            bool unknown = false;
            CBQT_RETURN_IF_ERROR(Probe(lrow, &pending_, &matched, &unknown));
            if (unknown) s |= kUnknown;
            if (matched) {
              s |= kMatched;
              // A semijoin emits its row at the first match.
              EmitVerdict(kind, true, false, std::move(lrow),
                          right_schema_->size(), &pending_);
            }
            return true;
          }));
    }
    table_.Clear();
    // Final pass for the kinds that emit unmatched probe rows.
    if (kind == JoinKind::kInner || kind == JoinKind::kSemi) {
      return Status::OK();
    }
    return WalkSpill(
        ctx_, p.probe, true, [&](int64_t pi, Row& lrow) -> Result<bool> {
          const char s = seen[static_cast<size_t>(pi)];
          EmitVerdict(kind, (s & kMatched) != 0, (s & kUnknown) != 0,
                      std::move(lrow), right_schema_->size(), &pending_);
          return true;
        });
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const Schema* right_schema_;
  Schema combined_;
  CompiledList lkeys_;
  CompiledList rkeys_;
  CompiledList conds_;
  // The probe key's slot when it is one plain column of the probe row, else
  // -1.
  int probe_slot_ = -1;
  // Reused scratch rows for build and probe key evaluation.
  Row build_key_;
  Row probe_key_;

  // The one build table of every path: the in-memory build, a reloaded
  // spill partition, or one chunk of a partition that does not fit.
  JoinTable table_;
  std::optional<ScopedReservation> build_mem_;
  bool build_has_null_key_ = false;
  int64_t build_input_rows_ = 0;

  bool spilled_ = false;
  std::vector<Part> parts_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  size_t next_part_ = 0;
  bool skip_parts_ = false;

  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  bool probe_done_ = false;
};

// ---------------------------------------------------------------------------
// Buffered operators (materialize-in-Open, serve batches)
// ---------------------------------------------------------------------------

/// Base for operators whose semantics require the full input before the
/// first output row and whose result is served from a buffer: set
/// operations, windows, aggregation.
class BufferedOperator : public Operator {
 public:
  using Operator::Operator;

  Status Open() override {
    pending_.clear();
    pos_ = 0;
    return Compute();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (pos_ < pending_.size() && out->size() < ctx_->options.batch_size) {
      out->Add(std::move(pending_[pos_++]));
    }
    if (out->empty()) {
      pending_.clear();
      pos_ = 0;
      return false;
    }
    return true;
  }

 protected:
  virtual Status Compute() = 0;

  std::vector<Row> pending_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Aggregate (hybrid hash aggregation: resident groups keep aggregating,
// overflow keys spill to salted partitions and re-aggregate recursively)
// ---------------------------------------------------------------------------

class AggregateOperator final : public BufferedOperator {
 public:
  AggregateOperator(ExecContext* ctx, const PlanNode* node,
                    std::unique_ptr<Operator> child)
      : BufferedOperator(ctx, node),
        child_(std::move(child)),
        keys_(node->group_keys, &node->children[0]->output),
        input_mem_(ctx->BufferReservation()) {
    // COUNT(*) has no argument; it reads a NULL literal, which it ignores.
    static const ExprPtr kNoArg = MakeLiteral(Value::Null());
    std::vector<CompiledExpr> args;
    for (const auto& agg : node->agg_exprs) {
      const Expr* arg = agg->agg == AggFunc::kCountStar
                            ? kNoArg.get()
                            : agg->children[0].get();
      args.push_back(CompiledExpr::Compile(arg, &node->children[0]->output));
    }
    args_ = CompiledList(std::move(args), &node->children[0]->output);
  }

  void Close() override {
    child_->Close();
    input_mem_.Release();
  }

 protected:
  Status Compute() override {
    const size_t num_keys = node_->group_keys.size();
    std::vector<std::vector<int>> sets = node_->grouping_sets;
    if (sets.empty()) {
      std::vector<int> all;
      for (size_t g = 0; g < num_keys; ++g) all.push_back(static_cast<int>(g));
      sets.push_back(std::move(all));
    }
    const bool multi_set = sets.size() > 1;
    std::vector<Row> input;
    if (multi_set) {
      auto rows = DrainOperator(child_.get(), &input_mem_);
      if (!rows.ok()) return rows.status();
      input = std::move(rows.value());
    }
    for (const auto& set : sets) {
      std::vector<bool> in_set(num_keys, false);
      for (int g : set) in_set[static_cast<size_t>(g)] = true;

      AggState st;
      st.mem.emplace(ctx_->BufferReservation());
      auto consume = [&](const Row& r) { return ConsumeRow(st, in_set, r); };
      if (multi_set) {
        CBQT_RETURN_IF_ERROR(
            ctx_->CountBatch(static_cast<int64_t>(input.size())));
        for (const auto& r : input) CBQT_RETURN_IF_ERROR(consume(r));
      } else {
        CBQT_RETURN_IF_ERROR(ConsumeInput(ctx_, child_.get(), consume));
      }
      int64_t emitted = 0;
      CBQT_RETURN_IF_ERROR(FinishState(st, in_set, 0, &emitted));
      // Scalar aggregation produces one row even on empty input.
      if (emitted == 0 && num_keys == 0) {
        std::vector<AggAccum> accums(node_->agg_exprs.size());
        Row r;
        for (size_t a = 0; a < accums.size(); ++a) {
          r.push_back(accums[a].Finish(*node_->agg_exprs[a]));
        }
        pending_.push_back(std::move(r));
      }
    }
    return Status::OK();
  }

 private:
  struct AggState {
    KeyTable groups;
    std::vector<AggAccum> accums;  // args_.size() per group, by group id
    std::optional<ScopedReservation> mem;
    bool spilled = false;
    int salt = 0;
    std::vector<SpillFile*> parts;
  };

  Status ConsumeRow(AggState& st, const std::vector<bool>& in_set,
                    const Row& r) {
    // key_scratch_ is reused across rows; the group table copies a key's
    // values only when it is new. A key outside the grouping set reads NULL.
    Row& key = key_scratch_;
    CBQT_RETURN_IF_ERROR(keys_.Eval(ctx_->eval, r, &key));
    for (size_t g = 0; g < key.size(); ++g) {
      if (!in_set[g]) key[g] = Value::Null();
    }
    int group = st.groups.Find(key);
    if (group == KeyTable::kNone) {
      // Not resident once spilled: route to the key's partition for a
      // later pass.
      if (st.spilled) return st.parts[PartitionOfKey(key, st.salt)]->Append(r);
      Status charged = ctx_->ChargeBufferedRow(
          *st.mem, key, static_cast<int64_t>(args_.size() * sizeof(AggAccum)));
      if (!charged.ok()) {
        if (!ctx_->ShouldSpill(charged)) return charged;
        // Switch to hybrid mode: keep every already-charged group
        // aggregating in memory, and route the overflow keys (starting
        // with this one) to partitions.
        CBQT_RETURN_IF_ERROR(BeginAggSpill(st));
        return st.parts[PartitionOfKey(key, st.salt)]->Append(r);
      }
      group = st.groups.Insert(key).first;
      st.accums.resize(st.accums.size() + args_.size());
    }
    CBQT_RETURN_IF_ERROR(args_.Eval(ctx_->eval, r, &arg_scratch_));
    AggAccum* accums =
        st.accums.data() + static_cast<size_t>(group) * args_.size();
    for (size_t a = 0; a < arg_scratch_.size(); ++a) {
      accums[a].Add(arg_scratch_[a], *node_->agg_exprs[a]);
    }
    return Status::OK();
  }

  Status BeginAggSpill(AggState& st) {
    if (st.salt > kMaxSpillDepth) {
      return Status::ResourceExhausted(
          "aggregate spill recursion depth exceeded (adversarial key "
          "distribution)");
    }
    CBQT_RETURN_IF_ERROR(OpenSpillPartitions(ctx_, "agg", &st.parts));
    st.spilled = true;
    return Status::OK();
  }

  /// Emits the state's resident groups, in the order their keys were first
  /// seen, and recursively re-aggregates its partitions (each level uses a
  /// fresh hash salt).
  Status FinishState(AggState& st, const std::vector<bool>& in_set, int depth,
                     int64_t* emitted) {
    const size_t num_args = args_.size();
    for (int g = 0; g < static_cast<int>(st.groups.size()); ++g) {
      Row r(st.groups.key(g), st.groups.key(g) + st.groups.width());
      const AggAccum* accums =
          st.accums.data() + static_cast<size_t>(g) * num_args;
      for (size_t a = 0; a < num_args; ++a) {
        r.push_back(accums[a].Finish(*node_->agg_exprs[a]));
      }
      pending_.push_back(std::move(r));
      ++*emitted;
    }
    st.groups.Clear();
    st.accums.clear();
    if (st.mem) st.mem->Release();
    if (!st.spilled) return Status::OK();
    for (SpillFile* f : st.parts) {
      CBQT_RETURN_IF_ERROR(f->FinishWrite());
    }
    std::vector<SpillFile*> parts = std::move(st.parts);
    for (SpillFile* f : parts) {
      if (f->row_count() == 0) continue;
      AggState sub;
      sub.salt = depth + 1;
      sub.mem.emplace(ctx_->BufferReservation());
      CBQT_RETURN_IF_ERROR(WalkSpill(
          ctx_, f, false, [&](int64_t, const Row& r) -> Result<bool> {
            CBQT_RETURN_IF_ERROR(ConsumeRow(sub, in_set, r));
            return true;
          }));
      CBQT_RETURN_IF_ERROR(FinishState(sub, in_set, depth + 1, emitted));
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  CompiledList keys_;
  CompiledList args_;  // one per aggregate
  Row key_scratch_;
  Row arg_scratch_;
  ScopedReservation input_mem_;  // the input, drained for grouping sets
};

// ---------------------------------------------------------------------------
// Sort (external merge sort: sorted runs spill to disk, k-way merge serves)
// ---------------------------------------------------------------------------

class SortOperator final : public Operator {
 public:
  SortOperator(ExecContext* ctx, const PlanNode* node,
               std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        keys_(node->sort_keys, &node->children[0]->output) {}

  Status Open() override {
    buffer_.clear();
    runs_.clear();
    cursors_.clear();
    serve_pos_ = 0;
    res_.emplace(ctx_->BufferReservation());
    CBQT_RETURN_IF_ERROR(ConsumeInput(ctx_, child_.get(), [&](Row& r) {
      SKeyed k;
      CBQT_RETURN_IF_ERROR(keys_.Eval(ctx_->eval, r, &k.keys));
      if (ctx_->charge_memory()) {
        int64_t bytes = EstimateRowBytes(k.keys) + EstimateRowBytes(r) +
                        static_cast<int64_t>(sizeof(SKeyed));
        Status st = ctx_->ChargeBuffered(*res_, bytes);
        if (!st.ok()) {
          if (!ctx_->ShouldSpill(st)) return st;
          CBQT_RETURN_IF_ERROR(FlushRun());
          // First row of the new run: admit it even if the budget is
          // still tight (progress guarantee), but surface non-memory
          // failures (injected faults) from the retried charge.
          Status again = ctx_->ChargeBuffered(*res_, bytes);
          if (!again.ok() && !ctx_->ShouldSpill(again)) return again;
        }
      }
      k.row = std::move(r);
      buffer_.push_back(std::move(k));
      return Status::OK();
    }));
    if (runs_.empty()) {
      // Fully in memory: one stable sort, serve from the buffer.
      std::stable_sort(buffer_.begin(), buffer_.end(),
                       [this](const SKeyed& a, const SKeyed& b) {
                         return SortRowLess(a.keys, b.keys,
                                            node_->sort_ascending);
                       });
      return Status::OK();
    }
    CBQT_RETURN_IF_ERROR(FlushRun());
    // Initialize one merge cursor per run. Ties are broken by run index:
    // runs are flushed in input order and each run is stable-sorted, so
    // the merge reproduces std::stable_sort's output exactly.
    cursors_.reserve(runs_.size());
    for (SpillFile* f : runs_) {
      RunCursor c;
      c.f = f;
      CBQT_RETURN_IF_ERROR(f->Rewind());
      auto more = f->Next(&c.next);
      if (!more.ok()) return more.status();
      c.eof = !more.value();
      cursors_.push_back(std::move(c));
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    const size_t nk = keys_.size();
    if (runs_.empty()) {
      while (serve_pos_ < buffer_.size() &&
             out->size() < ctx_->options.batch_size) {
        out->Add(std::move(buffer_[serve_pos_++].row));
      }
      if (out->empty()) {
        buffer_.clear();
        return false;
      }
      return true;
    }
    while (out->size() < ctx_->options.batch_size) {
      int best = -1;
      for (size_t c = 0; c < cursors_.size(); ++c) {
        if (cursors_[c].eof) continue;
        if (best < 0 ||
            SortRowLess(cursors_[c].next, cursors_[static_cast<size_t>(best)].next,
                        node_->sort_ascending, nk)) {
          best = static_cast<int>(c);
        }
      }
      if (best < 0) break;
      RunCursor& c = cursors_[static_cast<size_t>(best)];
      // The spilled record is keys followed by the row; strip the keys.
      Row row(std::make_move_iterator(c.next.begin() +
                                      static_cast<std::ptrdiff_t>(nk)),
              std::make_move_iterator(c.next.end()));
      out->Add(std::move(row));
      auto more = c.f->Next(&c.next);
      if (!more.ok()) return more.status();
      c.eof = !more.value();
      if ((out->size() & static_cast<size_t>(kSpillPollMask)) == 0) {
        CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
      }
    }
    return !out->empty();
  }

  void Close() override {
    child_->Close();
    buffer_.clear();
    cursors_.clear();
    if (res_) res_->Release();
  }

 private:
  struct SKeyed {
    Row keys;
    Row row;
  };
  struct RunCursor {
    SpillFile* f = nullptr;
    Row next;
    bool eof = true;
  };

  Status FlushRun() {
    if (runs_.empty()) ++ctx_->stats.spilled_operators;
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    auto f = mgr.value()->NewFile("sort-run");
    if (!f.ok()) return f.status();
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [this](const SKeyed& a, const SKeyed& b) {
                       return SortRowLess(a.keys, b.keys,
                                          node_->sort_ascending);
                     });
    for (auto& k : buffer_) {
      Row rec = std::move(k.keys);
      rec.insert(rec.end(), std::make_move_iterator(k.row.begin()),
                 std::make_move_iterator(k.row.end()));
      CBQT_RETURN_IF_ERROR(f.value()->Append(rec));
    }
    CBQT_RETURN_IF_ERROR(f.value()->FinishWrite());
    runs_.push_back(f.value());
    buffer_.clear();
    res_->Release();
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  CompiledList keys_;
  std::vector<SKeyed> buffer_;
  std::optional<ScopedReservation> res_;
  std::vector<SpillFile*> runs_;
  std::vector<RunCursor> cursors_;
  size_t serve_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Distinct (streaming dedup; overflow keys spill to salted partitions)
// ---------------------------------------------------------------------------

class DistinctOperator final : public Operator {
 public:
  DistinctOperator(ExecContext* ctx, const PlanNode* node,
                   std::unique_ptr<Operator> child)
      : Operator(ctx, node), child_(std::move(child)) {}

  Status Open() override {
    seen_.Clear();
    parts_.clear();
    pending_.clear();
    pending_pos_ = 0;
    child_done_ = false;
    parts_processed_ = false;
    res_.emplace(ctx_->BufferReservation());
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (!child_done_ && out->size() < ctx_->options.batch_size) {
      auto more = child_->NextBatch(&in_);
      if (!more.ok()) return more.status();
      if (!more.value()) {
        child_done_ = true;
        break;
      }
      if (in_.empty()) continue;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
      for (auto& r : in_.rows()) {
        auto fresh = Dedup(seen_, *res_, &parts_, 0, r);
        if (!fresh.ok()) return fresh.status();
        if (fresh.value()) out->Add(std::move(r));
      }
    }
    if (!child_done_) return true;  // batch filled mid-stream
    if (!parts_.empty() && !parts_processed_) {
      parts_processed_ = true;
      child_->Close();
      for (SpillFile* f : parts_) {
        CBQT_RETURN_IF_ERROR(f->FinishWrite());
      }
      for (SpillFile* f : parts_) {
        CBQT_RETURN_IF_ERROR(ProcessPartition(f, 0));
      }
    }
    while (pending_pos_ < pending_.size() &&
           out->size() < ctx_->options.batch_size) {
      out->Add(std::move(pending_[pending_pos_++]));
    }
    return !out->empty();
  }

  void Close() override {
    child_->Close();
    seen_.Clear();
    pending_.clear();
    if (res_) res_->Release();
  }

 private:
  /// One dedup step: true when `r` is new and now resident in `seen` (the
  /// caller emits it). A new row is charged before it is inserted. Once
  /// `parts` (salted `salt`) are open, a row not resident goes to its
  /// partition; the first row whose charge fails opens them and goes there
  /// too. The resident set stays live both as emitted output and as the
  /// dedup filter for the rest.
  Result<bool> Dedup(KeyTable& seen, ScopedReservation& res,
                     std::vector<SpillFile*>* parts, int salt, const Row& r) {
    if (seen.Find(r) != KeyTable::kNone) return false;  // already emitted
    if (parts->empty()) {
      Status st = ctx_->ChargeBufferedRow(res, r);
      if (st.ok()) {
        seen.Insert(r);
        return true;
      }
      if (!ctx_->ShouldSpill(st)) return st;
      CBQT_RETURN_IF_ERROR(OpenSpillPartitions(ctx_, "distinct", parts));
    }
    CBQT_RETURN_IF_ERROR((*parts)[PartitionOfKey(r, salt)]->Append(r));
    return false;
  }

  /// Dedups one partition into pending_, recursing with a fresh salt when
  /// even the partition's distinct set does not fit.
  Status ProcessPartition(SpillFile* f, int depth) {
    if (f->row_count() == 0) return Status::OK();
    if (depth > kMaxSpillDepth) {
      return Status::ResourceExhausted(
          "distinct spill recursion depth exceeded (adversarial key "
          "distribution)");
    }
    KeyTable local;
    ScopedReservation res = ctx_->BufferReservation();
    std::vector<SpillFile*> subparts;
    CBQT_RETURN_IF_ERROR(WalkSpill(
        ctx_, f, false, [&](int64_t, Row& r) -> Result<bool> {
          auto fresh = Dedup(local, res, &subparts, depth + 1, r);
          if (!fresh.ok()) return fresh.status();
          if (fresh.value()) pending_.push_back(std::move(r));
          return true;
        }));
    for (SpillFile* sf : subparts) {
      CBQT_RETURN_IF_ERROR(sf->FinishWrite());
    }
    for (SpillFile* sf : subparts) {
      CBQT_RETURN_IF_ERROR(ProcessPartition(sf, depth + 1));
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  RowBatch in_;
  KeyTable seen_;
  std::optional<ScopedReservation> res_;
  std::vector<SpillFile*> parts_;  // open once the stream has spilled
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  bool child_done_ = false;
  bool parts_processed_ = false;
};

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

class SetOpOperator final : public BufferedOperator {
 public:
  SetOpOperator(ExecContext* ctx, const PlanNode* node,
                std::vector<std::unique_ptr<Operator>> children)
      : BufferedOperator(ctx, node),
        children_(std::move(children)),
        inputs_mem_(ctx->BufferReservation()) {}

  void Close() override {
    for (auto& c : children_) c->Close();
    inputs_mem_.Release();
  }

 protected:
  Status Compute() override {
    std::vector<std::vector<Row>> inputs;
    inputs.reserve(children_.size());
    for (auto& c : children_) {
      auto rows = DrainOperator(c.get(), &inputs_mem_);
      if (!rows.ok()) return rows.status();
      inputs.push_back(std::move(rows.value()));
    }
    switch (node_->set_op) {
      case SetOpKind::kUnionAll:
      case SetOpKind::kUnion: {
        const bool dedup = node_->set_op == SetOpKind::kUnion;
        KeyTable seen;
        for (auto& in : inputs) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(in.size())));
          for (auto& r : in) {
            if (!dedup || seen.Insert(r).second) {
              pending_.push_back(std::move(r));
            }
          }
        }
        break;
      }
      case SetOpKind::kIntersect:
      case SetOpKind::kMinus: {
        // Set semantics; NULLs match (paper §2.2.7). Each distinct row of
        // the first input is kept when a later input holds it (INTERSECT)
        // or when none does (MINUS).
        const bool keep_found = node_->set_op == SetOpKind::kIntersect;
        KeyTable later;
        for (size_t b = 1; b < inputs.size(); ++b) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(inputs[b].size())));
          for (const Row& r : inputs[b]) later.Insert(r);
        }
        KeyTable emitted;
        CBQT_RETURN_IF_ERROR(
            ctx_->CountBatch(static_cast<int64_t>(inputs[0].size())));
        for (auto& r : inputs[0]) {
          const bool found = later.Find(r) != KeyTable::kNone;
          if (found == keep_found && emitted.Insert(r).second) {
            pending_.push_back(std::move(r));
          }
        }
        break;
      }
      case SetOpKind::kNone:
        return Status::Internal("SetOp node without a set operator");
    }
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<Operator>> children_;
  ScopedReservation inputs_mem_;  // the drained inputs
};

// ---------------------------------------------------------------------------
// Limit (streaming with early termination — the child is not drained past
// the cutoff, unlike the row-at-a-time executor which materialized it)
// ---------------------------------------------------------------------------

class LimitOperator final : public Operator {
 public:
  LimitOperator(ExecContext* ctx, const PlanNode* node,
                std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        filter_(node->filter, &node->children[0]->output) {}

  Status Open() override {
    emitted_ = 0;
    done_ = false;
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (done_) return false;
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) {
      done_ = true;
      return false;
    }
    int64_t considered = 0;
    int64_t saved_rownum = ctx_->eval.rownum;
    for (auto& r : in_.rows()) {
      if (emitted_ >= node_->limit) {
        done_ = true;
        break;
      }
      ++considered;
      if (!filter_.empty()) {
        // Lazy ROWNUM: the filter sees the next *output* position.
        ctx_->eval.rownum = emitted_ + 1;
        auto pass = filter_.Test(ctx_->eval, r);
        if (!pass.ok()) {
          ctx_->eval.rownum = saved_rownum;
          return pass.status();
        }
        if (!IsTruthy(pass.value())) continue;
      }
      ++emitted_;
      out->Add(std::move(r));
    }
    ctx_->eval.rownum = saved_rownum;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(considered));
    if (done_ && out->empty()) return false;
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  CompiledList filter_;
  RowBatch in_;
  int64_t emitted_ = 0;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

class WindowOperator final : public BufferedOperator {
 public:
  WindowOperator(ExecContext* ctx, const PlanNode* node,
                 std::unique_ptr<Operator> child)
      : BufferedOperator(ctx, node),
        child_(std::move(child)),
        input_mem_(ctx->BufferReservation()) {
    const Schema* in_schema = &node->children[0]->output;
    for (const auto& win : node->window_exprs) {
      wins_.push_back({CompiledList(win->partition_by, in_schema),
                       CompiledList(win->win_order_by, in_schema),
                       CompiledList(win->children, in_schema)});
    }
  }

  void Close() override {
    child_->Close();
    input_mem_.Release();
  }

 protected:
  Status Compute() override {
    auto drained = DrainOperator(child_.get(), &input_mem_);
    if (!drained.ok()) return drained.status();
    std::vector<Row> input = std::move(drained.value());
    EvalContext& ev = ctx_->eval;
    size_t n = input.size();
    std::vector<std::vector<Value>> win_cols(
        node_->window_exprs.size(), std::vector<Value>(n, Value::Null()));

    KeyTable parts;
    std::vector<std::vector<size_t>> members;  // input row indexes, by part
    Row key;
    for (size_t w = 0; w < node_->window_exprs.size(); ++w) {
      const Expr& win = *node_->window_exprs[w];
      const CompiledWindow& cw = wins_[w];
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(n)));
      // Partition rows.
      parts.Clear();
      members.clear();
      for (size_t i = 0; i < n; ++i) {
        CBQT_RETURN_IF_ERROR(cw.partition_by.Eval(ev, input[i], &key));
        const auto [part, fresh] = parts.Insert(key);
        if (fresh) members.emplace_back();
        members[static_cast<size_t>(part)].push_back(i);
      }
      for (const std::vector<size_t>& indices : members) {
        // Sort the partition by the window ORDER BY keys.
        std::vector<Row> order_keys(indices.size());
        for (size_t k = 0; k < indices.size(); ++k) {
          CBQT_RETURN_IF_ERROR(
              cw.order_by.Eval(ev, input[indices[k]], &order_keys[k]));
        }
        std::vector<size_t> perm(indices.size());
        for (size_t k = 0; k < perm.size(); ++k) perm[k] = k;
        std::vector<bool> asc(win.win_order_by.size(), true);
        std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
          return SortRowLess(order_keys[a], order_keys[b], asc);
        });
        // Running aggregate, RANGE UNBOUNDED PRECEDING .. CURRENT ROW:
        // peers (equal order keys) share the cumulative value at the end
        // of their peer group.
        AggAccum accum;
        Row arg;
        Expr agg_proxy;
        agg_proxy.kind = ExprKind::kAggregate;
        agg_proxy.agg = win.win_func;
        size_t g = 0;
        while (g < perm.size()) {
          size_t g_end = g;
          while (g_end < perm.size() &&
                 RowsEqualStructural(order_keys[perm[g]],
                                     order_keys[perm[g_end]])) {
            ++g_end;
          }
          for (size_t k = g; k < g_end; ++k) {
            CBQT_RETURN_IF_ERROR(
                cw.arg.Eval(ev, input[indices[perm[k]]], &arg));
            accum.Add(arg.empty() ? Value::Null() : arg[0], agg_proxy);
          }
          Value result = accum.Finish(agg_proxy);
          for (size_t k = g; k < g_end; ++k) {
            win_cols[w][indices[perm[k]]] = result;
          }
          g = g_end;
        }
      }
    }
    pending_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row r = std::move(input[i]);
      for (size_t w = 0; w < node_->window_exprs.size(); ++w) {
        r.push_back(win_cols[w][i]);
      }
      pending_.push_back(std::move(r));
    }
    return Status::OK();
  }

 private:
  struct CompiledWindow {
    CompiledList partition_by;
    CompiledList order_by;
    CompiledList arg;  // the aggregate's argument; none for COUNT(*)
  };

  std::unique_ptr<Operator> child_;
  std::vector<CompiledWindow> wins_;  // one per window expression
  ScopedReservation input_mem_;       // the drained input
};

// ---------------------------------------------------------------------------
// Subquery filter (TIS) — per-correlation-key result caching
// ---------------------------------------------------------------------------

/// TIS subquery resolver with per-correlation-key result caching. Each
/// subplan runs as an operator tree under the query's context, so its
/// correlated refs resolve against the current outer row. The tree is built
/// at the subplan's first cache miss and re-opened and drained at each
/// later one, as a nested-loop join re-opens its rescanned side. The cached
/// results persist for the whole operator (TIS caching) and are charged
/// against the per-query memory tracker.
class CachingSubqueryResolver : public SubqueryResolver {
 public:
  CachingSubqueryResolver(const PlanNode& node, ExecContext* ctx)
      : node_(node), ctx_(ctx), mem_(ctx->BufferReservation()) {
    std::vector<const Expr*> subs;
    for (const auto& f : node.filter) CollectSubqueryNodesExec(f.get(), &subs);
    for (size_t i = 0; i < subs.size() && i < node.subplans.size(); ++i) {
      index_[subs[i]] = i;
    }
    caches_.resize(node.subplans.size());
  }

  Result<SubqueryResultView> Resolve(const Expr* subquery_node) override {
    auto it = index_.find(subquery_node);
    if (it == index_.end()) {
      return Status::Internal("subquery node has no planned subplan");
    }
    size_t i = it->second;
    Row key;
    for (const auto& k : node_.subplan_corr_keys[i]) {
      auto v = EvalExpr(*k, ctx_->eval);
      if (!v.ok()) return v.status();
      key.push_back(std::move(v.value()));
    }
    Cache& cache = caches_[i];
    const int hit = cache.keys.Find(key);
    if (hit != IdenticalKeyTable::kNone) {
      ++ctx_->stats.subquery_cache_hits;
      return View(cache.results[static_cast<size_t>(hit)]);
    }
    ++ctx_->stats.subquery_executions;
    if (cache.op == nullptr) {
      auto op = OperatorFactory::Build(*node_.subplans[i], ctx_);
      if (!op.ok()) return op.status();
      cache.op = std::move(op.value());
    }
    auto rows = DrainOperator(cache.op.get(), &mem_);
    if (!rows.ok()) return rows.status();
    cache.keys.Insert(key);
    CachedResult& cached = cache.results.emplace_back();
    cached.rows = std::move(rows.value());
    // The index makes IN / NOT IN probes O(1) instead of a scan of the
    // cached result per outer row.
    for (const Row& r : cached.rows) {
      for (const Value& v : r) {
        if (v.is_null()) cached.has_null = true;
      }
      cached.row_set.Insert(r);
    }
    return View(cached);
  }

 private:
  struct CachedResult {
    std::vector<Row> rows;
    KeyTable row_set;  // the rows, as the IN / NOT IN probe index
    bool has_null = false;
  };

  // One subplan's cache: its operator tree, and a result per correlation
  // key id. A deque keeps a handed-out view's result in place while later
  // keys are added.
  struct Cache {
    std::unique_ptr<Operator> op;  // built at the first miss
    IdenticalKeyTable keys;
    std::deque<CachedResult> results;
  };

  static SubqueryResultView View(const CachedResult& cached) {
    return SubqueryResultView{&cached.rows, &cached.row_set, cached.has_null};
  }

  const PlanNode& node_;
  ExecContext* ctx_;
  ScopedReservation mem_;  // the cached result rows
  std::map<const Expr*, size_t> index_;
  std::vector<Cache> caches_;  // one per subplan
};

class SubqueryFilterOperator final : public Operator {
 public:
  SubqueryFilterOperator(ExecContext* ctx, const PlanNode* node,
                         std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        conds_(node->filter, &node->children[0]->output) {}

  Status Open() override {
    resolver_ = std::make_unique<CachingSubqueryResolver>(*node_, ctx_);
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    // Subquery predicates always evaluate through the tree walker (the
    // compiled programs fall back), under a frame for the current row.
    EvalContext& ev = ctx_->eval;
    SubqueryResolver* saved = ev.subquery_resolver;
    for (auto& r : in_.rows()) {
      ev.subquery_resolver = resolver_.get();
      auto pass = conds_.Test(ev, r);
      ev.subquery_resolver = saved;
      if (!pass.ok()) return pass.status();
      if (IsTruthy(pass.value())) out->Add(std::move(r));
    }
    return true;
  }

  void Close() override {
    child_->Close();
    resolver_.reset();
  }

 private:
  std::unique_ptr<Operator> child_;
  CompiledList conds_;
  RowBatch in_;
  std::unique_ptr<CachingSubqueryResolver> resolver_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factory + drain
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Operator>> OperatorFactory::Build(const PlanNode& node,
                                                         ExecContext* ctx) {
  std::vector<std::unique_ptr<Operator>> kids;
  kids.reserve(node.children.size());
  for (const auto& c : node.children) {
    auto k = Build(*c, ctx);
    if (!k.ok()) return k.status();
    kids.push_back(std::move(k.value()));
  }
  std::unique_ptr<Operator> op;
  switch (node.op) {
    case PlanOp::kTableScan:
      op = std::make_unique<TableScanOperator>(ctx, &node);
      break;
    case PlanOp::kIndexScan:
      op = std::make_unique<IndexScanOperator>(ctx, &node);
      break;
    case PlanOp::kFilter:
      op = std::make_unique<FilterOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kProject:
      op = std::make_unique<ProjectOperator>(
          ctx, &node, kids.empty() ? nullptr : std::move(kids[0]));
      break;
    case PlanOp::kNestedLoopJoin:
      op = std::make_unique<NestedLoopJoinOperator>(
          ctx, &node, std::move(kids[0]), std::move(kids[1]));
      break;
    case PlanOp::kHashJoin:
      op = std::make_unique<HashJoinOperator>(ctx, &node, std::move(kids[0]),
                                              std::move(kids[1]));
      break;
    case PlanOp::kAggregate:
      op = std::make_unique<AggregateOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSort:
      op = std::make_unique<SortOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kDistinct:
      op = std::make_unique<DistinctOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSetOp:
      op = std::make_unique<SetOpOperator>(ctx, &node, std::move(kids));
      break;
    case PlanOp::kLimit:
      op = std::make_unique<LimitOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kWindow:
      op = std::make_unique<WindowOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSubqueryFilter:
      op = std::make_unique<SubqueryFilterOperator>(ctx, &node,
                                                    std::move(kids[0]));
      break;
  }
  if (op == nullptr) {
    return Status::Internal("no operator for plan node kind");
  }
  return op;
}

Result<std::vector<Row>> DrainOperator(Operator* op,
                                       ScopedReservation* charge) {
  ExecContext* ctx = op->context();
  if (!ctx->charge_memory()) charge = nullptr;
  CBQT_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  RowBatch b;
  Status st = Status::OK();
  while (st.ok()) {
    auto more = op->NextBatch(&b);
    if (!more.ok()) st = more.status();
    if (!st.ok() || !more.value()) break;
    for (Row& r : b.rows()) {
      if (charge != nullptr) {
        st = ctx->ChargeBuffered(*charge, EstimateRowBytes(r));
        if (!st.ok()) break;
      }
      out.push_back(std::move(r));
    }
  }
  op->Close();
  if (!st.ok()) return st;
  return out;
}

}  // namespace cbqt
