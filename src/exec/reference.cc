#include "exec/reference.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "binder/binder.h"

namespace cbqt {

namespace {

// Minimal aggregate accumulation, independent of the main executor's.
struct RefAccum {
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  Value min;
  Value max;
  std::vector<Row> distinct_seen;

  void Add(const Value& v, const Expr& agg) {
    if (agg.agg == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    if (agg.agg_distinct) {
      for (const Row& seen : distinct_seen) {
        if (RowsEqualStructural(seen, Row{v})) return;
      }
      distinct_seen.push_back(Row{v});
    }
    ++count;
    if (v.kind() == ValueKind::kInt64 && all_int) {
      isum += v.AsInt();
    } else {
      if (all_int) {
        sum = static_cast<double>(isum);
        all_int = false;
      }
      sum += v.NumericValue();
    }
    if (min.is_null() || TotalLess(v, min)) min = v;
    if (max.is_null() || TotalLess(max, v)) max = v;
  }

  Value Finish(const Expr& agg) const {
    switch (agg.agg) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return all_int ? Value::Int(isum) : Value::Real(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Real((all_int ? static_cast<double>(isum) : sum) /
                           static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

bool RowLessTotal(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (TotalLess(a[i], b[i])) return true;
    if (TotalLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

}  // namespace

/// Re-executes subquery blocks on every evaluation — no caching, which is
/// exactly what makes it a trustworthy oracle.
class NaiveSubqueryResolver : public SubqueryResolver {
 public:
  NaiveSubqueryResolver(ReferenceExecutor* owner, EvalContext& ctx)
      : owner_(owner), ctx_(ctx) {}

  Result<SubqueryResultView> Resolve(const Expr* subquery_node) override {
    auto rows = owner_->ExecuteBlock(*subquery_node->subquery, ctx_);
    if (!rows.ok()) return rows.status();
    owner_->subquery_results_.push_back(std::move(rows.value()));
    SubqueryResultView view;
    view.rows = &owner_->subquery_results_.back();
    return view;
  }

 private:
  ReferenceExecutor* owner_;
  EvalContext& ctx_;
};

Result<std::vector<Row>> ReferenceExecutor::Execute(const QueryBlock& qb) {
  subquery_results_.clear();
  schemas_.clear();
  EvalContext ctx;
  return ExecuteBlock(qb, ctx);
}

Result<std::vector<Row>> ReferenceExecutor::ExecuteBlock(const QueryBlock& qb,
                                                         EvalContext& ctx) {
  if (qb.IsSetOp()) return ExecuteSetOp(qb, ctx);
  return ExecuteRegular(qb, ctx);
}

Result<std::vector<Row>> ReferenceExecutor::ExecuteSetOp(const QueryBlock& qb,
                                                         EvalContext& ctx) {
  std::vector<std::vector<Row>> inputs;
  for (const auto& b : qb.branches) {
    auto rows = ExecuteBlock(*b, ctx);
    if (!rows.ok()) return rows.status();
    inputs.push_back(std::move(rows.value()));
  }
  std::vector<Row> out;
  auto contains = [](const std::vector<Row>& rows, const Row& r) {
    for (const Row& x : rows) {
      if (RowsEqualStructural(x, r)) return true;
    }
    return false;
  };
  switch (qb.set_op) {
    case SetOpKind::kUnionAll:
      for (auto& in : inputs) {
        for (auto& r : in) out.push_back(std::move(r));
      }
      break;
    case SetOpKind::kUnion:
      for (auto& in : inputs) {
        for (auto& r : in) {
          if (!contains(out, r)) out.push_back(std::move(r));
        }
      }
      break;
    case SetOpKind::kIntersect:
      for (const Row& r : inputs[0]) {
        bool in_all = true;
        for (size_t b = 1; b < inputs.size(); ++b) {
          if (!contains(inputs[b], r)) in_all = false;
        }
        if (in_all && !contains(out, r)) out.push_back(r);
      }
      break;
    case SetOpKind::kMinus:
      for (const Row& r : inputs[0]) {
        bool in_rest = false;
        for (size_t b = 1; b < inputs.size(); ++b) {
          if (contains(inputs[b], r)) in_rest = true;
        }
        if (!in_rest && !contains(out, r)) out.push_back(r);
      }
      break;
    case SetOpKind::kNone:
      return Status::Internal("set-op block without operator");
  }
  if (qb.rownum_limit >= 0 &&
      static_cast<int64_t>(out.size()) > qb.rownum_limit) {
    out.resize(static_cast<size_t>(qb.rownum_limit));
  }
  return out;
}

Result<std::vector<Row>> ReferenceExecutor::EntryRows(const TableRef& tr,
                                                      EvalContext& ctx) {
  if (tr.IsBaseTable()) {
    const Table* table = db_.FindTable(tr.table_name);
    if (table == nullptr) {
      return Status::Internal("missing table: " + tr.table_name);
    }
    std::vector<Row> out;
    out.reserve(table->NumRows());
    for (size_t i = 0; i < table->NumRows(); ++i) {
      Row r = table->RowAt(i);
      r.push_back(Value::Int(static_cast<int64_t>(i)));
      out.push_back(std::move(r));
    }
    return out;
  }
  return ExecuteBlock(*tr.derived, ctx);
}

Result<std::vector<Row>> ReferenceExecutor::ExecuteRegular(
    const QueryBlock& qb, EvalContext& ctx) {
  NaiveSubqueryResolver resolver(this, ctx);
  SubqueryResolver* saved_resolver = ctx.subquery_resolver;
  ctx.subquery_resolver = &resolver;
  struct ResolverGuard {
    EvalContext& ctx;
    SubqueryResolver* saved;
    ~ResolverGuard() { ctx.subquery_resolver = saved; }
  } guard{ctx, saved_resolver};

  // ---- FROM: left-fold over entries. `acc` holds combined tuples over the
  // accumulated schema. ----
  schemas_.emplace_back();
  Schema& schema = schemas_.back();
  std::vector<Row> acc{Row{}};

  auto entry_schema = [&](const TableRef& tr) {
    Schema s;
    if (tr.IsBaseTable()) {
      for (const auto& col : tr.table_def->columns) {
        s.push_back(ColumnSlot{tr.alias, col.name, col.type});
      }
      s.push_back(ColumnSlot{tr.alias, "rowid", DataType::kInt64});
    } else {
      for (const auto& oc : BlockOutputColumns(*tr.derived)) {
        s.push_back(ColumnSlot{tr.alias, oc.name, oc.type});
      }
    }
    return s;
  };

  // WHERE, tested on each row of the last FROM entry as it is formed, in
  // conjunct order, so the product of the entries is never held whole.
  auto where_pass = [&](const Schema& s, const Row& r) -> Result<bool> {
    ctx.frames.push_back(Frame{&s, &r});
    for (const auto& w : qb.where) {
      auto v = EvalExpr(*w, ctx);
      if (!v.ok()) {
        ctx.frames.pop_back();
        return v.status();
      }
      if (!IsTruthy(v.value())) {
        ctx.frames.pop_back();
        return false;
      }
    }
    ctx.frames.pop_back();
    return true;
  };

  for (size_t e = 0; e < qb.from.size(); ++e) {
    const TableRef& tr = qb.from[e];
    Schema eschema = entry_schema(tr);
    std::vector<Row> right;
    bool per_row = tr.lateral;
    if (!per_row) {
      auto r = EntryRows(tr, ctx);
      if (!r.ok()) return r.status();
      right = std::move(r.value());
    }
    Schema combined = schema;
    combined.insert(combined.end(), eschema.begin(), eschema.end());
    schemas_.push_back(combined);
    Schema& combined_ref = schemas_.back();
    const bool widens =
        tr.join == JoinKind::kInner || tr.join == JoinKind::kLeftOuter;
    const bool last = e + 1 == qb.from.size() && !qb.where.empty();
    const Schema& out_schema = widens ? combined_ref : schema;

    std::vector<Row> next;
    // Keeps `r`, a row of this entry's result; WHERE decides after the last.
    auto emit = [&](Row r) -> Status {
      if (last) {
        auto pass = where_pass(out_schema, r);
        if (!pass.ok()) return pass.status();
        if (!pass.value()) return Status::OK();
      }
      next.push_back(std::move(r));
      return Status::OK();
    };
    for (const Row& lrow : acc) {
      std::vector<Row> rrows;
      if (per_row) {
        ctx.frames.push_back(Frame{&schema, &lrow});
        auto r = EntryRows(tr, ctx);
        ctx.frames.pop_back();
        if (!r.ok()) return r.status();
        rrows = std::move(r.value());
      } else {
        rrows = right;  // copy: naive by design
      }
      bool matched = false;
      bool unknown = false;
      for (const Row& rrow : rrows) {
        Row comb = lrow;
        comb.insert(comb.end(), rrow.begin(), rrow.end());
        Value pass = Value::Boolean(true);
        if (!tr.join_conds.empty()) {
          ctx.frames.push_back(Frame{&combined_ref, &comb});
          bool unk = false;
          for (const auto& c : tr.join_conds) {
            auto v = EvalExpr(*c, ctx);
            if (!v.ok()) {
              ctx.frames.pop_back();
              return v.status();
            }
            if (v->is_null()) {
              unk = true;
            } else if (!v->AsBool()) {
              pass = Value::Boolean(false);
              unk = false;
              break;
            }
          }
          ctx.frames.pop_back();
          if (IsTruthy(pass) && unk) pass = Value::Null();
        }
        if (pass.is_null()) {
          unknown = true;
          continue;
        }
        if (!pass.AsBool()) continue;
        matched = true;
        if (widens) {
          CBQT_RETURN_IF_ERROR(emit(std::move(comb)));
        } else {
          break;  // semi/anti decided by the first match
        }
      }
      switch (tr.join) {
        case JoinKind::kSemi:
          if (matched) CBQT_RETURN_IF_ERROR(emit(lrow));
          break;
        case JoinKind::kAnti:
          if (!matched) CBQT_RETURN_IF_ERROR(emit(lrow));
          break;
        case JoinKind::kAntiNA:
          if (!matched && !unknown) CBQT_RETURN_IF_ERROR(emit(lrow));
          break;
        case JoinKind::kLeftOuter:
          if (!matched) {
            Row comb = lrow;
            for (size_t i = 0; i < eschema.size(); ++i) {
              comb.push_back(Value::Null());
            }
            CBQT_RETURN_IF_ERROR(emit(std::move(comb)));
          }
          break;
        case JoinKind::kInner:
          break;
      }
    }
    if (widens) schema = combined_ref;
    acc = std::move(next);
  }

  // ---- WHERE, for a block with no FROM entry ----
  if (qb.from.empty() && !qb.where.empty()) {
    std::vector<Row> kept;
    for (const Row& r : acc) {
      auto pass = where_pass(schema, r);
      if (!pass.ok()) return pass.status();
      if (pass.value()) kept.push_back(r);
    }
    acc = std::move(kept);
  }

  // ---- evaluation helpers over a "group" of rows ----
  // Evaluates `e` where aggregates compute over the group, grouping
  // expressions take their *key* values (NULL for columns excluded from the
  // current grouping set), and everything else evaluates on the group's
  // first row.
  const Row* current_key = nullptr;
  std::function<Result<Value>(const Expr&, const std::vector<const Row*>&)>
      eval_grouped = [&](const Expr& e, const std::vector<const Row*>& group)
      -> Result<Value> {
    if (current_key != nullptr) {
      for (size_t g = 0; g < qb.group_by.size(); ++g) {
        if (ExprEquals(e, *qb.group_by[g])) return (*current_key)[g];
      }
    }
    if (e.kind == ExprKind::kAggregate) {
      RefAccum accum;
      for (const Row* r : group) {
        Value v = Value::Null();
        if (e.agg != AggFunc::kCountStar) {
          ctx.frames.push_back(Frame{&schema, r});
          auto rv = EvalExpr(*e.children[0], ctx);
          ctx.frames.pop_back();
          if (!rv.ok()) return rv.status();
          v = std::move(rv.value());
        }
        accum.Add(v, e);
      }
      return accum.Finish(e);
    }
    if (e.kind == ExprKind::kWindow) {
      return Status::Internal("window inside aggregate context");
    }
    // Evaluate on the group's representative row, with aggregate sub-nodes
    // replaced by their values over the whole group (clone + substitute).
    ExprPtr copy = e.Clone();
    std::function<Status(Expr*)> fill = [&](Expr* node) -> Status {
      if (current_key != nullptr) {
        for (size_t g = 0; g < qb.group_by.size(); ++g) {
          if (ExprEquals(*node, *qb.group_by[g])) {
            node->kind = ExprKind::kLiteral;
            node->literal = (*current_key)[g];
            node->children.clear();
            return Status::OK();
          }
        }
      }
      if (node->kind == ExprKind::kAggregate) {
        auto v = eval_grouped(*node, group);
        if (!v.ok()) return v.status();
        node->kind = ExprKind::kLiteral;
        node->literal = v.value();
        node->children.clear();
        return Status::OK();
      }
      for (auto& c : node->children) CBQT_RETURN_IF_ERROR(fill(c.get()));
      return Status::OK();
    };
    CBQT_RETURN_IF_ERROR(fill(copy.get()));
    if (group.empty()) {
      // Scalar aggregate over empty input: non-aggregate parts are NULL.
      Row empty_row(schema.size(), Value::Null());
      ctx.frames.push_back(Frame{&schema, &empty_row});
      auto v = EvalExpr(*copy, ctx);
      ctx.frames.pop_back();
      return v;
    }
    ctx.frames.push_back(Frame{&schema, group[0]});
    auto v = EvalExpr(*copy, ctx);
    ctx.frames.pop_back();
    return v;
  };

  bool aggregating = qb.IsAggregating();
  std::vector<Row> results;

  if (aggregating) {
    // ---- GROUP BY (+ grouping sets) ----
    std::vector<std::vector<int>> sets = qb.grouping_sets;
    if (sets.empty()) {
      std::vector<int> all;
      for (size_t g = 0; g < qb.group_by.size(); ++g) {
        all.push_back(static_cast<int>(g));
      }
      sets.push_back(std::move(all));
    }
    for (const auto& set : sets) {
      std::vector<bool> in_set(qb.group_by.size(), false);
      for (int g : set) in_set[static_cast<size_t>(g)] = true;
      // Group rows by key (linear scan: naive by design).
      std::vector<Row> keys;
      std::vector<std::vector<const Row*>> groups;
      for (const Row& r : acc) {
        Row key;
        ctx.frames.push_back(Frame{&schema, &r});
        bool failed = false;
        Status err;
        for (size_t g = 0; g < qb.group_by.size(); ++g) {
          if (!in_set[g]) {
            key.push_back(Value::Null());
            continue;
          }
          auto v = EvalExpr(*qb.group_by[g], ctx);
          if (!v.ok()) {
            failed = true;
            err = v.status();
            break;
          }
          key.push_back(std::move(v.value()));
        }
        ctx.frames.pop_back();
        if (failed) return err;
        int idx = -1;
        for (size_t k = 0; k < keys.size(); ++k) {
          if (RowsEqualStructural(keys[k], key)) idx = static_cast<int>(k);
        }
        if (idx < 0) {
          keys.push_back(std::move(key));
          groups.emplace_back();
          idx = static_cast<int>(keys.size()) - 1;
        }
        groups[static_cast<size_t>(idx)].push_back(&r);
      }
      if (groups.empty() && qb.group_by.empty()) {
        groups.emplace_back();  // scalar aggregation over empty input
      }
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        const auto& group = groups[gi];
        current_key = gi < keys.size() ? &keys[gi] : nullptr;
        // HAVING
        bool pass = true;
        for (const auto& h : qb.having) {
          auto v = eval_grouped(*h, group);
          if (!v.ok()) return v.status();
          if (!IsTruthy(v.value())) pass = false;
        }
        if (!pass) continue;
        Row out_row;
        for (const auto& item : qb.select) {
          auto v = eval_grouped(*item.expr, group);
          if (!v.ok()) return v.status();
          out_row.push_back(std::move(v.value()));
        }
        // ORDER BY keys appended as hidden tail, stripped after sorting.
        for (const auto& o : qb.order_by) {
          auto v = eval_grouped(*o.expr, group);
          if (!v.ok()) return v.status();
          out_row.push_back(std::move(v.value()));
        }
        results.push_back(std::move(out_row));
      }
      current_key = nullptr;
    }
  } else {
    // ---- plain projection (with O(n^2) windows) ----
    for (size_t i = 0; i < acc.size(); ++i) {
      const Row& r = acc[i];
      // Window values for this row computed by scanning the whole input.
      auto eval_with_windows = [&](const Expr& e) -> Result<Value> {
        ExprPtr copy = e.Clone();
        std::function<Status(Expr*)> fill = [&](Expr* node) -> Status {
          for (auto& c : node->children) CBQT_RETURN_IF_ERROR(fill(c.get()));
          if (node->kind != ExprKind::kWindow) return Status::OK();
          // Partition keys and order keys of the current row.
          auto keys_of = [&](const Row& row, const std::vector<ExprPtr>& es,
                             Row* out) -> Status {
            ctx.frames.push_back(Frame{&schema, &row});
            for (const auto& k : es) {
              auto v = EvalExpr(*k, ctx);
              if (!v.ok()) {
                ctx.frames.pop_back();
                return v.status();
              }
              out->push_back(std::move(v.value()));
            }
            ctx.frames.pop_back();
            return Status::OK();
          };
          Row my_part, my_ord;
          CBQT_RETURN_IF_ERROR(keys_of(r, node->partition_by, &my_part));
          CBQT_RETURN_IF_ERROR(keys_of(r, node->win_order_by, &my_ord));
          RefAccum accum;
          Expr agg_proxy;
          agg_proxy.kind = ExprKind::kAggregate;
          agg_proxy.agg = node->win_func;
          for (const Row& other : acc) {
            Row part, ord;
            CBQT_RETURN_IF_ERROR(keys_of(other, node->partition_by, &part));
            if (!RowsEqualStructural(part, my_part)) continue;
            CBQT_RETURN_IF_ERROR(keys_of(other, node->win_order_by, &ord));
            // RANGE UNBOUNDED PRECEDING .. CURRENT ROW: include peers.
            if (RowLessTotal(my_ord, ord)) continue;
            Value v = Value::Null();
            if (node->win_func != AggFunc::kCountStar) {
              ctx.frames.push_back(Frame{&schema, &other});
              auto rv = EvalExpr(*node->children[0], ctx);
              ctx.frames.pop_back();
              if (!rv.ok()) return rv.status();
              v = std::move(rv.value());
            }
            accum.Add(v, agg_proxy);
          }
          node->kind = ExprKind::kLiteral;
          node->literal = accum.Finish(agg_proxy);
          node->children.clear();
          node->partition_by.clear();
          node->win_order_by.clear();
          return Status::OK();
        };
        CBQT_RETURN_IF_ERROR(fill(copy.get()));
        ctx.frames.push_back(Frame{&schema, &r});
        ctx.rownum = static_cast<int64_t>(results.size()) + 1;
        auto v = EvalExpr(*copy, ctx);
        ctx.frames.pop_back();
        return v;
      };
      Row out_row;
      for (const auto& item : qb.select) {
        auto v = eval_with_windows(*item.expr);
        if (!v.ok()) return v.status();
        out_row.push_back(std::move(v.value()));
      }
      for (const auto& o : qb.order_by) {
        auto v = eval_with_windows(*o.expr);
        if (!v.ok()) return v.status();
        out_row.push_back(std::move(v.value()));
      }
      results.push_back(std::move(out_row));
    }
  }

  size_t visible = qb.select.size();

  // ---- DISTINCT (on visible columns only; our queries keep ORDER BY
  // columns inside the select list when DISTINCT is used) ----
  if (qb.distinct) {
    std::vector<Row> dedup;
    for (const Row& r : results) {
      bool seen = false;
      for (const Row& x : dedup) {
        bool eq = true;
        for (size_t c = 0; c < visible; ++c) {
          if (!(x[c].is_null() && r[c].is_null()) &&
              !(!x[c].is_null() && !r[c].is_null() &&
                RowsEqualStructural(Row{x[c]}, Row{r[c]}))) {
            eq = false;
            break;
          }
        }
        if (eq) {
          seen = true;
          break;
        }
      }
      if (!seen) dedup.push_back(r);
    }
    results = std::move(dedup);
  }

  // ---- ORDER BY (keys are the hidden tail) ----
  if (!qb.order_by.empty()) {
    std::stable_sort(results.begin(), results.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < qb.order_by.size(); ++k) {
                         const Value& x = a[visible + k];
                         const Value& y = b[visible + k];
                         bool asc = qb.order_by[k].ascending;
                         if (x.is_null() && y.is_null()) continue;
                         if (x.is_null()) return !asc;
                         if (y.is_null()) return asc;
                         Ordering ord = CompareValues(x, y);
                         if (ord == Ordering::kEqual ||
                             ord == Ordering::kUnknown) {
                           continue;
                         }
                         bool less = ord == Ordering::kLess;
                         return asc ? less : !less;
                       }
                       return false;
                     });
  }
  for (Row& r : results) r.resize(visible);

  // ---- ROWNUM ----
  if (qb.rownum_limit >= 0 &&
      static_cast<int64_t>(results.size()) > qb.rownum_limit) {
    results.resize(static_cast<size_t>(qb.rownum_limit));
  }
  return results;
}

}  // namespace cbqt
