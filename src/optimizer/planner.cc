#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "common/str_util.h"
#include "sql/expr_util.h"
#include "sql/unparser.h"

namespace cbqt {

namespace {

// ---------------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------------

int CountExpensiveCalls(const Expr& e) {
  int n = 0;
  VisitExprConst(&e, [&n](const Expr* x) {
    if (x->kind == ExprKind::kFuncCall && StartsWith(x->func_name, "expensive_")) {
      ++n;
    }
  });
  return n;
}

// Per-row evaluation cost of a set of predicates.
double PredEvalCost(const std::vector<const Expr*>& preds,
                    const CostParams& P) {
  double cost = 0;
  for (const Expr* p : preds) {
    cost += P.cpu_pred;
    cost += CountExpensiveCalls(*p) * P.expensive_call;
  }
  return cost;
}

double ConjSelectivity(const std::vector<const Expr*>& preds,
                       const StatsContext& ctx) {
  double s = 1.0;
  for (const Expr* p : preds) s *= Selectivity(*p, ctx);
  return std::max(s, 1e-9);
}

Schema SchemaForTable(const TableRef& tr) {
  Schema schema;
  for (const auto& col : tr.table_def->columns) {
    schema.push_back(ColumnSlot{tr.alias, col.name, col.type});
  }
  schema.push_back(ColumnSlot{tr.alias, "rowid", DataType::kInt64});
  return schema;
}

RelStats StatsForTable(const Database& db, const TableRef& tr) {
  RelStats rel;
  const TableStats* ts = db.stats().Find(tr.table_name);
  if (ts == nullptr) {
    rel.rows = 1000;  // dynamic-sampling default for unanalyzed tables
    return rel;
  }
  rel.rows = ts->rows;
  for (size_t i = 0; i < tr.table_def->columns.size() && i < ts->columns.size();
       ++i) {
    rel.columns[tr.table_def->columns[i].name] = ts->columns[i];
  }
  ColumnStats rowid;
  rowid.ndv = ts->rows;
  rowid.null_frac = 0;
  rel.columns["rowid"] = rowid;
  return rel;
}

// Replaces, in-place, any subtree of *e structurally equal to patterns[k]
// with a column ref ("", names[k]). Does not descend into subquery blocks.
void SubstituteSlots(ExprPtr* e, const std::vector<const Expr*>& patterns,
                     const std::vector<std::string>& names) {
  if (*e == nullptr) return;
  for (size_t k = 0; k < patterns.size(); ++k) {
    if (ExprEquals(**e, *patterns[k])) {
      auto ref = MakeColumnRef("", names[k]);
      ref->type = (*e)->type;
      *e = std::move(ref);
      return;
    }
  }
  for (auto& c : (*e)->children) SubstituteSlots(&c, patterns, names);
  for (auto& c : (*e)->partition_by) SubstituteSlots(&c, patterns, names);
  for (auto& c : (*e)->win_order_by) SubstituteSlots(&c, patterns, names);
}

// Collects kSubquery nodes in `e` in pre-order (not descending into nested
// subquery blocks). The executor uses the same traversal order to pair
// subquery expressions with their planned subplans.
void CollectSubqueryNodes(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kSubquery) {
    out->push_back(e);
    // IN/ANY left operands cannot contain further subqueries in our subset.
    return;
  }
  for (const auto& c : e->children) CollectSubqueryNodes(c.get(), out);
  for (const auto& c : e->partition_by) CollectSubqueryNodes(c.get(), out);
  for (const auto& c : e->win_order_by) CollectSubqueryNodes(c.get(), out);
}

// Outer column references of a (sub)query block: refs whose alias is not
// defined anywhere inside the block tree.
std::vector<std::pair<std::string, std::string>> CollectOuterRefs(
    const QueryBlock& qb) {
  std::set<std::string> inner;
  CollectDefinedAliases(qb, &inner);
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<std::pair<std::string, std::string>> out;
  VisitAllExprsConst(&qb, [&](const Expr* e) {
    if (e->kind == ExprKind::kColumnRef && inner.count(e->table_alias) == 0 &&
        !e->table_alias.empty()) {
      auto key = std::make_pair(e->table_alias, e->column_name);
      if (seen.insert(key).second) out.push_back(key);
    }
  });
  return out;
}

double GroupOutputRows(const std::vector<ExprPtr>& keys,
                       const std::vector<int>* set, const StatsContext& ctx,
                       double input_rows) {
  if (keys.empty()) return 1;
  double prod = 1;
  if (set == nullptr) {
    for (const auto& k : keys) prod *= EstimateNdv(*k, ctx, input_rows);
  } else {
    if (set->empty()) return 1;
    for (int i : *set) {
      prod *= EstimateNdv(*keys[static_cast<size_t>(i)], ctx, input_rows);
    }
  }
  return std::min(std::max(1.0, input_rows), prod);
}

}  // namespace

// ---------------------------------------------------------------------------
// ChooseScan / BuildScan: access-path selection for one base table
// ---------------------------------------------------------------------------

void Planner::CollectScanProbes(const TableRef& tr,
                                const std::vector<const Expr*>& filters,
                                const ExtraProbes& extra_probes,
                                const StatsContext& ctx) {
  scan_probes_.clear();
  for (const Expr* f : filters) {
    if (f->kind != ExprKind::kBinary || f->bop != BinaryOp::kEq) continue;
    const Expr* l = f->children[0].get();
    const Expr* r = f->children[1].get();
    const Expr* col = nullptr;
    const Expr* val = nullptr;
    if (l->kind == ExprKind::kColumnRef && l->corr_depth == 0 &&
        l->table_alias == tr.alias) {
      col = l;
      val = r;
    } else if (r->kind == ExprKind::kColumnRef && r->corr_depth == 0 &&
               r->table_alias == tr.alias) {
      col = r;
      val = l;
    }
    if (col == nullptr) continue;
    // The probe value must not depend on this table.
    if (ExprUsesAlias(*val, tr.alias)) continue;
    double sel = Selectivity(*f, ctx);
    scan_probes_.push_back(ScanProbe{col->column_name, val, f, sel});
  }
  for (const auto& [col, val] : extra_probes) {
    const ColumnStats* cs = ctx.FindColumn(tr.alias, std::string(col));
    double sel = (cs != nullptr && cs->ndv > 0) ? 1.0 / cs->ndv : 0.01;
    scan_probes_.push_back(ScanProbe{col, val, nullptr, sel});
  }
}

void Planner::MatchIndex(const IndexDef& idx) {
  scan_used_.clear();
  for (const auto& key_col : idx.columns) {
    const ScanProbe* found = nullptr;
    for (const auto& p : scan_probes_) {
      if (p.column == key_col &&
          std::find(scan_used_.begin(), scan_used_.end(), &p) ==
              scan_used_.end()) {
        found = &p;
        break;
      }
    }
    if (found == nullptr) break;
    scan_used_.push_back(found);
  }
}

bool Planner::ConsumedByIndex(const Expr* f) const {
  for (const ScanProbe* u : scan_used_) {
    if (u->source == f) return true;
  }
  return false;
}

Planner::ScanChoice Planner::ChooseScan(const TableRef& tr,
                                        const std::vector<const Expr*>& filters,
                                        const ExtraProbes& extra_probes,
                                        const StatsContext& ctx) {
  const CostParams& P = params_;
  const RelStats* rel = ctx.FindRelation(tr.alias);
  double base_rows = rel != nullptr ? rel->rows : 1000;
  const TableStats* ts = db_.stats().Find(tr.table_name);
  double blocks = ts != nullptr ? ts->blocks : std::max(1.0, base_rows / 100);

  // Full-scan option.
  ScanChoice best;
  best.rows = std::max(base_rows * ConjSelectivity(filters, ctx), 0.0);
  best.cost = blocks * P.seq_block + base_rows * P.cpu_tuple +
              base_rows * PredEvalCost(filters, P);

  // Best index option.
  CollectScanProbes(tr, filters, extra_probes, ctx);
  if (scan_probes_.empty()) return best;
  for (const auto& idx : tr.table_def->indexes) {
    MatchIndex(idx);
    if (scan_used_.empty()) continue;
    double probe_sel = 1.0;
    for (const ScanProbe* u : scan_used_) probe_sel *= u->sel;
    double match_rows = std::max(base_rows * probe_sel, 0.0);
    // Residual filters: the conjuncts no consumed probe came from. Same
    // arithmetic, in the same order, as ConjSelectivity/PredEvalCost over
    // the residual list.
    double residual_sel = 1.0;
    double residual_eval = 0;
    for (const Expr* f : filters) {
      if (ConsumedByIndex(f)) continue;
      residual_sel *= Selectivity(*f, ctx);
      residual_eval += P.cpu_pred;
      residual_eval += CountExpensiveCalls(*f) * P.expensive_call;
    }
    double out_rows = match_rows * std::max(residual_sel, 1e-9);
    double cost = P.index_probe + match_rows * P.index_row +
                  match_rows * residual_eval;
    if (cost < best.cost) {
      best.cost = cost;
      best.rows = out_rows;
      best.index = &idx;
    }
  }
  return best;
}

JoinStepPlan Planner::BuildScan(const TableRef& tr,
                                const std::vector<const Expr*>& filters,
                                const ExtraProbes& extra_probes,
                                const StatsContext& ctx,
                                const ScanChoice& choice,
                                std::set<const Expr*>* used_extra_probes) {
  auto node = std::make_unique<PlanNode>(choice.index == nullptr
                                             ? PlanOp::kTableScan
                                             : PlanOp::kIndexScan);
  node->table_name = tr.table_name;
  node->table_alias = tr.alias;
  node->output = SchemaForTable(tr);
  scan_used_.clear();
  if (choice.index != nullptr) {
    node->index_name = choice.index->name;
    CollectScanProbes(tr, filters, extra_probes, ctx);
    MatchIndex(*choice.index);
    for (const ScanProbe* u : scan_used_) {
      node->probes.push_back(u->value->Clone());
      if (u->source == nullptr && used_extra_probes != nullptr) {
        used_extra_probes->insert(u->value);
      }
    }
  }
  for (const Expr* f : filters) {
    if (!ConsumedByIndex(f)) node->filter.push_back(f->Clone());
  }
  node->est_rows = choice.rows;
  node->est_cost = choice.cost;
  JoinStepPlan step;
  step.plan = std::move(node);
  step.rows = choice.rows;
  step.cost = choice.cost;
  return step;
}

// ---------------------------------------------------------------------------
// BlockJoinCoster: join-method and join-step costing for one block
// ---------------------------------------------------------------------------

namespace {

struct RelEntry {
  const TableRef* tr = nullptr;
  std::vector<const Expr*> filters;  // single-alias predicates
  // Derived table: the planned view, re-tagged with the view alias and
  // topped with `filters`. Built once per block; every use shares it.
  PlanPtr view;
  double derived_cost = 0;  // the view before `filters`
  double derived_rows = 0;
  bool lateral = false;
};

struct WherePred {
  const Expr* expr;
  uint64_t mask;  // relations referenced
};

// Re-tags a planned view with its alias, on a copy of its (shared) top node,
// and applies its single-alias filters once, so every join that reads the
// view shares one plan.
void FinishView(const PlanNode& plan, const StatsContext& ctx,
                const CostParams& P, RelEntry* r) {
  std::unique_ptr<PlanNode> top = plan.Clone();
  for (auto& slot : top->output) slot.alias = r->tr->alias;
  r->derived_rows = top->est_rows;
  r->derived_cost = top->est_cost;
  if (!r->filters.empty()) {
    auto filter = std::make_unique<PlanNode>(PlanOp::kFilter);
    filter->output = top->output;
    for (const Expr* f : r->filters) filter->filter.push_back(f->Clone());
    filter->est_rows = r->derived_rows * ConjSelectivity(r->filters, ctx);
    filter->est_cost =
        r->derived_cost + r->derived_rows * PredEvalCost(r->filters, P);
    filter->children.push_back(std::move(top));
    top = std::move(filter);
  }
  r->view = std::move(top);
}

}  // namespace

class BlockJoinCoster : public JoinCoster {
 public:
  BlockJoinCoster(Planner* planner, const CostParams& P,
                  const StatsContext& ctx, std::vector<RelEntry> rels,
                  std::vector<WherePred> preds,
                  const std::map<std::string, int>& alias_to_rel)
      : planner_(planner),
        P_(P),
        ctx_(ctx),
        rels_(std::move(rels)),
        preds_(std::move(preds)),
        alias_to_rel_(alias_to_rel) {}

  Result<JoinStepPlan> BaseRel(int rel) override {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    if (r.tr->IsBaseTable()) {
      Planner::ScanChoice choice =
          planner_->ChooseScan(*r.tr, r.filters, {}, ctx_);
      return planner_->BuildScan(*r.tr, r.filters, {}, ctx_, choice);
    }
    JoinStepPlan step;
    step.plan = r.view;
    step.rows = r.view->est_rows;
    step.cost = r.view->est_cost;
    return step;
  }

  Result<JoinEstimate> EstimateJoin(const JoinStepPlan& left,
                                    uint64_t left_mask, int rel) override {
    auto priced = Price(left, left_mask, rel);
    if (!priced.ok()) return priced.status();
    return JoinEstimate{priced->rows, priced->cost, priced->method};
  }

  Result<JoinStepPlan> BuildJoin(const JoinStepPlan& left, uint64_t left_mask,
                                 int rel, const JoinEstimate& chosen) override {
    auto priced = Price(left, left_mask, rel);
    if (!priced.ok()) return priced.status();
    if (priced->method != chosen.method) {
      return Status::Internal("join estimate does not match its build");
    }
    const Priced& p = *priced;
    RelEntry& r = rels_[static_cast<size_t>(rel)];

    auto node = std::make_unique<PlanNode>(p.method == JoinMethod::kHash
                                               ? PlanOp::kHashJoin
                                               : PlanOp::kNestedLoopJoin);
    node->join_kind = r.tr->join;
    node->null_aware = r.tr->join == JoinKind::kAntiNA;
    node->children.push_back(left.plan);

    if (p.method == JoinMethod::kHash) {
      node->children.push_back(p.right->plan);
      for (const auto& eq : equis_) {
        node->hash_left_keys.push_back(eq.left_side->Clone());
        node->hash_right_keys.push_back(eq.right_side->Clone());
      }
      for (const Expr* c : conds_) {
        if (!IsEqui(c)) node->join_conds.push_back(c->Clone());
      }
    } else if (r.lateral) {
      // Single-alias WHERE predicates on the lateral view are part of the
      // shared view plan and apply to its output on every rescan.
      node->rescan_right = true;
      node->children.push_back(r.view);
      for (const Expr* c : conds_) node->join_conds.push_back(c->Clone());
    } else if (p.method == JoinMethod::kIndexNestedLoop) {
      node->rescan_right = true;
      std::set<const Expr*> used_values;
      JoinStepPlan probe_scan = planner_->BuildScan(
          *r.tr, r.filters, extra_, ctx_, p.probe_scan, &used_values);
      node->children.push_back(std::move(probe_scan.plan));
      // Only conditions whose probe the chosen index actually consumed are
      // guaranteed by the scan; everything else — including equis on columns
      // the index does not cover — must still be evaluated at the join.
      for (const Expr* c : conds_) {
        bool probed = false;
        for (const auto& eq : equis_) {
          if (eq.pred == c && used_values.count(eq.left_side) != 0) {
            probed = true;
          }
        }
        if (!probed) node->join_conds.push_back(c->Clone());
      }
    } else {
      node->children.push_back(p.right->plan);
      for (const Expr* c : conds_) node->join_conds.push_back(c->Clone());
    }

    // Output schema: left ⊕ right for inner/outer, left only for semi/anti.
    node->output = node->children[0]->output;
    if (r.tr->join == JoinKind::kInner || r.tr->join == JoinKind::kLeftOuter) {
      const Schema& right_schema = node->children[1]->output;
      node->output.insert(node->output.end(), right_schema.begin(),
                          right_schema.end());
    }
    node->est_rows = p.join_rows;
    node->est_cost = p.join_cost;

    if (!post_conds_.empty()) {
      auto filter = std::make_unique<PlanNode>(PlanOp::kFilter);
      filter->output = node->output;
      for (const Expr* c : post_conds_) filter->filter.push_back(c->Clone());
      filter->est_rows = p.rows;
      filter->est_cost = p.cost;
      filter->children.push_back(std::move(node));
      node = std::move(filter);
    }

    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = p.rows;
    step.cost = p.cost;
    return step;
  }

 private:
  // Equi conditions usable as hash keys / index probes: one side only
  // references `rel`, the other only relations in left_mask.
  struct EquiCond {
    const Expr* pred;
    const Expr* left_side;   // refers to left_mask relations
    const Expr* right_side;  // refers to rel
  };

  // The cheapest join of one candidate. `join_*` describe the join node,
  // `rows`/`cost` the step including the filter of WHERE predicates
  // completed at an outer join.
  struct Priced {
    JoinMethod method = JoinMethod::kNestedLoop;
    double join_rows = 0;
    double join_cost = 0;
    double rows = 0;
    double cost = 0;
    const JoinStepPlan* right = nullptr;  // the right input's base plan
    Planner::ScanChoice probe_scan;  // kIndexNestedLoop: the probed scan
  };

  // Prices every join method for `left` ⋈ `rel` and keeps the cheapest.
  // Leaves the candidate's conds_, post_conds_, equis_ and extra_ in the
  // scratch members for BuildJoin.
  Result<Priced> Price(const JoinStepPlan& left, uint64_t left_mask,
                       int rel) {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    uint64_t bit = 1ULL << rel;
    uint64_t new_mask = left_mask | bit;

    JoinKind kind = r.tr->join;
    bool null_aware = kind == JoinKind::kAntiNA;

    // Applicable predicates: WHERE join predicates completed by adding
    // `rel`, plus the relation's own ON/unnesting conditions. WHERE
    // predicates completed at an outer join must NOT become part of the
    // join condition (that would re-admit null-extended rows the WHERE
    // clause rejects); they are applied as a filter above the join.
    conds_.clear();
    post_conds_.clear();
    for (const auto& p : preds_) {
      if ((p.mask & ~new_mask) == 0 && (p.mask & bit) != 0) {
        if (kind == JoinKind::kLeftOuter) {
          post_conds_.push_back(p.expr);
        } else {
          conds_.push_back(p.expr);
        }
      }
    }
    for (const auto& c : r.tr->join_conds) conds_.push_back(c.get());

    equis_.clear();
    for (const Expr* c : conds_) {
      if (c->kind != ExprKind::kBinary || c->bop != BinaryOp::kEq) continue;
      const Expr* a = c->children[0].get();
      const Expr* b = c->children[1].get();
      uint64_t am = AliasMask(*a);
      uint64_t bm = AliasMask(*b);
      if (am != 0 && (am & ~left_mask) == 0 && bm == bit) {
        equis_.push_back(EquiCond{c, a, b});
      } else if (bm != 0 && (bm & ~left_mask) == 0 && am == bit) {
        equis_.push_back(EquiCond{c, b, a});
      }
    }

    // Output cardinality estimates.
    double conds_sel = ConjSelectivity(conds_, ctx_);
    double right_rows_base = RightRows(rel);
    double inner_rows =
        std::max(left.rows * right_rows_base * conds_sel, 0.0);
    double semi_sel = 0.5;
    if (!equis_.empty()) {
      semi_sel = SemiJoinSelectivity(*equis_[0].pred, ctx_, r.tr->alias);
    }
    double out_rows;
    switch (kind) {
      case JoinKind::kSemi:
        out_rows = std::max(1.0, left.rows * semi_sel);
        break;
      case JoinKind::kAnti:
      case JoinKind::kAntiNA:
        out_rows = std::max(1.0, left.rows * (1.0 - semi_sel));
        break;
      case JoinKind::kLeftOuter:
        out_rows = std::max(left.rows, inner_rows);
        break;
      default:
        out_rows = inner_rows;
        break;
    }

    // ---- candidate methods ----
    auto right_base = BaseRightPlan(rel);
    if (!right_base.ok()) return right_base.status();
    const JoinStepPlan& right = **right_base;

    Priced best;
    best.right = &right;
    best.join_cost = std::numeric_limits<double>::infinity();
    bool valid = false;
    auto consider = [&](double cost, JoinMethod method) {
      if (cost < best.join_cost) {
        best.join_cost = cost;
        best.method = method;
        valid = true;
      }
    };

    if (r.lateral) {
      // JPPD views must be joined by nested loop after their referenced
      // tables (paper §2.2.3).
      double cost = left.cost + left.rows * r.derived_cost +
                    out_rows * P_.cpu_tuple;
      best.join_cost = cost;
      best.method = JoinMethod::kNestedLoop;
      valid = true;
      // The lateral view's internal predicates already account for the
      // correlation; per execution it returns derived_rows rows.
      out_rows = std::max(1.0, left.rows * r.derived_rows * conds_sel);
      if (kind == JoinKind::kSemi) {
        out_rows = std::max(1.0, left.rows * std::min(1.0, r.derived_rows));
      }
    } else {
      // Hash join.
      if (!equis_.empty()) {
        double penalty = null_aware ? 1.6 : 1.0;
        consider(left.cost + right.cost + right.rows * P_.hash_build * penalty +
                     left.rows * P_.hash_probe * penalty +
                     out_rows * P_.cpu_tuple,
                 JoinMethod::kHash);
      }
      // Index nested loop (base tables with a usable index).
      extra_.clear();
      if (r.tr->IsBaseTable()) {
        for (const auto& eq : equis_) {
          if (eq.right_side->kind == ExprKind::kColumnRef) {
            extra_.push_back({eq.right_side->column_name, eq.left_side});
          }
        }
      }
      if (!extra_.empty()) {
        Planner::ScanChoice probe =
            planner_->ChooseScan(*r.tr, r.filters, extra_, ctx_);
        if (probe.index != nullptr) {
          consider(left.cost + left.rows * probe.cost + out_rows * P_.cpu_tuple,
                   JoinMethod::kIndexNestedLoop);
          if (best.method == JoinMethod::kIndexNestedLoop) {
            best.probe_scan = probe;
          }
        }
      }
      // Plain nested loop over the materialized right input.
      double pair_cost = PredEvalCost(conds_, P_) + P_.rescan_row;
      consider(left.cost + right.cost + left.rows * right.rows * pair_cost +
                   out_rows * P_.cpu_tuple,
               JoinMethod::kNestedLoop);
    }

    if (!valid) return Status::CostCutoff();

    best.join_rows = out_rows;
    best.rows = out_rows;
    best.cost = best.join_cost;
    if (!post_conds_.empty()) {
      best.cost += out_rows * PredEvalCost(post_conds_, P_);
      best.rows =
          std::max(out_rows * ConjSelectivity(post_conds_, ctx_), 0.0);
    }
    return best;
  }

  bool IsEqui(const Expr* c) const {
    for (const auto& eq : equis_) {
      if (eq.pred == c) return true;
    }
    return false;
  }

  uint64_t AliasMask(const Expr& e) const {
    // Two captured pointers fit std::function's inline buffer, so pricing a
    // candidate does not allocate here.
    struct {
      uint64_t mask = 0;
      bool unknown = false;
    } acc;
    VisitExprConst(&e, [&acc, this](const Expr* x) {
      if (x->kind == ExprKind::kColumnRef) {
        auto it = alias_to_rel_.find(x->table_alias);
        if (it != alias_to_rel_.end() && x->corr_depth == 0) {
          acc.mask |= 1ULL << it->second;
        } else if (x->corr_depth == 0) {
          acc.unknown = true;
        }
      }
    });
    // An unknown alias refuses to classify: the mask never matches a side.
    if (acc.unknown) return ~0ULL;
    return acc.mask;
  }

  double RightRows(int rel) {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    if (r.tr->IsBaseTable()) {
      const RelStats* rs = ctx_.FindRelation(r.tr->alias);
      double rows = rs != nullptr ? rs->rows : 1000;
      return std::max(rows * ConjSelectivity(r.filters, ctx_), 0.0);
    }
    return std::max(r.derived_rows * ConjSelectivity(r.filters, ctx_), 0.0);
  }

  // The right input's standalone plan, built once per relation and read in
  // place by every candidate that joins it.
  Result<const JoinStepPlan*> BaseRightPlan(int rel) {
    auto it = base_cache_.find(rel);
    if (it == base_cache_.end()) {
      auto base = BaseRel(rel);
      if (!base.ok()) return base.status();
      it = base_cache_.emplace(rel, std::move(base.value())).first;
    }
    return &it->second;
  }

  Planner* planner_;
  const CostParams& P_;
  const StatsContext& ctx_;
  std::vector<RelEntry> rels_;
  std::vector<WherePred> preds_;
  std::map<std::string, int> alias_to_rel_;
  std::map<int, JoinStepPlan> base_cache_;
  // Scratch of the last Price call, reused across candidates.
  std::vector<const Expr*> conds_;
  std::vector<const Expr*> post_conds_;
  std::vector<EquiCond> equis_;
  Planner::ExtraProbes extra_;
};

// ---------------------------------------------------------------------------
// SubsetJoinMemo: cross-state join-order memoization
// ---------------------------------------------------------------------------

namespace {

// Keys one block's join-order DP subproblems so their results transfer
// across transformation states. A subset mask is fingerprinted by its member
// relations in FROM order — alias, content (table name or the derived
// block's exact text), join kind, laterality, ON conditions,
// single-relation filters (including the constant predicates attached to
// relation 0), dependency aliases — plus every WHERE join predicate falling
// entirely within the subset, in WHERE order. Everything the DP value of a
// subset depends on is covered: selectivities resolve through the member
// aliases only, derived-table stats are functions of the block text,
// and correlated references degrade to defaults deterministically.
//
// Serialization keeps relative FROM / WHERE order (rather than sorting) so
// the enumerator's tie-break order is identical whenever fingerprints
// match — a hit returns exactly what this state's own DP would have built.
class SubsetJoinMemo : public JoinOrderMemo {
 public:
  SubsetJoinMemo(AnnotationCache* cache, std::vector<std::string> rel_fps,
                 std::vector<std::pair<uint64_t, std::string>> pred_fps) {
    cache_ = cache;
    // Hash every fingerprint string once up front; per-mask keys are then
    // order-dependent 128-bit combinations rendered as 32 hex chars. The
    // enumerator probes the memo for every subset of every state, so key
    // construction must not re-serialize the (view-signature-sized)
    // fingerprint strings per probe.
    rel_h_.reserve(rel_fps.size());
    for (const std::string& fp : rel_fps) {
      rel_h_.push_back({Fnv1a(fp, kSeedLo), Fnv1a(fp, kSeedHi)});
    }
    pred_h_.reserve(pred_fps.size());
    for (const auto& [pmask, fp] : pred_fps) {
      pred_h_.push_back({pmask, {Fnv1a(fp, kSeedLo), Fnv1a(fp, kSeedHi)}});
    }
  }

  Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) override {
    char key[kKeyLen];
    KeyFor(mask, key);
    std::shared_ptr<const CostAnnotation> hit =
        cache_->Find(std::string_view(key, kKeyLen));
    if (hit == nullptr) return Probe::kMiss;
    // The stored entry is the subset's cutoff-independent best (see
    // join_order.h): a best above the cutoff means the subset is pruned
    // under it, exactly as a from-scratch DP would conclude.
    if (hit->cost > cutoff) return Probe::kPruned;
    out->plan = hit->plan;
    out->rows = hit->rows;
    out->cost = hit->cost;
    return Probe::kHit;
  }

  void Store(uint64_t mask, const JoinStepPlan& step) override {
    CostAnnotation ann;
    ann.cost = step.cost;
    ann.rows = step.rows;
    ann.plan = step.plan;
    char key[kKeyLen];
    KeyFor(mask, key);
    cache_->Put(std::string_view(key, kKeyLen), std::move(ann));
  }

 private:
  struct Hash128 {
    uint64_t lo;
    uint64_t hi;
  };
  static constexpr uint64_t kSeedLo = 14695981039346656037ULL;  // FNV offset
  static constexpr uint64_t kSeedHi = 0x9e3779b97f4a7c15ULL;
  static constexpr size_t kKeyLen = 3 + 32;  // "jo:" + 2x16 hex chars

  static uint64_t Fnv1a(std::string_view s, uint64_t h) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    return h;
  }
  static void Mix(Hash128* acc, const Hash128& v) {
    // Order-dependent combine (serialization order carries the tie-break
    // identity argument, so the key must not be commutative).
    acc->lo = (acc->lo ^ v.lo) * 1099511628211ULL + (acc->lo << 7);
    acc->hi = (acc->hi ^ v.hi) * 0xc2b2ae3d27d4eb4fULL + (acc->hi >> 9);
  }

  void KeyFor(uint64_t mask, char out[kKeyLen]) const {
    Hash128 acc{kSeedLo, kSeedHi};
    for (size_t i = 0; i < rel_h_.size(); ++i) {
      if (mask & (1ULL << i)) Mix(&acc, rel_h_[i]);
    }
    Mix(&acc, {0x50u, 0x50u});  // relation/predicate section separator
    for (const auto& [pmask, h] : pred_h_) {
      if ((pmask & ~mask) == 0) Mix(&acc, h);
    }
    std::memcpy(out, "jo:", 3);
    static const char* hex = "0123456789abcdef";
    for (int i = 0; i < 16; ++i) {
      out[3 + i] = hex[(acc.lo >> (60 - 4 * i)) & 0xf];
      out[19 + i] = hex[(acc.hi >> (60 - 4 * i)) & 0xf];
    }
  }

  AnnotationCache* cache_;
  std::vector<Hash128> rel_h_;
  std::vector<std::pair<uint64_t, Hash128>> pred_h_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Result<BlockPlan> Planner::PlanBlock(const QueryBlock& qb) {
  // Cooperative governor poll: one cheap deadline check per planned block,
  // so a runaway optimization of a deeply nested query cancels mid-plan.
  if (budget_ != nullptr && budget_->CheckDeadline()) {
    return Status::BudgetExhausted(
        "optimization deadline exceeded while planning");
  }
  // Same quantum, harder stop: a tripped cancellation token fails the
  // query outright instead of degrading it.
  if (guards_.any()) CBQT_RETURN_IF_ERROR(guards_.Poll());
  // The annotation key is the block's exact text: a hit is what planning
  // this block would produce, so reuse never changes a plan, whichever
  // state or query published the entry first.
  std::string key;
  if (cache_ != nullptr) {
    key = BlockToSql(qb);
    if (std::shared_ptr<const CostAnnotation> hit = cache_->Find(key)) {
      BlockPlan out;
      out.plan = hit->plan;
      out.out_stats = hit->out_stats;
      return out;
    }
  }
  Result<BlockPlan> result =
      qb.IsSetOp() ? PlanSetOp(qb) : PlanRegular(qb);
  if (!result.ok()) return result;
  ++blocks_planned_;
  if (cache_ != nullptr) {
    CostAnnotation ann;
    ann.cost = result->plan->est_cost;
    ann.rows = result->plan->est_rows;
    ann.out_stats = result->out_stats;
    ann.plan = result->plan;
    cache_->Put(key, std::move(ann));
  }
  return result;
}

Result<BlockPlan> Planner::PlanSetOp(const QueryBlock& qb) {
  auto node = std::make_unique<PlanNode>(PlanOp::kSetOp);
  node->set_op = qb.set_op;
  double rows = 0;
  double cost = 0;
  RelStats first_stats;
  for (size_t i = 0; i < qb.branches.size(); ++i) {
    auto branch = PlanBlock(*qb.branches[i]);
    if (!branch.ok()) return branch.status();
    if (i == 0) first_stats = branch->out_stats;
    double brows = branch->plan->est_rows;
    double bcost = branch->plan->est_cost;
    switch (qb.set_op) {
      case SetOpKind::kUnionAll:
      case SetOpKind::kUnion:
        rows += brows;
        break;
      case SetOpKind::kIntersect:
        rows = (i == 0) ? brows : std::min(rows, brows) * 0.5;
        break;
      case SetOpKind::kMinus:
        rows = (i == 0) ? brows : rows * 0.5;
        break;
      default:
        break;
    }
    cost += bcost;
    if (qb.set_op != SetOpKind::kUnionAll) cost += brows * params_.agg_row;
    node->children.push_back(std::move(branch->plan));
  }
  if (qb.set_op == SetOpKind::kUnion) rows *= 0.8;
  node->output = node->children[0]->output;
  node->est_rows = std::max(rows, 0.0);
  node->est_cost = cost;
  if (node->est_cost > cutoff_) return Status::CostCutoff();

  PlanPtr top = std::move(node);
  if (qb.rownum_limit >= 0) {
    auto limit = std::make_unique<PlanNode>(PlanOp::kLimit);
    limit->limit = qb.rownum_limit;
    limit->output = top->output;
    limit->est_rows = std::min(static_cast<double>(qb.rownum_limit),
                               top->est_rows);
    limit->est_cost = top->est_cost;
    limit->children.push_back(std::move(top));
    top = std::move(limit);
  }

  BlockPlan out;
  out.out_stats = first_stats;
  out.out_stats.rows = top->est_rows;
  out.plan = std::move(top);
  return out;
}

Result<BlockPlan> Planner::PlanRegular(const QueryBlock& qb) {
  const CostParams& P = params_;

  // ---- 0. No-FROM block: a single synthetic row. ----
  if (qb.from.empty()) {
    auto node = std::make_unique<PlanNode>(PlanOp::kProject);
    for (const auto& item : qb.select) {
      node->projections.push_back(item.expr->Clone());
      node->output.push_back(ColumnSlot{"", item.alias, item.expr->type});
    }
    node->est_rows = 1;
    node->est_cost = P.cpu_tuple;
    BlockPlan out;
    out.out_stats.rows = 1;
    out.plan = std::move(node);
    return out;
  }

  // ---- 1. Classify WHERE conjuncts. ----
  bool lazy_limit_ok = qb.rownum_limit >= 0 && !qb.IsAggregating() &&
                       !qb.distinct && qb.order_by.empty();
  std::vector<const Expr*> tis_preds;
  std::map<std::string, std::vector<const Expr*>> rel_filters;
  std::vector<WherePred> join_preds;
  std::vector<const Expr*> deferred_preds;  // lazy under ROWNUM
  std::vector<const Expr*> const_preds;

  std::map<std::string, int> alias_to_rel;
  for (size_t i = 0; i < qb.from.size(); ++i) {
    alias_to_rel[qb.from[i].alias] = static_cast<int>(i);
  }
  auto alias_mask_of = [&](const Expr& e) {
    uint64_t mask = 0;
    VisitExprDeepConst(&e, [&](const Expr* x) {
      if (x->kind == ExprKind::kColumnRef) {
        auto it = alias_to_rel.find(x->table_alias);
        if (it != alias_to_rel.end()) mask |= 1ULL << it->second;
      }
    });
    return mask;
  };

  for (const auto& w : qb.where) {
    if (ContainsSubquery(*w)) {
      tis_preds.push_back(w.get());
      continue;
    }
    if (lazy_limit_ok && ContainsExpensivePredicate(*w)) {
      deferred_preds.push_back(w.get());
      continue;
    }
    std::set<std::string> aliases = CollectLocalAliases(*w);
    // Only aliases of this block count (correlated refs are bound values).
    std::set<std::string> local;
    for (const auto& a : aliases) {
      if (alias_to_rel.count(a) > 0) local.insert(a);
    }
    if (local.empty()) {
      const_preds.push_back(w.get());
    } else if (local.size() == 1 &&
               qb.from[static_cast<size_t>(
                           alias_to_rel[*local.begin()])].join !=
                   JoinKind::kLeftOuter) {
      rel_filters[*local.begin()].push_back(w.get());
    } else {
      // Multi-relation predicates, plus single-relation predicates on the
      // nullable side of an outer join: the latter must not be pushed below
      // the join (WHERE filters after null-extension), so they stay join
      // predicates and BlockJoinCoster applies them above the outer join.
      join_preds.push_back(WherePred{w.get(), alias_mask_of(*w)});
    }
  }

  // ---- 2. Relations + stats context. ----
  StatsContext ctx;
  std::vector<RelEntry> rels;
  rels.reserve(qb.from.size());
  std::vector<PlanPtr> views(qb.from.size());
  for (size_t i = 0; i < qb.from.size(); ++i) {
    const TableRef& tr = qb.from[i];
    RelEntry entry;
    entry.tr = &tr;
    auto fit = rel_filters.find(tr.alias);
    if (fit != rel_filters.end()) entry.filters = fit->second;
    if (i == 0) {
      // Constant predicates: evaluate once at the driving relation.
      for (const Expr* c : const_preds) entry.filters.push_back(c);
    }
    if (tr.IsBaseTable()) {
      if (tr.table_def == nullptr) {
        return Status::Internal("unbound table ref: " + tr.alias);
      }
      ctx.AddRelation(tr.alias, StatsForTable(db_, tr));
    } else {
      auto sub = PlanBlock(*tr.derived);
      if (!sub.ok()) return sub.status();
      entry.lateral = tr.lateral;
      RelStats vstats = sub->out_stats;
      vstats.rows = sub->plan->est_rows;
      ctx.AddRelation(tr.alias, std::move(vstats));
      views[i] = std::move(sub->plan);
    }
    rels.push_back(std::move(entry));
  }
  // View filters are priced against the complete stats context.
  for (size_t i = 0; i < rels.size(); ++i) {
    if (views[i] != nullptr) FinishView(*views[i], ctx, P, &rels[i]);
  }

  // Dependencies (partial join orders).
  std::vector<uint64_t> deps(rels.size(), 0);
  for (size_t i = 0; i < rels.size(); ++i) {
    const TableRef& tr = qb.from[i];
    uint64_t self = 1ULL << i;
    for (const auto& c : tr.join_conds) {
      deps[i] |= alias_mask_of(*c) & ~self;
    }
    if (tr.lateral && tr.derived != nullptr) {
      for (const auto& [alias, col] : CollectOuterRefs(*tr.derived)) {
        auto it = alias_to_rel.find(alias);
        if (it != alias_to_rel.end()) deps[i] |= 1ULL << it->second;
      }
    }
  }

  // ---- 3. Join order search. ----
  std::unique_ptr<SubsetJoinMemo> memo;
  if (join_memo_ != nullptr && qb.from.size() >= 2 && qb.from.size() <= 64) {
    std::vector<std::string> rel_fps;
    rel_fps.reserve(qb.from.size());
    for (size_t i = 0; i < qb.from.size(); ++i) {
      const TableRef& tr = qb.from[i];
      std::string fp = tr.alias;
      fp += '=';
      if (tr.IsBaseTable()) {
        fp += "T:";
        fp += tr.table_name;
      } else {
        fp += "V:";
        // Exact unparsing, as for the annotation key: a key collision
        // implies the DP would re-run with the same inputs in the same
        // order (tie-break identity).
        fp += BlockToSql(*tr.derived);
      }
      fp += ";k";
      fp += std::to_string(static_cast<int>(tr.join));
      if (tr.lateral) fp += ";lat";
      for (const auto& c : tr.join_conds) {
        fp += ";on:";
        fp += ExprToSql(*c);
      }
      for (const Expr* f : rels[i].filters) {
        fp += ";f:";
        fp += ExprToSql(*f);
      }
      // Dependencies as alias names, so the fingerprint is independent of
      // absolute FROM positions (masks are not transferable across blocks).
      fp += ";d:";
      for (size_t j = 0; j < qb.from.size(); ++j) {
        if (deps[i] & (1ULL << j)) {
          fp += qb.from[j].alias;
          fp += ',';
        }
      }
      rel_fps.push_back(std::move(fp));
    }
    std::vector<std::pair<uint64_t, std::string>> pred_fps;
    pred_fps.reserve(join_preds.size());
    for (const auto& p : join_preds) {
      pred_fps.emplace_back(p.mask, ExprToSql(*p.expr));
    }
    memo = std::make_unique<SubsetJoinMemo>(join_memo_, std::move(rel_fps),
                                            std::move(pred_fps));
  }
  BlockJoinCoster coster(this, P, ctx, std::move(rels), join_preds,
                         alias_to_rel);
  JoinOrderEnumerator enumerator(deps, &coster, cutoff_,
                                 /*dp_threshold=*/10, memo.get());
  auto joined = enumerator.Enumerate();
  if (!joined.ok()) return joined.status();
  PlanPtr top = std::move(joined->plan);
  double rows = joined->rows;
  double cost = joined->cost;

  // ---- 4. TIS subquery filter. ----
  if (!tis_preds.empty()) {
    auto node = std::make_unique<PlanNode>(PlanOp::kSubqueryFilter);
    node->output = top->output;
    double sel = 1.0;
    for (const Expr* p : tis_preds) {
      node->filter.push_back(p->Clone());
      sel *= Selectivity(*p, ctx);
      std::vector<const Expr*> subs;
      CollectSubqueryNodes(p, &subs);
      for (const Expr* s : subs) {
        auto subplan = PlanBlock(*s->subquery);
        if (!subplan.ok()) return subplan.status();
        // TIS execution count: one evaluation per distinct correlation
        // value (the engine caches results, paper §2.1.1/§3.4.4).
        auto outer_refs = CollectOuterRefs(*s->subquery);
        double distinct_keys = 1;
        std::vector<ExprPtr> keys;
        for (const auto& [alias, col] : outer_refs) {
          auto ref = MakeColumnRef(alias, col);
          const ColumnStats* cs = ctx.FindColumn(alias, col);
          distinct_keys *= (cs != nullptr && cs->ndv > 0) ? cs->ndv : rows;
          keys.push_back(std::move(ref));
        }
        double nexec = outer_refs.empty()
                           ? 1.0
                           : std::min(rows, std::max(1.0, distinct_keys));
        cost += nexec * subplan->plan->est_cost + rows * P.cpu_pred;
        node->subplans.push_back(std::move(subplan->plan));
        node->subplan_corr_keys.push_back(std::move(keys));
      }
      cost += rows * PredEvalCost({p}, P);
    }
    rows = std::max(rows * sel, 0.0);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
    if (cost > cutoff_) return Status::CostCutoff();
  }

  // ---- 5. Lazy ROWNUM limit (before projection; the deferred predicates
  // reference FROM columns). ----
  if (lazy_limit_ok && qb.rownum_limit >= 0) {
    auto node = std::make_unique<PlanNode>(PlanOp::kLimit);
    node->limit = qb.rownum_limit;
    node->output = top->output;
    double sel = std::max(ConjSelectivity(deferred_preds, ctx), 1e-6);
    double scanned =
        std::min(rows, static_cast<double>(qb.rownum_limit) / sel);
    for (const Expr* p : deferred_preds) node->filter.push_back(p->Clone());
    cost += scanned * PredEvalCost(deferred_preds, P) + scanned * P.cpu_tuple;
    rows = std::min(static_cast<double>(qb.rownum_limit), rows * sel);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // Prepare (cloned) upper expressions for substitution.
  std::vector<ExprPtr> sel_exprs;
  for (const auto& item : qb.select) sel_exprs.push_back(item.expr->Clone());
  std::vector<ExprPtr> having_exprs;
  for (const auto& h : qb.having) having_exprs.push_back(h->Clone());
  std::vector<ExprPtr> order_exprs;
  for (const auto& o : qb.order_by) order_exprs.push_back(o.expr->Clone());

  // ---- 6. Aggregation. ----
  if (qb.IsAggregating()) {
    std::vector<const Expr*> agg_nodes;
    auto collect_aggs = [&](const ExprPtr& e) {
      VisitExprConst(e.get(), [&](const Expr* x) {
        if (x->kind != ExprKind::kAggregate) return;
        for (const Expr* seen : agg_nodes) {
          if (ExprEquals(*seen, *x)) return;
        }
        agg_nodes.push_back(x);
      });
    };
    for (const auto& e : sel_exprs) collect_aggs(e);
    for (const auto& e : having_exprs) collect_aggs(e);
    for (const auto& e : order_exprs) collect_aggs(e);

    auto node = std::make_unique<PlanNode>(PlanOp::kAggregate);
    // Patterns must be owned clones: the raw nodes live inside the very
    // expressions SubstituteSlots rewrites, and would dangle after the
    // first replacement.
    std::vector<ExprPtr> pattern_storage;
    std::vector<const Expr*> patterns;
    std::vector<std::string> names;
    for (size_t j = 0; j < agg_nodes.size(); ++j) {
      node->agg_exprs.push_back(agg_nodes[j]->Clone());
      pattern_storage.push_back(agg_nodes[j]->Clone());
      names.push_back("$a" + std::to_string(j));
    }
    for (size_t g = 0; g < qb.group_by.size(); ++g) {
      node->group_keys.push_back(qb.group_by[g]->Clone());
      pattern_storage.push_back(qb.group_by[g]->Clone());
      names.push_back("$g" + std::to_string(g));
    }
    for (const auto& pat : pattern_storage) patterns.push_back(pat.get());
    node->grouping_sets = qb.grouping_sets;
    // Output schema: group keys then aggregates.
    Schema schema;
    for (size_t g = 0; g < qb.group_by.size(); ++g) {
      schema.push_back(ColumnSlot{"", "$g" + std::to_string(g),
                                  qb.group_by[g]->type});
    }
    for (size_t j = 0; j < agg_nodes.size(); ++j) {
      schema.push_back(ColumnSlot{"", "$a" + std::to_string(j),
                                  agg_nodes[j]->type});
    }
    node->output = std::move(schema);

    double out_rows = 0;
    int num_sets = 1;
    if (qb.grouping_sets.empty()) {
      out_rows = GroupOutputRows(qb.group_by, nullptr, ctx, rows);
    } else {
      num_sets = static_cast<int>(qb.grouping_sets.size());
      for (const auto& set : qb.grouping_sets) {
        out_rows += GroupOutputRows(qb.group_by, &set, ctx, rows);
      }
    }
    cost += rows * P.agg_row * num_sets + out_rows * P.cpu_tuple;
    rows = std::max(1.0, out_rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
    if (cost > cutoff_) return Status::CostCutoff();

    for (auto& e : sel_exprs) SubstituteSlots(&e, patterns, names);
    for (auto& e : having_exprs) SubstituteSlots(&e, patterns, names);
    for (auto& e : order_exprs) SubstituteSlots(&e, patterns, names);
  }

  // ---- 7. HAVING. ----
  if (!having_exprs.empty()) {
    std::vector<const Expr*> plain;
    std::vector<const Expr*> with_sub;
    for (const auto& h : having_exprs) {
      if (ContainsSubquery(*h)) {
        with_sub.push_back(h.get());
      } else {
        plain.push_back(h.get());
      }
    }
    if (!plain.empty()) {
      auto node = std::make_unique<PlanNode>(PlanOp::kFilter);
      node->output = top->output;
      for (const Expr* p : plain) node->filter.push_back(p->Clone());
      rows = std::max(rows * ConjSelectivity(plain, ctx), 0.0);
      cost += top->est_rows * PredEvalCost(plain, P);
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
    }
    if (!with_sub.empty()) {
      auto node = std::make_unique<PlanNode>(PlanOp::kSubqueryFilter);
      node->output = top->output;
      for (const Expr* p : with_sub) {
        node->filter.push_back(p->Clone());
        std::vector<const Expr*> subs;
        CollectSubqueryNodes(p, &subs);
        for (const Expr* s : subs) {
          auto subplan = PlanBlock(*s->subquery);
          if (!subplan.ok()) return subplan.status();
          auto outer_refs = CollectOuterRefs(*s->subquery);
          std::vector<ExprPtr> keys;
          for (const auto& [alias, col] : outer_refs) {
            keys.push_back(MakeColumnRef(alias, col));
          }
          cost += std::max(1.0, rows) * subplan->plan->est_cost * 0.5;
          node->subplans.push_back(std::move(subplan->plan));
          node->subplan_corr_keys.push_back(std::move(keys));
        }
        rows = std::max(rows * Selectivity(*p, ctx), 0.0);
      }
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
    }
  }

  // ---- 8. Window functions. ----
  {
    std::vector<const Expr*> win_nodes;
    auto collect_wins = [&](const ExprPtr& e) {
      VisitExprConst(e.get(), [&](const Expr* x) {
        if (x->kind != ExprKind::kWindow) return;
        for (const Expr* seen : win_nodes) {
          if (ExprEquals(*seen, *x)) return;
        }
        win_nodes.push_back(x);
      });
    };
    for (const auto& e : sel_exprs) collect_wins(e);
    for (const auto& e : order_exprs) collect_wins(e);
    if (!win_nodes.empty()) {
      auto node = std::make_unique<PlanNode>(PlanOp::kWindow);
      node->output = top->output;
      std::vector<ExprPtr> pattern_storage;
      std::vector<const Expr*> patterns;
      std::vector<std::string> names;
      for (size_t j = 0; j < win_nodes.size(); ++j) {
        node->window_exprs.push_back(win_nodes[j]->Clone());
        std::string name = "$w" + std::to_string(j);
        node->output.push_back(ColumnSlot{"", name, win_nodes[j]->type});
        pattern_storage.push_back(win_nodes[j]->Clone());
        names.push_back(name);
      }
      for (const auto& pat : pattern_storage) patterns.push_back(pat.get());
      cost += P.SortCost(rows) + rows * P.cpu_tuple;
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
      for (auto& e : sel_exprs) SubstituteSlots(&e, patterns, names);
      for (auto& e : order_exprs) SubstituteSlots(&e, patterns, names);
    }
  }

  // ---- 9. Projection. ORDER BY keys are resolved here, before anything is
  // built on top: a key matching a projected expression (a select item or
  // an earlier hidden key) sorts on that slot; any other key is projected as
  // a hidden slot "$ord<i>", trimmed again in step 13. ----
  std::vector<ExprPtr> sort_keys;
  bool added_hidden = false;
  {
    auto node = std::make_unique<PlanNode>(PlanOp::kProject);
    double proj_cost = rows * P.cpu_tuple;
    for (size_t i = 0; i < qb.select.size(); ++i) {
      proj_cost += rows * CountExpensiveCalls(*sel_exprs[i]) * P.expensive_call;
      node->output.push_back(
          ColumnSlot{"", qb.select[i].alias, sel_exprs[i]->type});
      node->projections.push_back(std::move(sel_exprs[i]));
    }
    for (size_t i = 0; i < order_exprs.size(); ++i) {
      ExprPtr key = std::move(order_exprs[i]);
      int match = -1;
      for (size_t j = 0; j < node->projections.size(); ++j) {
        if (ExprEquals(*node->projections[j], *key)) {
          match = static_cast<int>(j);
          break;
        }
      }
      if (match >= 0) {
        auto ref =
            MakeColumnRef("", node->output[static_cast<size_t>(match)].name);
        ref->type = key->type;
        key = std::move(ref);
      } else {
        std::string name = "$ord" + std::to_string(i);
        node->output.push_back(ColumnSlot{"", name, key->type});
        node->projections.push_back(std::move(key));
        key = MakeColumnRef("", name);
        added_hidden = true;
      }
      sort_keys.push_back(std::move(key));
    }
    cost += proj_cost;
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 10. DISTINCT. ----
  if (qb.distinct) {
    auto node = std::make_unique<PlanNode>(PlanOp::kDistinct);
    node->output = top->output;
    double ndv = 1;
    for (const auto& item : qb.select) {
      ndv *= EstimateNdv(*item.expr, ctx, rows);
    }
    double out_rows = std::min(rows, std::max(1.0, ndv));
    cost += rows * P.agg_row;
    rows = out_rows;
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 11. ORDER BY, on the keys resolved in step 9. ----
  if (!qb.order_by.empty()) {
    auto node = std::make_unique<PlanNode>(PlanOp::kSort);
    node->output = top->output;
    node->sort_keys = std::move(sort_keys);
    for (const auto& item : qb.order_by) {
      node->sort_ascending.push_back(item.ascending);
    }
    cost += P.SortCost(rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 12. Plain ROWNUM limit. ----
  if (qb.rownum_limit >= 0 && !lazy_limit_ok) {
    auto node = std::make_unique<PlanNode>(PlanOp::kLimit);
    node->limit = qb.rownum_limit;
    node->output = top->output;
    rows = std::min(static_cast<double>(qb.rownum_limit), rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 13. Trim hidden sort columns for clean block output. ----
  if (added_hidden) {
    auto node = std::make_unique<PlanNode>(PlanOp::kProject);
    for (const auto& item : qb.select) {
      auto ref = MakeColumnRef("", item.alias);
      ref->type = item.expr->type;
      node->output.push_back(ColumnSlot{"", item.alias, item.expr->type});
      node->projections.push_back(std::move(ref));
    }
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  if (cost > cutoff_) return Status::CostCutoff();

  // ---- Output stats for the enclosing block. ----
  BlockPlan out;
  out.out_stats.rows = rows;
  for (const auto& item : qb.select) {
    ColumnStats cs;
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColumnRef && e.corr_depth == 0) {
      const ColumnStats* base = ctx.FindColumn(e.table_alias, e.column_name);
      if (base != nullptr) {
        cs = *base;
        cs.ndv = std::min(cs.ndv, std::max(1.0, rows));
      } else {
        cs.ndv = std::max(1.0, rows / 10);
      }
    } else if (e.kind == ExprKind::kAggregate || e.kind == ExprKind::kWindow) {
      cs.ndv = std::max(1.0, rows * 0.9);
    } else {
      cs.ndv = std::max(1.0, rows / 10);
    }
    out.out_stats.columns[item.alias] = cs;
  }
  out.plan = std::move(top);
  return out;
}

}  // namespace cbqt
