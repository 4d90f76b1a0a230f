#include "transform/subquery_unnest.h"

#include <functional>

#include "transform/transform_util.h"

namespace cbqt {

bool ProvablyNonNull(const QueryBlock& root, const Expr& e) {
  if (e.kind == ExprKind::kLiteral) return !e.literal.is_null();
  if (e.kind != ExprKind::kColumnRef) return false;
  if (e.column_name == "rowid") return true;
  bool non_null = false;
  VisitAllBlocksConst(&root, [&](const QueryBlock* b) {
    int idx = b->FindFrom(e.table_alias);
    if (idx < 0) return;
    const TableRef& tr = b->from[static_cast<size_t>(idx)];
    if (tr.IsBaseTable() && tr.table_def != nullptr &&
        tr.table_def->IsNotNull(e.column_name)) {
      non_null = true;
    }
  });
  return non_null;
}

namespace {

// True when NOT IN / ALL conjunct `w` over subquery `s` must become a
// null-aware antijoin: some connecting operand may be NULL.
bool NeedsNullAware(const QueryBlock& root, const Expr& w,
                    const QueryBlock& s) {
  if (w.subkind != SubqueryKind::kNotIn && w.subkind != SubqueryKind::kAllCmp) {
    return false;
  }
  for (size_t i = 0; i < w.children.size(); ++i) {
    if (!ProvablyNonNull(root, *w.children[i])) return true;
    if (i < s.select.size() && !ProvablyNonNull(s, *s.select[i].expr)) {
      return true;
    }
  }
  return false;
}

// The null-aware antijoin is unnested only in Oracle's single-column form:
// one connecting column and no correlation, so a NULL anywhere in the
// subquery result rejects every outer row (the verdict the hash join
// decides). A correlated or multi-column one needs per-row three-valued
// comparison and stays TIS.
bool NullAwareUnnestable(const QueryBlock& root, const Expr& w,
                         const QueryBlock& s) {
  if (!NeedsNullAware(root, w, s)) return true;
  return w.children.size() == 1 && !IsCorrelated(s);
}

// The join an unnested EXISTS / IN / ANY (semi), NOT EXISTS (anti) or
// NOT IN / ALL (anti, or null-aware anti) subquery becomes. Decided while
// `s` still holds its FROM list, which nullability checks resolve its
// select items against.
JoinKind UnnestJoinKind(const QueryBlock& root, const Expr& w,
                        const QueryBlock& s) {
  switch (w.subkind) {
    case SubqueryKind::kNotExists:
      return JoinKind::kAnti;
    case SubqueryKind::kNotIn:
    case SubqueryKind::kAllCmp:
      return NeedsNullAware(root, w, s) ? JoinKind::kAntiNA : JoinKind::kAnti;
    default:
      return JoinKind::kSemi;
  }
}

// ---------------------------------------------------------------------------
// Heuristic merge unnesting
// ---------------------------------------------------------------------------

bool MergeUnnestable(const QueryBlock& root, const QueryBlock& parent,
                     const Expr& w) {
  if (w.kind != ExprKind::kSubquery) return false;
  if (w.subkind == SubqueryKind::kScalar) return false;
  const QueryBlock& s = *w.subquery;
  if (s.IsSetOp() || s.IsAggregating() || s.rownum_limit >= 0) return false;
  if (s.from.size() != 1) return false;  // multi-table: cost-based path
  if (s.from[0].join != JoinKind::kInner || s.from[0].lateral) return false;
  for (const auto& item : s.select) {
    if (ContainsWindow(*item.expr) || ContainsSubquery(*item.expr) ||
        ContainsRownum(*item.expr)) {
      return false;
    }
  }
  for (const auto& c : s.where) {
    if (ContainsRownum(*c)) return false;
    if (ContainsSubquery(*c)) return false;  // nested subqueries stay TIS
  }
  if (!CorrelatedOnlyToParent(s, parent)) return false;
  return NullAwareUnnestable(root, w, s);
}

// Performs the merge of subquery conjunct `w` into `parent`.
void MergeUnnest(TransformContext& ctx, QueryBlock* parent, ExprPtr w) {
  QueryBlock& s = *w->subquery;
  std::set<std::string> inner;
  CollectDefinedAliases(s, &inner);

  const JoinKind kind = UnnestJoinKind(*ctx.root, *w, s);

  TableRef entry = std::move(s.from[0]);
  std::vector<ExprPtr> local_conds;
  std::vector<ExprPtr> join_conds;
  for (auto& c : s.where) {
    bool touches_outer = false;
    VisitExprDeepConst(c.get(), [&](const Expr* x) {
      if (x->kind == ExprKind::kColumnRef && !x->table_alias.empty() &&
          inner.count(x->table_alias) == 0) {
        touches_outer = true;
      }
    });
    if (touches_outer) {
      join_conds.push_back(std::move(c));
    } else {
      local_conds.push_back(std::move(c));
    }
  }

  // Connecting conditions from the subquery kind.
  switch (w->subkind) {
    case SubqueryKind::kIn:
    case SubqueryKind::kNotIn:
      for (size_t i = 0; i < w->children.size(); ++i) {
        join_conds.push_back(MakeBinary(BinaryOp::kEq,
                                        std::move(w->children[i]),
                                        std::move(s.select[i].expr)));
      }
      break;
    case SubqueryKind::kAnyCmp:
      join_conds.push_back(MakeBinary(w->sub_cmp, std::move(w->children[0]),
                                      std::move(s.select[0].expr)));
      break;
    case SubqueryKind::kAllCmp:
      // ALL becomes an antijoin on the *violating* rows.
      join_conds.push_back(MakeBinary(NegateComparison(w->sub_cmp),
                                      std::move(w->children[0]),
                                      std::move(s.select[0].expr)));
      break;
    default:
      break;
  }

  entry.join = kind;
  entry.join_conds = std::move(join_conds);
  // Local predicates on the (semi/anti-joined) table filter its rows before
  // the join; in the declarative tree they are plain WHERE conjuncts on the
  // moved alias, which the planner applies at the scan.
  for (auto& c : local_conds) parent->where.push_back(std::move(c));
  parent->from.push_back(std::move(entry));
}

// ---------------------------------------------------------------------------
// Cost-based view-generating unnesting
// ---------------------------------------------------------------------------

// One candidate: a WHERE conjunct of `block` holding an unnestable subquery.
// Discovery is read-only (blocks may be COW-shared with the base tree);
// `path` addresses the block positionally so Apply can thaw exactly the
// blocks whose bits are set.
struct ViewUnnestCandidate {
  const QueryBlock* block;
  std::vector<BlockStep> path;  // root -> block
  size_t conjunct;   // index into block->where
  bool aggregate;    // true: scalar aggregate comparison; false: multi-table
};

bool AggregateUnnestable(const QueryBlock& parent, const Expr& w) {
  // Shape: expr cmp (scalar subquery) — either side.
  if (w.kind != ExprKind::kBinary || !IsComparisonOp(w.bop)) return false;
  const Expr* sub = nullptr;
  const Expr* other = nullptr;
  if (w.children[0]->kind == ExprKind::kSubquery) {
    sub = w.children[0].get();
    other = w.children[1].get();
  } else if (w.children[1]->kind == ExprKind::kSubquery) {
    sub = w.children[1].get();
    other = w.children[0].get();
  }
  if (sub == nullptr || sub->subkind != SubqueryKind::kScalar) return false;
  if (ContainsSubquery(*other)) return false;
  const QueryBlock& s = *sub->subquery;
  if (s.IsSetOp() || s.distinct || !s.group_by.empty() || !s.having.empty() ||
      s.rownum_limit >= 0) {
    return false;
  }
  if (s.select.size() != 1) return false;
  const Expr& agg = *s.select[0].expr;
  if (agg.kind != ExprKind::kAggregate) return false;
  // COUNT over an empty group yields 0 (not NULL): a plain join would
  // lose the row — classic COUNT bug; keep TIS for those.
  if (agg.agg == AggFunc::kCount || agg.agg == AggFunc::kCountStar) {
    return false;
  }
  if (!IsCorrelated(s)) return false;
  if (!CorrelatedOnlyToParent(s, parent)) return false;
  for (const auto& tr : s.from) {
    if (tr.join != JoinKind::kInner || tr.lateral) return false;
  }
  for (const auto& c : s.where) {
    if (ContainsSubquery(*c) || ContainsRownum(*c)) return false;
  }
  // The correlated predicates must be extractable equalities; validate on a
  // clone so failure leaves the tree intact.
  auto probe = s.Clone();
  std::vector<CorrelatedEq> eqs;
  std::vector<ExprPtr> rest;
  return ExtractCorrelatedEqualities(probe.get(), parent, &eqs, &rest);
}

bool MultiTableUnnestable(const QueryBlock& root, const QueryBlock& parent,
                          const Expr& w) {
  if (w.kind != ExprKind::kSubquery) return false;
  if (w.subkind == SubqueryKind::kScalar) return false;
  const QueryBlock& s = *w.subquery;
  if (s.IsSetOp() || s.IsAggregating() || s.rownum_limit >= 0) return false;
  if (s.from.size() < 2) return false;  // single-table handled by merging
  for (const auto& tr : s.from) {
    if (tr.join != JoinKind::kInner || tr.lateral) return false;
  }
  for (const auto& item : s.select) {
    if (ContainsWindow(*item.expr) || ContainsSubquery(*item.expr) ||
        ContainsRownum(*item.expr)) {
      return false;
    }
  }
  for (const auto& c : s.where) {
    if (ContainsSubquery(*c) || ContainsRownum(*c)) return false;
  }
  if (!CorrelatedOnlyToParent(s, parent)) return false;
  if (!NullAwareUnnestable(root, w, s)) return false;
  auto probe = s.Clone();
  std::vector<CorrelatedEq> eqs;
  std::vector<ExprPtr> rest;
  return ExtractCorrelatedEqualities(probe.get(), parent, &eqs, &rest);
}

std::vector<ViewUnnestCandidate> FindViewUnnestCandidates(
    const QueryBlock* root) {
  std::vector<ViewUnnestCandidate> out;
  VisitAllBlocksWithPath(
      root, [&](const QueryBlock* b, const std::vector<BlockStep>& path) {
        if (b->IsSetOp()) return;
        for (size_t i = 0; i < b->where.size(); ++i) {
          const Expr& w = *b->where[i];
          if (AggregateUnnestable(*b, w)) {
            out.push_back(ViewUnnestCandidate{b, path, i, true});
          } else if (MultiTableUnnestable(*root, *b, w)) {
            out.push_back(ViewUnnestCandidate{b, path, i, false});
          }
        }
      });
  return out;
}

// Q1 -> Q10: unnest a correlated scalar aggregate subquery into an inline
// GROUP BY view joined on the correlation columns.
Status ApplyAggregateUnnest(TransformContext& ctx, QueryBlock* block,
                            size_t conjunct_idx, size_t cand_index) {
  ExprPtr w = std::move(block->where[conjunct_idx]);
  block->where.erase(block->where.begin() + static_cast<long>(conjunct_idx));

  bool sub_is_left = w->children[0]->kind == ExprKind::kSubquery;
  ExprPtr sub_expr = std::move(w->children[sub_is_left ? 0 : 1]);
  ExprPtr other = std::move(w->children[sub_is_left ? 1 : 0]);
  QueryBlock& s = *sub_expr->subquery;

  std::vector<CorrelatedEq> eqs;
  std::vector<ExprPtr> rest;
  if (!ExtractCorrelatedEqualities(&s, *block, &eqs, &rest)) {
    return Status::Internal("aggregate unnest candidate became illegal");
  }

  // The alias is keyed by the candidate's (state-independent) discovery
  // index: a candidate's view is named identically in every state that
  // unnests it, which is what lets block annotations and join-order memo
  // fingerprints match across states.
  std::string valias =
      GlobalUniqueAlias(*ctx.root, "vw_sq" + std::to_string(cand_index));
  auto view = std::make_unique<QueryBlock>();
  view->qb_name = valias;
  view->from = std::move(s.from);
  view->where = std::move(rest);
  SelectItem agg_item;
  agg_item.expr = std::move(s.select[0].expr);
  agg_item.alias = "agg_val";
  view->select.push_back(std::move(agg_item));
  for (size_t k = 0; k < eqs.size(); ++k) {
    view->group_by.push_back(eqs[k].local->Clone());
    SelectItem key_item;
    key_item.expr = std::move(eqs[k].local);
    key_item.alias = "c" + std::to_string(k);
    view->select.push_back(std::move(key_item));
  }

  // Rebuild the comparison against the view's aggregate output, preserving
  // operand order.
  ExprPtr agg_ref = MakeColumnRef(valias, "agg_val");
  ExprPtr new_cmp =
      sub_is_left
          ? MakeBinary(w->bop, std::move(agg_ref), std::move(other))
          : MakeBinary(w->bop, std::move(other), std::move(agg_ref));
  block->where.push_back(std::move(new_cmp));
  for (size_t k = 0; k < eqs.size(); ++k) {
    block->where.push_back(MakeBinary(BinaryOp::kEq, std::move(eqs[k].outer),
                                      MakeColumnRef(valias,
                                                    "c" + std::to_string(k))));
  }

  TableRef entry;
  entry.alias = valias;
  entry.derived = std::move(view);
  entry.join = JoinKind::kInner;
  block->from.push_back(std::move(entry));
  return Status::OK();
}

// Multi-table EXISTS / IN and negations: unnest into a semi-/anti-joined
// inline view (paper §2.2.1 first paragraph).
Status ApplyMultiTableUnnest(TransformContext& ctx, QueryBlock* block,
                             size_t conjunct_idx, size_t cand_index) {
  ExprPtr w = std::move(block->where[conjunct_idx]);
  block->where.erase(block->where.begin() + static_cast<long>(conjunct_idx));
  QueryBlock& s = *w->subquery;

  std::vector<CorrelatedEq> eqs;
  std::vector<ExprPtr> rest;
  if (!ExtractCorrelatedEqualities(&s, *block, &eqs, &rest)) {
    return Status::Internal("multi-table unnest candidate became illegal");
  }
  const JoinKind kind = UnnestJoinKind(*ctx.root, *w, s);

  // The alias is keyed by the candidate's (state-independent) discovery
  // index: a candidate's view is named identically in every state that
  // unnests it, which is what lets block annotations and join-order memo
  // fingerprints match across states.
  std::string valias =
      GlobalUniqueAlias(*ctx.root, "vw_sq" + std::to_string(cand_index));
  auto view = std::make_unique<QueryBlock>();
  view->qb_name = valias;
  view->from = std::move(s.from);
  view->where = std::move(rest);

  std::vector<ExprPtr> join_conds;
  for (size_t k = 0; k < eqs.size(); ++k) {
    SelectItem item;
    item.expr = std::move(eqs[k].local);
    item.alias = "c" + std::to_string(k);
    view->select.push_back(std::move(item));
    join_conds.push_back(MakeBinary(
        BinaryOp::kEq, std::move(eqs[k].outer),
        MakeColumnRef(valias, "c" + std::to_string(k))));
  }

  // IN / ANY / ALL connecting conditions join the outer operands with the
  // subquery select items, exported through the view.
  if (w->subkind == SubqueryKind::kIn || w->subkind == SubqueryKind::kNotIn) {
    for (size_t i = 0; i < w->children.size(); ++i) {
      std::string alias = "s" + std::to_string(i);
      SelectItem item;
      item.expr = std::move(s.select[i].expr);
      item.alias = alias;
      view->select.push_back(std::move(item));
      join_conds.push_back(MakeBinary(BinaryOp::kEq, std::move(w->children[i]),
                                      MakeColumnRef(valias, alias)));
    }
  } else if (w->subkind == SubqueryKind::kAnyCmp ||
             w->subkind == SubqueryKind::kAllCmp) {
    SelectItem item;
    item.expr = std::move(s.select[0].expr);
    item.alias = "s0";
    view->select.push_back(std::move(item));
    BinaryOp op = w->subkind == SubqueryKind::kAnyCmp
                      ? w->sub_cmp
                      : NegateComparison(w->sub_cmp);
    join_conds.push_back(MakeBinary(op, std::move(w->children[0]),
                                    MakeColumnRef(valias, "s0")));
  } else if (view->select.empty()) {
    // EXISTS with no correlation columns: export a constant.
    SelectItem item;
    item.expr = MakeLiteral(Value::Int(1));
    item.alias = "c0";
    view->select.push_back(std::move(item));
  }

  TableRef entry;
  entry.alias = valias;
  entry.derived = std::move(view);
  entry.join = kind;
  entry.join_conds = std::move(join_conds);
  block->from.push_back(std::move(entry));
  return Status::OK();
}

}  // namespace

Result<bool> UnnestSubqueriesByMerge(TransformContext& ctx) {
  bool changed = false;
  for (int guard = 0; guard < 64; ++guard) {
    QueryBlock* target = nullptr;
    size_t conjunct = 0;
    VisitAllBlocks(ctx.root, [&](QueryBlock* b) {
      if (target != nullptr || b->IsSetOp()) return;
      for (size_t i = 0; i < b->where.size(); ++i) {
        if (MergeUnnestable(*ctx.root, *b, *b->where[i])) {
          target = b;
          conjunct = i;
          return;
        }
      }
    });
    if (target == nullptr) break;
    ExprPtr w = std::move(target->where[conjunct]);
    target->where.erase(target->where.begin() + static_cast<long>(conjunct));
    MergeUnnest(ctx, target, std::move(w));
    changed = true;
  }
  return changed;
}

int SubqueryUnnestViewTransformation::CountObjects(
    const TransformContext& ctx) const {
  return static_cast<int>(FindViewUnnestCandidates(ctx.root).size());
}

Status SubqueryUnnestViewTransformation::Apply(
    TransformContext& ctx, const std::vector<bool>& bits) const {
  auto candidates = FindViewUnnestCandidates(ctx.root);
  if (candidates.size() != bits.size()) {
    return Status::Internal("unnest object count changed between "
                            "enumeration and application");
  }
  // Apply in reverse enumeration order: unnesting removes its conjunct
  // (shifting later conjunct indices of the same block) and appends new
  // non-candidate conjuncts at the end, so earlier candidates' coordinates
  // stay valid. Candidate subqueries never nest inside one another (the
  // legality checks reject subqueries whose WHERE contains subqueries).
  // Discovery was read-only; thaw each chosen candidate's block by path so
  // untouched blocks stay shared with the base tree. Mutating an earlier
  // (pre-order) block never invalidates a later candidate's path: the
  // removed conjunct only shifts subquery positions *within* its own block,
  // and remaining candidates are never in an applied block's subtree.
  for (size_t i = candidates.size(); i-- > 0;) {
    if (!bits[i]) continue;
    const ViewUnnestCandidate& cand = candidates[i];
    QueryBlock* block = ThawBlockPath(ctx.root, cand.path);
    if (block == nullptr) {
      return Status::Internal("unnest candidate path no longer resolves");
    }
    Status st = cand.aggregate
                    ? ApplyAggregateUnnest(ctx, block, cand.conjunct, i)
                    : ApplyMultiTableUnnest(ctx, block, cand.conjunct, i);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

bool SubqueryUnnestViewTransformation::HeuristicDecision(
    const TransformContext& ctx, int index) const {
  auto candidates = FindViewUnnestCandidates(ctx.root);
  if (index < 0 || index >= static_cast<int>(candidates.size())) return false;
  const ViewUnnestCandidate& cand = candidates[static_cast<size_t>(index)];
  const QueryBlock* b = cand.block;
  // Pre-10g rule (paper §2.2.1): if the outer query has filter predicates
  // and the local correlation columns are indexed, do not unnest.
  bool outer_has_filters = false;
  for (const auto& w : b->where) {
    std::string alias;
    if (!ContainsSubquery(*w) && IsSingleTableFilter(*w, &alias)) {
      outer_has_filters = true;
    }
  }
  if (!outer_has_filters) return true;
  // Inspect the subquery's correlated equalities' local columns.
  const Expr& w = *b->where[cand.conjunct];
  const QueryBlock* s = nullptr;
  if (w.kind == ExprKind::kSubquery) {
    s = w.subquery.get();
  } else {
    for (const auto& c : w.children) {
      if (c->kind == ExprKind::kSubquery) s = c->subquery.get();
    }
  }
  if (s == nullptr) return true;
  auto probe = s->Clone();
  std::vector<CorrelatedEq> eqs;
  std::vector<ExprPtr> rest;
  if (!ExtractCorrelatedEqualities(probe.get(), *b, &eqs, &rest)) return true;
  if (eqs.empty()) return true;
  for (const auto& eq : eqs) {
    if (eq.local->kind != ExprKind::kColumnRef) return true;
    int idx = s->FindFrom(eq.local->table_alias);
    if (idx < 0) return true;
    const TableRef& tr = s->from[static_cast<size_t>(idx)];
    if (!tr.IsBaseTable() || tr.table_def == nullptr) return true;
    if (tr.table_def->FindIndexCovering({eq.local->column_name}).empty()) {
      return true;  // no index on some local column: unnest
    }
  }
  return false;  // indexed correlation + outer filters: keep TIS
}

}  // namespace cbqt
