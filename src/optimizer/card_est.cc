#include "optimizer/card_est.h"

#include <algorithm>
#include <cmath>

#include "sql/query_block.h"

namespace cbqt {

namespace {

constexpr double kDefaultEqSel = 0.01;
constexpr double kDefaultRangeSel = 1.0 / 3.0;
constexpr double kDefaultSel = 0.25;

double Clamp01(double s) { return std::min(1.0, std::max(1e-9, s)); }

/// True if `e` acts as a bound value in this block: a literal, a correlated
/// column ref, or any expression without local (depth-0) column refs.
bool IsBoundValue(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return e.corr_depth > 0;
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kFuncCall:
      for (const auto& c : e.children) {
        if (!IsBoundValue(*c)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// Fraction of a numeric column's [min,max] domain selected by `col op lit`.
double RangeFraction(const ColumnStats& cs, BinaryOp op, const Value& lit) {
  if (cs.min.is_null() || cs.max.is_null()) return kDefaultRangeSel;
  bool numeric = (cs.min.kind() == ValueKind::kInt64 ||
                  cs.min.kind() == ValueKind::kDouble) &&
                 (lit.kind() == ValueKind::kInt64 ||
                  lit.kind() == ValueKind::kDouble);
  if (!numeric) return kDefaultRangeSel;
  double lo = cs.min.NumericValue();
  double hi = cs.max.NumericValue();
  double v = lit.NumericValue();
  // Also catches a NaN maximum: NaN sorts above every number (NumericOrder).
  if (!(hi > lo)) return kDefaultRangeSel;
  double frac_below = (v - lo) / (hi - lo);
  frac_below = std::min(1.0, std::max(0.0, frac_below));
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return Clamp01(frac_below);
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return Clamp01(1.0 - frac_below);
    default:
      return kDefaultRangeSel;
  }
}

}  // namespace

void StatsContext::AddRelation(const std::string& alias, RelStats stats) {
  rels_[alias] = std::move(stats);
}

const RelStats* StatsContext::FindRelation(const std::string& alias) const {
  auto it = rels_.find(alias);
  if (it == rels_.end()) return nullptr;
  return &it->second;
}

const ColumnStats* StatsContext::FindColumn(const std::string& alias,
                                            const std::string& column) const {
  const RelStats* rel = FindRelation(alias);
  if (rel == nullptr) return nullptr;
  auto it = rel->columns.find(column);
  if (it == rel->columns.end()) return nullptr;
  return &it->second;
}

double ColumnComparisonSelectivity(BinaryOp op, const ColumnStats* cs,
                                   const Value* value) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNullSafeEq:
      if (cs != nullptr && cs->ndv > 0) {
        return Clamp01((1.0 - cs->null_frac) / cs->ndv);
      }
      return kDefaultEqSel;
    case BinaryOp::kNe: {
      // sel(<>) = 1 - sel(=), ignoring NULLs.
      double s_eq = cs != nullptr && cs->ndv > 0 ? 1.0 / cs->ndv
                                                 : kDefaultEqSel;
      return Clamp01(1.0 - s_eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (cs != nullptr && value != nullptr) {
        return RangeFraction(*cs, op, *value);
      }
      return kDefaultRangeSel;
    default:
      return kDefaultSel;
  }
}

double Selectivity(const Expr& e, const StatsContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.kind() == ValueKind::kBool) {
        return e.literal.AsBool() ? 1.0 : 0.0;
      }
      return 1.0;
    case ExprKind::kBinary: {
      const Expr& l = *e.children[0];
      const Expr& r = *e.children[1];
      switch (e.bop) {
        case BinaryOp::kAnd:
          return Clamp01(Selectivity(l, ctx) * Selectivity(r, ctx));
        case BinaryOp::kOr: {
          double sl = Selectivity(l, ctx);
          double sr = Selectivity(r, ctx);
          return Clamp01(sl + sr - sl * sr);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNullSafeEq: {
          // col = bound-value
          const Expr* col = nullptr;
          const Expr* other = nullptr;
          if (l.kind == ExprKind::kColumnRef && l.corr_depth == 0) {
            col = &l;
            other = &r;
          } else if (r.kind == ExprKind::kColumnRef && r.corr_depth == 0) {
            col = &r;
            other = &l;
          }
          if (col != nullptr && IsBoundValue(*other)) {
            return ColumnComparisonSelectivity(
                e.bop, ctx.FindColumn(col->table_alias, col->column_name),
                other->kind == ExprKind::kLiteral ? &other->literal
                                                  : nullptr);
          }
          // col = col (join-style equality evaluated as a filter)
          if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kColumnRef) {
            const ColumnStats* cl =
                ctx.FindColumn(l.table_alias, l.column_name);
            const ColumnStats* cr =
                ctx.FindColumn(r.table_alias, r.column_name);
            double ndv = 0;
            if (cl != nullptr) ndv = std::max(ndv, cl->ndv);
            if (cr != nullptr) ndv = std::max(ndv, cr->ndv);
            if (ndv > 0) return Clamp01(1.0 / ndv);
            return kDefaultEqSel;
          }
          return kDefaultEqSel;
        }
        case BinaryOp::kNe: {
          const Expr* col = nullptr;
          if (l.kind == ExprKind::kColumnRef && l.corr_depth == 0) col = &l;
          if (r.kind == ExprKind::kColumnRef && r.corr_depth == 0) col = &r;
          const ColumnStats* cs =
              col != nullptr
                  ? ctx.FindColumn(col->table_alias, col->column_name)
                  : nullptr;
          return ColumnComparisonSelectivity(BinaryOp::kNe, cs, nullptr);
        }
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          const Expr* col = nullptr;
          const Expr* other = nullptr;
          BinaryOp op = e.bop;
          if (l.kind == ExprKind::kColumnRef && l.corr_depth == 0) {
            col = &l;
            other = &r;
          } else if (r.kind == ExprKind::kColumnRef && r.corr_depth == 0) {
            col = &r;
            other = &l;
            op = SwapComparison(op);
          }
          if (col != nullptr && other->kind == ExprKind::kLiteral) {
            return ColumnComparisonSelectivity(
                op, ctx.FindColumn(col->table_alias, col->column_name),
                &other->literal);
          }
          return kDefaultRangeSel;
        }
        default:
          return kDefaultSel;
      }
    }
    case ExprKind::kUnary:
      switch (e.uop) {
        case UnaryOp::kNot:
          return Clamp01(1.0 - Selectivity(*e.children[0], ctx));
        case UnaryOp::kLnnvl:
          // LNNVL(p) = p IS FALSE OR UNKNOWN.
          return Clamp01(1.0 - Selectivity(*e.children[0], ctx));
        case UnaryOp::kIsNull: {
          const Expr& c = *e.children[0];
          if (c.kind == ExprKind::kColumnRef && c.corr_depth == 0) {
            const ColumnStats* cs =
                ctx.FindColumn(c.table_alias, c.column_name);
            if (cs != nullptr) return Clamp01(std::max(cs->null_frac, 1e-4));
          }
          return 0.05;
        }
        case UnaryOp::kIsNotNull: {
          const Expr& c = *e.children[0];
          if (c.kind == ExprKind::kColumnRef && c.corr_depth == 0) {
            const ColumnStats* cs =
                ctx.FindColumn(c.table_alias, c.column_name);
            if (cs != nullptr) return Clamp01(1.0 - cs->null_frac);
          }
          return 0.95;
        }
        default:
          return kDefaultSel;
      }
    case ExprKind::kSubquery:
      // TIS predicates: EXISTS/IN-style default.
      return 0.5;
    case ExprKind::kFuncCall:
      return 0.5;
    default:
      return kDefaultSel;
  }
}

double EstimateNdv(const Expr& e, const StatsContext& ctx,
                   double current_rows) {
  if (e.kind == ExprKind::kColumnRef && e.corr_depth == 0) {
    const ColumnStats* cs = ctx.FindColumn(e.table_alias, e.column_name);
    if (cs != nullptr && cs->ndv > 0) {
      return std::min(cs->ndv, std::max(1.0, current_rows));
    }
  }
  if (e.kind == ExprKind::kLiteral) return 1.0;
  return std::max(1.0, current_rows / 10.0);
}

double SemiJoinSelectivity(const Expr& cond, const StatsContext& ctx,
                           const std::string& right_alias) {
  if (cond.kind != ExprKind::kBinary || cond.bop != BinaryOp::kEq) return 0.5;
  const Expr& l = *cond.children[0];
  const Expr& r = *cond.children[1];
  if (l.kind != ExprKind::kColumnRef || r.kind != ExprKind::kColumnRef) {
    return 0.5;
  }
  const Expr* left_col = &l;
  const Expr* right_col = &r;
  if (l.table_alias == right_alias) std::swap(left_col, right_col);
  const ColumnStats* cl =
      ctx.FindColumn(left_col->table_alias, left_col->column_name);
  const ColumnStats* cr =
      ctx.FindColumn(right_col->table_alias, right_col->column_name);
  if (cl == nullptr || cr == nullptr || cl->ndv <= 0) return 0.5;
  return std::min(1.0, cr->ndv / cl->ndv);
}

int SelectivityBand(double sel) {
  sel = Clamp01(sel);
  // log10(sel) in [-9, 0]; half-decade buckets -> bands 0..18.
  return static_cast<int>(std::floor(-std::log10(sel) * 2.0 + 1e-9));
}

namespace {

/// Shared walk state of BuildParamBandRecipes.
struct BandWalk {
  const Catalog* catalog;
  const StatsRegistry* stats;
  std::vector<ParamBandRecipe>* recipes;
  std::vector<Value>* values;  ///< optional: each slot's literal value
};

/// Statistics of `column` in the base table of `ref`, or nullptr.
const ColumnStats* TableColumnStats(const TableRef& ref,
                                    const std::string& column,
                                    const BandWalk& walk) {
  const TableDef* def = walk.catalog->FindTable(ref.table_name);
  if (def == nullptr) return nullptr;
  const TableStats* ts = walk.stats->Find(def->name);
  if (ts == nullptr) return nullptr;
  // Last match, as in a name-keyed map filled in column order.
  for (size_t i = std::min(def->columns.size(), ts->columns.size()); i > 0;
       --i) {
    if (def->columns[i - 1].name == column) return &ts->columns[i - 1];
  }
  return nullptr;
}

/// The column statistics a StatsContext over `qb`'s base tables would
/// resolve `alias`.`column` to, without building one. The tree may be
/// unbound (bands are computed straight off the parse, before the optimizer
/// re-binds), so an unqualified column resolves to the first FROM table that
/// has statistics for it: the binder's answer for unambiguous names, and
/// merely a heuristic band for ambiguous ones. A qualified one resolves
/// through the last base-table entry of that alias.
const ColumnStats* ResolveColumnStats(const QueryBlock& qb,
                                      const std::string& alias,
                                      const std::string& column,
                                      const BandWalk& walk) {
  const TableRef* match = nullptr;
  for (const auto& ref : qb.from) {
    if (ref.table_name.empty()) continue;
    if (alias.empty()) {
      if (const ColumnStats* cs = TableColumnStats(ref, column, walk)) {
        return cs;
      }
      continue;
    }
    if (walk.catalog->FindTable(ref.table_name) == nullptr) continue;
    if ((ref.alias.empty() ? ref.table_name : ref.alias) == alias) {
      match = &ref;
    }
  }
  return match != nullptr ? TableColumnStats(*match, column, walk) : nullptr;
}

/// True if `e` is `colref <cmp> literal` (either order) where the literal is
/// a parameter slot; the colref must be local to the block.
bool ParamComparison(const Expr& e, const Expr** col, const Expr** lit) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kNullSafeEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind == ExprKind::kColumnRef && l.corr_depth == 0 &&
      r.kind == ExprKind::kLiteral && r.param_index >= 0) {
    *col = &l;
    *lit = &r;
    return true;
  }
  if (r.kind == ExprKind::kColumnRef && r.corr_depth == 0 &&
      l.kind == ExprKind::kLiteral && l.param_index >= 0) {
    *col = &r;
    *lit = &l;
    return true;
  }
  return false;
}

void WalkBlockForBands(const QueryBlock& qb, const BandWalk& walk);

/// Walks `e`, an expression owned by block `qb`.
void WalkExprForBands(const Expr& e, const QueryBlock& qb,
                      const BandWalk& walk) {
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  if (ParamComparison(e, &col, &lit)) {
    size_t slot = static_cast<size_t>(lit->param_index);
    if (slot < walk.recipes->size()) {
      // Exactly what Selectivity(e, ctx) would resolve: the operator with
      // the column on the left, and the column's statistics.
      ParamBandRecipe& recipe = (*walk.recipes)[slot];
      recipe.band_sensitive = true;
      recipe.op = col == e.children[0].get() ? e.bop : SwapComparison(e.bop);
      const ColumnStats* cs =
          ResolveColumnStats(qb, col->table_alias, col->column_name, walk);
      recipe.column.reset();
      if (cs != nullptr) recipe.column = *cs;
      if (walk.values != nullptr) (*walk.values)[slot] = lit->literal;
    }
  }
  for (const auto& c : e.children) {
    if (c != nullptr) WalkExprForBands(*c, qb, walk);
  }
  for (const auto& c : e.partition_by) {
    if (c != nullptr) WalkExprForBands(*c, qb, walk);
  }
  for (const auto& c : e.win_order_by) {
    if (c != nullptr) WalkExprForBands(*c, qb, walk);
  }
  if (e.subquery != nullptr) WalkBlockForBands(*e.subquery, walk);
}

void WalkBlockForBands(const QueryBlock& qb, const BandWalk& walk) {
  for (const auto& b : qb.branches) {
    if (b != nullptr) WalkBlockForBands(*b, walk);
  }
  auto walk_vec = [&](const std::vector<ExprPtr>& exprs) {
    for (const auto& e : exprs) {
      if (e != nullptr) WalkExprForBands(*e, qb, walk);
    }
  };
  for (const auto& item : qb.select) {
    if (item.expr != nullptr) WalkExprForBands(*item.expr, qb, walk);
  }
  for (const auto& ref : qb.from) {
    walk_vec(ref.join_conds);
    if (ref.derived != nullptr) WalkBlockForBands(*ref.derived, walk);
  }
  walk_vec(qb.where);
  walk_vec(qb.group_by);
  walk_vec(qb.having);
  for (const auto& item : qb.order_by) {
    if (item.expr != nullptr) WalkExprForBands(*item.expr, qb, walk);
  }
}

std::vector<ParamBandRecipe> BuildRecipes(const QueryBlock& qb,
                                          size_t num_params,
                                          const Catalog& catalog,
                                          const StatsRegistry& stats,
                                          std::vector<Value>* values) {
  std::vector<ParamBandRecipe> recipes(num_params);
  if (num_params == 0) return recipes;
  BandWalk walk{&catalog, &stats, &recipes, values};
  WalkBlockForBands(qb, walk);
  return recipes;
}

}  // namespace

std::vector<ParamBandRecipe> BuildParamBandRecipes(const QueryBlock& qb,
                                                   size_t num_params,
                                                   const Catalog& catalog,
                                                   const StatsRegistry& stats) {
  return BuildRecipes(qb, num_params, catalog, stats, nullptr);
}

std::vector<int> EvaluateParamBands(
    const std::vector<ParamBandRecipe>& recipes,
    const std::vector<Value>& params) {
  std::vector<int> bands(recipes.size(), -1);
  for (size_t i = 0; i < recipes.size() && i < params.size(); ++i) {
    const ParamBandRecipe& r = recipes[i];
    if (!r.band_sensitive) continue;
    bands[i] = SelectivityBand(ColumnComparisonSelectivity(
        r.op, r.column ? &*r.column : nullptr, &params[i]));
  }
  return bands;
}

std::vector<int> ComputeParamBands(const QueryBlock& qb, size_t num_params,
                                   const Catalog& catalog,
                                   const StatsRegistry& stats) {
  std::vector<Value> values(num_params);
  std::vector<ParamBandRecipe> recipes =
      BuildRecipes(qb, num_params, catalog, stats, &values);
  return EvaluateParamBands(recipes, values);
}

}  // namespace cbqt
