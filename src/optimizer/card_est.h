#ifndef CBQT_OPTIMIZER_CARD_EST_H_
#define CBQT_OPTIMIZER_CARD_EST_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "sql/expr.h"

namespace cbqt {
struct QueryBlock;
}

namespace cbqt {

/// Statistics of one relation (base table or derived view output) as seen by
/// the planner of a block.
struct RelStats {
  double rows = 0;
  std::map<std::string, ColumnStats> columns;  ///< by column name
};

/// Per-block estimation context: alias -> RelStats for every FROM entry.
/// Column refs with corr_depth > 0 (or whose alias is absent) are treated as
/// bound constants, which is exactly the TIS view of a correlated predicate.
class StatsContext {
 public:
  void AddRelation(const std::string& alias, RelStats stats);

  const RelStats* FindRelation(const std::string& alias) const;

  /// Column stats of `alias`.`column`, or nullptr.
  const ColumnStats* FindColumn(const std::string& alias,
                                const std::string& column) const;

 private:
  std::map<std::string, RelStats> rels_;
};

/// Estimated fraction of rows satisfying the predicate `e`, given `ctx`.
/// Standard System-R-style rules: 1/NDV for equalities, min/max
/// interpolation for ranges, independence for AND, inclusion-exclusion for
/// OR, null fractions for IS [NOT] NULL; defaults where stats are missing.
double Selectivity(const Expr& e, const StatsContext& ctx);

/// Selectivity of `column <op> value` given the column's statistics `cs`
/// (nullptr: none known). `op` is a comparison oriented column-first;
/// `value` is the compared literal, or nullptr when the other side is a
/// bound expression that is not a literal. Selectivity() prices every
/// column-vs-bound-value comparison through this, and so do the plan
/// cache's band recipes (EvaluateParamBands).
double ColumnComparisonSelectivity(BinaryOp op, const ColumnStats* cs,
                                   const Value* value);

/// Estimated number of distinct values of `e` over `current_rows` input
/// rows: column NDV (capped) for refs, heuristic fractions otherwise.
double EstimateNdv(const Expr& e, const StatsContext& ctx,
                   double current_rows);

/// For an equi condition `left_col = right_col`, the fraction of *left*
/// rows having at least one match on the right (semijoin selectivity).
/// `right_alias` identifies which side of the condition is the right input.
double SemiJoinSelectivity(const Expr& cond, const StatsContext& ctx,
                           const std::string& right_alias);

/// Half-decade log10 bucket of a selectivity: band 0 covers [10^-0.5, 1],
/// band 1 covers [10^-1, 10^-0.5), and so on down to the 1e-9 clamp. Two
/// literals whose predicates land in the same band are "close enough" for a
/// cached plan to be reused; a band change is the cardinality-aware
/// re-binding trigger on the plan-cache hit path.
int SelectivityBand(double sel);

/// What one parameter slot's selectivity band depends on besides the slot's
/// value: the comparison the slot's literal sits in (operator oriented
/// column-first) and the statistics of the column it compares, resolved as a
/// StatsContext over the block's base tables would resolve it. Slots in no
/// such comparison are band-insensitive.
struct ParamBandRecipe {
  bool band_sensitive = false;
  BinaryOp op = BinaryOp::kEq;
  std::optional<ColumnStats> column;  ///< empty: no statistics known
};

/// The per-slot recipes of ComputeParamBands for `qb` (see there), built in
/// one walk of the tree. They depend on the tree's structure and the
/// statistics, never on the slots' values, so a plan-cache cursor record
/// keeps them and re-evaluates them for every statement of its shape.
std::vector<ParamBandRecipe> BuildParamBandRecipes(const QueryBlock& qb,
                                                   size_t num_params,
                                                   const Catalog& catalog,
                                                   const StatsRegistry& stats);

/// Band of each slot at `params`: SelectivityBand of the recipe's comparison
/// priced at the slot's value, or -1 for band-insensitive slots.
std::vector<int> EvaluateParamBands(
    const std::vector<ParamBandRecipe>& recipes,
    const std::vector<Value>& params);

/// Per-parameter selectivity bands of a parameterized statement, computed on
/// the (possibly unbound) parsed tree: for every simple comparison
/// `column <op> $k` found anywhere in the block tree, slot k records
/// SelectivityBand of that predicate under the base-table statistics.
/// Slots whose parameter never appears in such a comparison stay -1
/// (band-insensitive: any value matches). Equality predicates cost 1/NDV
/// regardless of the value, so bands move mainly on range predicates —
/// exactly the ones where a literal at the other end of the domain deserves
/// a different plan. Equal to EvaluateParamBands(BuildParamBandRecipes(..),
/// the slots' literal values).
std::vector<int> ComputeParamBands(const QueryBlock& qb, size_t num_params,
                                   const Catalog& catalog,
                                   const StatsRegistry& stats);

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_CARD_EST_H_
