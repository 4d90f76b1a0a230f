#ifndef CBQT_OPTIMIZER_PLANNER_H_
#define CBQT_OPTIMIZER_PLANNER_H_

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cbqt/annotation_cache.h"
#include "common/budget.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "optimizer/card_est.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/plan.h"
#include "sql/query_block.h"
#include "storage/database.h"

namespace cbqt {

/// A planned query block: physical plan plus output statistics (used when
/// the block is a derived table of some outer block). With an annotation
/// cache the plan is borrowed from the published cache entry; callers that
/// splice it into a parent take it with `plan.Take()`.
struct BlockPlan {
  PlanFragment plan;
  RelStats out_stats;
};

/// The traditional physical optimizer: plans one (bound) query block tree
/// bottom-up — access paths, join order (DP with partial-order constraints,
/// greedy fallback), join methods (hash / merge / nested-loop / index
/// nested-loop, with semi/anti/outer/null-aware variants), aggregation,
/// windows, set operations, ROWNUM limits, and TIS subquery-filter costing
/// with correlation-value caching.
///
/// The CBQT framework invokes this as its "cost estimation technique"
/// (paper §3.1, Figure 1): each transformation state is deep-copied and
/// handed here for costing. `cost_cutoff` implements §3.4.1; `cache`
/// implements §3.4.2 (sub-tree cost-annotation reuse); `budget` is the
/// optimization resource governor, polled once per planned block — when the
/// deadline trips mid-plan the planner aborts with kBudgetExhausted and the
/// caller degrades to its best-so-far answer.
class Planner {
 public:
  Planner(const Database& db, const CostParams& params,
          AnnotationCache* cache = nullptr,
          double cost_cutoff = std::numeric_limits<double>::infinity(),
          BudgetTracker* budget = nullptr,
          AnnotationCache* join_memo = nullptr, QueryGuards guards = {},
          bool relaxed_reuse = false)
      : db_(db),
        params_(params),
        cache_(cache),
        cutoff_(cost_cutoff),
        budget_(budget),
        join_memo_(join_memo),
        guards_(guards),
        relaxed_reuse_(relaxed_reuse) {}

  /// Plans a bound query block (and, recursively, all nested blocks).
  Result<BlockPlan> PlanBlock(const QueryBlock& qb);

  /// Number of blocks fully optimized by this planner instance (annotation
  /// cache hits excluded) — the unit Table 1 counts.
  int64_t blocks_planned() const { return blocks_planned_; }

 private:
  Result<BlockPlan> PlanRegular(const QueryBlock& qb);
  Result<BlockPlan> PlanSetOp(const QueryBlock& qb);

  /// Equality probes a scan of `tr` could drive an index with: filter
  /// conjuncts `col = bound-value`, then the join-derived `extra_probes`
  /// (column name, probe-expr) handed in for index nested-loop planning.
  using ExtraProbes = std::vector<std::pair<std::string_view, const Expr*>>;

  /// The access path chosen for one base table: a full scan (`index` null)
  /// or an index scan, with its output rows and cost.
  struct ScanChoice {
    const IndexDef* index = nullptr;
    double rows = 0;
    double cost = 0;
  };

  /// Picks the cheapest access path of base table `tr` with `filters`
  /// applied — a full scan or an index scan driven by constant/bound or
  /// extra-probe equalities — without building a plan.
  ScanChoice ChooseScan(const TableRef& tr,
                        const std::vector<const Expr*>& filters,
                        const ExtraProbes& extra_probes,
                        const StatsContext& ctx);

  /// Materializes `choice` (from ChooseScan with the same arguments). When
  /// `used_extra_probes` is non-null it receives the probe-expr of every
  /// extra probe the chosen index actually consumed — the caller must keep
  /// re-checking the rest.
  JoinStepPlan BuildScan(const TableRef& tr,
                         const std::vector<const Expr*>& filters,
                         const ExtraProbes& extra_probes,
                         const StatsContext& ctx, const ScanChoice& choice,
                         std::set<const Expr*>* used_extra_probes = nullptr);

  struct ScanProbe {
    std::string_view column;
    const Expr* value;   // expression producing the probe value
    const Expr* source;  // filter conjunct it came from; null for extras
    double sel;
  };
  /// Fills scan_probes_ with the candidate probes of a scan of `tr`.
  void CollectScanProbes(const TableRef& tr,
                         const std::vector<const Expr*>& filters,
                         const ExtraProbes& extra_probes,
                         const StatsContext& ctx);
  /// Fills scan_used_ with the probes (into scan_probes_) index `idx`
  /// consumes, in key-column order.
  void MatchIndex(const IndexDef& idx);
  /// True when filter `f` is the source of a probe in scan_used_: the index
  /// guarantees it, so it is not re-checked as a residual filter.
  bool ConsumedByIndex(const Expr* f) const;

  friend class BlockJoinCoster;

  const Database& db_;
  CostParams params_;
  AnnotationCache* cache_;
  double cutoff_;
  BudgetTracker* budget_;
  /// Cross-state join-order memo: subset-granularity DP results keyed by
  /// canonical relation/predicate fingerprints (see SubsetJoinMemo in
  /// planner.cc). Shared by the CBQT framework across transformation states
  /// alongside the block-level annotation cache.
  AnnotationCache* join_memo_;
  /// Runtime guardrails, polled at the same per-block quantum as the
  /// budget: a tripped CancellationToken aborts planning with kCancelled.
  QueryGuards guards_;
  /// Accept annotation hits from any member of the signature's canonical
  /// equivalence class (MQO cross-query sharing); default false requires an
  /// exact unparsing match (bit-identical plan determinism).
  bool relaxed_reuse_;
  int64_t blocks_planned_ = 0;
  /// Scratch for ChooseScan/BuildScan, reused across calls.
  std::vector<ScanProbe> scan_probes_;
  std::vector<const ScanProbe*> scan_used_;
};

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_PLANNER_H_
