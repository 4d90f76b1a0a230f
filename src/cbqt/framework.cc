#include "cbqt/framework.h"

#include <atomic>
#include <limits>

#include "binder/binder.h"
#include "cbqt/annotation_cache.h"
#include "transform/groupby_placement.h"
#include "transform/groupby_view_merge.h"
#include "transform/join_factorization.h"
#include "transform/jppd.h"
#include "transform/or_expansion.h"
#include "transform/predicate_pullup.h"
#include "transform/setop_to_join.h"
#include "transform/subquery_unnest.h"
#include "transform/transform_util.h"

namespace cbqt {

namespace {

// Cheap follow-up heuristics applied after a transformation state: a
// transformation can generate constructs that enable imperative rules again
// (paper §3.1, "a transformation can generate constructs which may
// necessitate other transformations to be re-applied").
Status FollowUpHeuristics(TransformContext& ctx) {
  HeuristicOptions opts;
  opts.view_merge = false;       // would pre-empt cost-based merging
  opts.join_elimination = false;
  opts.subquery_unnest = false;  // cost-based decisions stay cost-based
  opts.group_pruning = true;
  opts.predicate_moveround = true;
  return ApplyHeuristicTransformations(ctx, opts);
}

}  // namespace

CbqtOptimizer::CbqtOptimizer(const Database& db, CbqtConfig config,
                             CostParams params)
    : db_(db), config_(config), physical_(db, params) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

SearchStrategy CbqtOptimizer::ChooseStrategy(int num_objects,
                                             int total_objects) const {
  if (config_.strategy_override.has_value()) {
    return *config_.strategy_override;
  }
  if (total_objects > config_.two_pass_total_threshold) {
    return SearchStrategy::kTwoPass;
  }
  if (num_objects <= config_.exhaustive_threshold) {
    return SearchStrategy::kExhaustive;
  }
  return SearchStrategy::kLinear;
}

Result<CbqtResult> CbqtOptimizer::Optimize(const QueryBlock& query,
                                           const OptimizeOptions& opts) const {
  const OptimizerBudget& budget = opts.budget ? *opts.budget : config_.budget;
  // Per-query guardrails: the caller's handles, with the configured fault
  // injector filled in so the kCancelAt / kMemoryPressure sites fire even
  // when the caller only set the token/tracker.
  QueryGuards guards = opts.guards;
  if (guards.faults == nullptr) guards.faults = config_.fault_injector.get();
  if (guards.any()) CBQT_RETURN_IF_ERROR(guards.Poll());

  auto tree = query.Clone();
  CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));

  CbqtStats stats;
  stats.threads_used = pool_ != nullptr ? pool_->num_threads() : 1;
  // Both caches charge their entries against the query's memory tracker
  // (no-op when guardrails are off).
  AnnotationCache cache(AnnotationCache::kDefaultShards,
                        AnnotationCache::kDefaultCapacity, guards.memory);
  AnnotationCache* cache_ptr = config_.reuse_annotations ? &cache : nullptr;
  // Cross-state join-order memo (subset-granularity DP reuse); same sharded
  // store as the block annotations, different key space ("jo:" prefixed).
  // Subset-granularity entries outnumber block annotations, hence the
  // larger capacity.
  constexpr size_t kJoinMemoCapacity = 8192;
  AnnotationCache join_memo(AnnotationCache::kDefaultShards,
                            kJoinMemoCapacity, guards.memory);
  AnnotationCache* join_memo_ptr =
      config_.reuse_join_orders ? &join_memo : nullptr;
  // Clone telemetry: process-wide counters, reported as this optimization's
  // deltas (concurrent Optimize() calls may inflate each other's numbers;
  // the counters are diagnostics, not decisions).
  const int64_t cloned_before = CowBlocksClonedCount();
  const int64_t shared_before = CowSharesCount();
  Rng rng(config_.seed);

  // Resource governor for this optimization; null when unbudgeted so the
  // historical path pays nothing. FaultInjector likewise (testing only).
  std::unique_ptr<BudgetTracker> tracker_owner;
  BudgetTracker* tracker = nullptr;
  if (budget.limits_optimization()) {
    tracker_owner = std::make_unique<BudgetTracker>(budget);
    tracker = tracker_owner.get();
  }
  FaultInjector* injector = config_.fault_injector.get();

  // State evaluations may run concurrently (parallel search), so the
  // counters they bump are atomics, folded into `stats` at the end.
  std::atomic<int64_t> blocks_planned{0};
  std::atomic<int> interleaved_states{0};

  // ---- Heuristic (imperative) phase, paper §2.1. ----
  TransformContext hctx{tree.get(), &db_};
  HeuristicOptions hopts;
  hopts.subquery_unnest = config_.transforms.enabled(Transform::kUnnest);
  CBQT_RETURN_IF_ERROR(ApplyHeuristicTransformations(hctx, hopts));
  CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));

  // ---- Cost-based phase, paper §2.2 + §3, in the §3.1 sequential order.
  SubqueryUnnestViewTransformation unnest;
  GroupByViewMergeTransformation gb_merge;
  SetOpToJoinTransformation setop;
  GroupByPlacementTransformation gbp;
  PredicatePullupTransformation pullup;
  JoinFactorizationTransformation factorize;
  OrExpansionTransformation or_expand;
  JoinPredicatePushdownTransformation jppd;

  const TransformMask& mask = config_.transforms;
  struct Step {
    const CostBasedTransformation* t;
    bool enabled;
    bool interleave_merge;  // §3.3.1: unnesting interleaves with GB merge
    bool juxtapose_jppd;    // §3.3.2: merge states also costed with JPPD
  };
  std::vector<Step> steps = {
      {&unnest, mask.enabled(Transform::kUnnest),
       config_.interleave_view_merge, false},
      // View merging is juxtaposed with JPPD (§3.3.2): each merge state is
      // also costed with JPPD applied to the surviving views, so "don't
      // merge, push instead" (Q13) can beat "merge" (Q18) — the three-way
      // Q12/Q13/Q18 comparison. The JPPD step below then performs the
      // actual pushdown on the chosen tree.
      {&gb_merge, mask.enabled(Transform::kGroupByViewMerge), false,
       mask.enabled(Transform::kJppd)},
      {&setop, mask.enabled(Transform::kSetOpToJoin), false, false},
      {&gbp, mask.enabled(Transform::kGroupByPlacement), false, false},
      {&pullup, mask.enabled(Transform::kPredicatePullup), false, false},
      {&factorize, mask.enabled(Transform::kJoinFactorization), false, false},
      {&or_expand, mask.enabled(Transform::kOrExpansion), false, false},
      {&jppd, mask.enabled(Transform::kJppd), false, false},
  };

  // Total transformable objects (for the global two-pass threshold).
  int total_objects = 0;
  {
    TransformContext cctx{tree.get(), &db_};
    for (const auto& step : steps) {
      if (step.enabled) total_objects += step.t->CountObjects(cctx);
    }
  }

  for (const auto& step : steps) {
    if (!step.enabled) continue;

    // Guardrail poll once per step: cancellation is a hard stop here even
    // in heuristic mode (where the per-state polls never run).
    if (guards.any()) CBQT_RETURN_IF_ERROR(guards.Poll());

    // Governor poll once per step, before any costing: when the budget is
    // already exhausted, this step's search never starts and its decision
    // degrades to the legacy heuristic rule (the same path heuristic-only
    // mode takes) — a fully exhausted budget degrades the whole cost-based
    // phase to the heuristic-only optimizer.
    bool degraded = false;
    if (config_.cost_based && tracker != nullptr) {
      degraded = tracker->exhausted() || tracker->CheckDeadline();
    }

    TransformContext count_ctx{tree.get(), &db_};
    int n = step.t->CountObjects(count_ctx);
    if (n == 0) continue;

    if (!config_.cost_based || degraded) {
      // Heuristic mode (Figure 2 baseline) or budget-degraded step: each
      // object decided by the legacy rule, no costing.
      if (degraded) ++stats.searches_degraded;
      TransformState bits(static_cast<size_t>(n), false);
      bool any = false;
      for (int i = 0; i < n; ++i) {
        bits[static_cast<size_t>(i)] = step.t->HeuristicDecision(count_ctx, i);
        any |= bits[static_cast<size_t>(i)];
      }
      if (any) {
        TransformContext actx{tree.get(), &db_};
        CBQT_RETURN_IF_ERROR(step.t->Apply(actx, bits));
        CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));
        CBQT_RETURN_IF_ERROR(FollowUpHeuristics(actx));
        CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));
        stats.applied.push_back(step.t->Name() + StateToString(bits));
      }
      continue;
    }

    // Re-entrant state evaluator: every invocation works on its own deep
    // copy of the tree; the only shared structures are the sharded
    // annotation cache, the budget tracker, the fault injector, and the
    // atomic telemetry counters. The cost cut-off (§3.4.1) is owned by the
    // search, which passes the best committed cost so far; with the cut-off
    // disabled we simply ignore it.
    auto evaluate = [&](const TransformState& state,
                        double search_cutoff) -> Result<double> {
      bool any_bit = false;
      for (bool b : state) any_bit |= b;
      // Guardrail poll at the per-state quantum: fires kCancelAt, observes
      // the token. kCancelled / kResourceExhausted abort the whole search
      // (never fault-isolated); see search.h.
      if (guards.any()) CBQT_RETURN_IF_ERROR(guards.Poll());
      if (injector != nullptr) {
        // A hard error here is isolated by the search for non-zero states
        // and fatal for the zero state — exactly like a real failure in
        // Apply/Bind below.
        CBQT_RETURN_IF_ERROR(injector->MaybeFail(FaultSite::kStateEval));
        injector->MaybeDelay(FaultSite::kSlowState);
      }
      // COW-safe transformations get a structurally shared copy: only the
      // blocks this state actually rewrites (via Apply, the binder, or the
      // follow-up heuristics) are thawed into private copies; the rest stays
      // shared with the base tree, whose references keep shared nodes at
      // use_count >= 2 for the whole search.
      auto copy = (config_.cow_clone && step.t->CowSafe()) ? tree->CloneCow()
                                                           : tree->Clone();
      TransformContext cctx{copy.get(), &db_};
      CBQT_RETURN_IF_ERROR(step.t->Apply(cctx, state));
      CBQT_RETURN_IF_ERROR(BindQuery(db_, copy.get()));
      CBQT_RETURN_IF_ERROR(FollowUpHeuristics(cctx));
      CBQT_RETURN_IF_ERROR(BindQuery(db_, copy.get()));
      // Charge the state copy's privately owned bytes for the lifetime of
      // this evaluation (released when the lambda unwinds): concurrent pool
      // states accumulate in the tracker, so the peak reflects true search
      // memory width. Injected memory pressure fires here too.
      ScopedReservation state_mem(guards.memory);
      if (guards.memory != nullptr || guards.faults != nullptr) {
        if (guards.faults != nullptr &&
            guards.faults->MaybeFire(FaultSite::kMemoryPressure)) {
          return Status::ResourceExhausted(
              "injected memory pressure (state clone)");
        }
        if (guards.memory != nullptr) {
          CBQT_RETURN_IF_ERROR(state_mem.Grow(copy->EstimateBytes()));
        }
      }
      PhysicalOptimizeOptions popts;
      popts.cache = cache_ptr;
      popts.join_memo = join_memo_ptr;
      popts.cost_cutoff = config_.cost_cutoff
                              ? search_cutoff
                              : std::numeric_limits<double>::infinity();
      // The zero state is exempt from the budget: it is the guaranteed
      // fallback answer and must always be costed (§3.4-style bound on the
      // cost of costing is what the budget provides for the other states).
      popts.budget = any_bit ? tracker : nullptr;
      popts.guards = guards;
      auto opt = physical_.Optimize(*copy, popts);
      double cost = std::numeric_limits<double>::infinity();
      if (opt.ok()) {
        blocks_planned.fetch_add(opt->blocks_planned,
                                 std::memory_order_relaxed);
        cost = opt->cost;
      } else if (opt.status().code() != StatusCode::kCostCutoff) {
        return opt.status();
      }

      // §3.3.1 interleaving / §3.3.2 juxtaposition: before settling on this
      // state's cost, also cost it with a companion transformation applied
      // (group-by view merging after unnesting, or JPPD alongside view
      // merging) and take the minimum. The companion transformation itself
      // is (re-)decided by its own later step; here the extra costing only
      // protects this decision from being rejected prematurely.
      auto cost_with_companion = [&](const CostBasedTransformation& comp) {
        auto companion = copy->Clone();
        TransformContext mctx{companion.get(), &db_};
        int m = comp.CountObjects(mctx);
        if (m <= 0) return;
        Status st = comp.Apply(mctx, OnesState(m));
        if (st.ok()) st = BindQuery(db_, companion.get());
        if (!st.ok()) return;
        auto mopt = physical_.Optimize(*companion, popts);
        interleaved_states.fetch_add(1, std::memory_order_relaxed);
        if (mopt.ok()) {
          blocks_planned.fetch_add(mopt->blocks_planned,
                                   std::memory_order_relaxed);
          if (mopt->cost < cost) cost = mopt->cost;
        }
      };
      if (step.interleave_merge && any_bit) {
        GroupByViewMergeTransformation merge_all;
        cost_with_companion(merge_all);
      }
      if (step.juxtapose_jppd) {
        JoinPredicatePushdownTransformation jppd_all;
        cost_with_companion(jppd_all);
      }
      if (!std::isfinite(cost)) return Status::CostCutoff();
      return cost;
    };

    SearchStrategy strategy = ChooseStrategy(n, total_objects);
    SearchOptions search_options;
    search_options.rng = &rng;
    search_options.max_states = config_.iterative_max_states;
    search_options.pool = pool_.get();
    search_options.budget = tracker;
    search_options.cancel = guards.cancel;
    auto outcome = RunSearch(strategy, n, evaluate, search_options);
    if (!outcome.ok()) return outcome.status();
    stats.states_evaluated += outcome->states_evaluated;
    stats.states_per_transformation[step.t->Name()] =
        outcome->states_evaluated;
    stats.failed_states += outcome->failed_states;
    if (outcome->failed_states > 0) {
      stats.failed_per_transformation[step.t->Name()] +=
          outcome->failed_states;
    }

    bool any = false;
    for (bool b : outcome->best_state) any |= b;
    if (any) {
      // Transfer the best state's directives to the original tree
      // (paper §3.1).
      TransformContext actx{tree.get(), &db_};
      CBQT_RETURN_IF_ERROR(step.t->Apply(actx, outcome->best_state));
      CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));
      CBQT_RETURN_IF_ERROR(FollowUpHeuristics(actx));
      CBQT_RETURN_IF_ERROR(BindQuery(db_, tree.get()));
      stats.applied.push_back(step.t->Name() +
                              StateToString(outcome->best_state));
    }
  }

  // ---- Final physical optimization of the chosen tree. ----
  // Deliberately unbudgeted: whatever the governor cut short above, the
  // chosen tree must still get a plan — a budgeted Optimize() never fails
  // for budget reasons. (Injected planner faults still apply: a failure
  // here is the zero-state-equivalent and legitimately fatal.)
  PhysicalOptimizeOptions final_popts;
  final_popts.cache = cache_ptr;
  final_popts.join_memo = join_memo_ptr;
  final_popts.guards = guards;
  auto final_opt = physical_.Optimize(*tree, final_popts);
  if (!final_opt.ok()) return final_opt.status();
  stats.blocks_planned =
      blocks_planned.load(std::memory_order_relaxed) +
      final_opt->blocks_planned;
  stats.interleaved_states =
      interleaved_states.load(std::memory_order_relaxed);
  // The caches are this call's own, so their counters are its telemetry.
  stats.annotation_hits = cache_ptr ? cache_ptr->hits() : 0;
  stats.blocks_cloned = CowBlocksClonedCount() - cloned_before;
  stats.blocks_shared = CowSharesCount() - shared_before;
  stats.join_memo_hits = join_memo_ptr ? join_memo_ptr->hits() : 0;
  stats.join_memo_misses = join_memo_ptr ? join_memo_ptr->misses() : 0;
  if (tracker != nullptr) {
    stats.budget_exhausted = tracker->exhausted();
    stats.budget_check_ns = tracker->check_ns();
  }
  if (guards.memory != nullptr) {
    stats.peak_memory_bytes = guards.memory->peak_bytes();
  }

  CbqtResult result;
  result.tree = std::move(tree);
  result.plan = std::move(final_opt->plan);
  result.cost = final_opt->cost;
  result.stats = std::move(stats);
  return result;
}

}  // namespace cbqt
