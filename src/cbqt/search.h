#ifndef CBQT_CBQT_SEARCH_H_
#define CBQT_CBQT_SEARCH_H_

#include <functional>
#include <limits>

#include "cbqt/state.h"
#include "common/budget.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace cbqt {

/// State-space search techniques for cost-based transformation (paper §3.2).
enum class SearchStrategy {
  kExhaustive,  ///< all 2^N states — guaranteed best
  kIterative,   ///< iterative improvement with random restarts, N+1..2^N
  kLinear,      ///< greedy one-object-at-a-time, N+1 states
  kTwoPass,     ///< 2 states: nothing vs everything
};

const char* SearchStrategyName(SearchStrategy s);

/// Evaluates one state and returns its cost. `cost_cutoff` is the best cost
/// the search has committed so far (infinity until the zero state is costed);
/// evaluators may abandon a state once its accumulated cost exceeds it
/// (§3.4.1) by returning a kCostCutoff status, which the search treats as
/// "not better".
///
/// Fault isolation: any other error in a *non-zero* state is recorded in
/// SearchOutcome::failed_states and treated as infinite cost — one
/// pathological state must not kill the optimization of an otherwise-fine
/// query. Only a failure of the zero state (the untransformed query, the
/// search's guaranteed fallback) aborts the search. A kBudgetExhausted
/// error is a cooperative stop signal: the search returns best-so-far.
///
/// Guardrail aborts are the exception to isolation: kCancelled and
/// kResourceExhausted from *any* state abort the whole search and propagate
/// — a cancelled or out-of-memory query must fail, not "succeed" with a
/// degraded answer (contrast kBudgetExhausted).
///
/// Under a parallel search the evaluator is invoked concurrently from pool
/// workers and must be re-entrant: it may only mutate state it owns (deep
/// copies of the query tree) or thread-safe shared structures (the sharded
/// AnnotationCache, atomic counters).
using StateEvaluator =
    std::function<Result<double>(const TransformState&, double cost_cutoff)>;

struct SearchOutcome {
  TransformState best_state;
  double best_cost = std::numeric_limits<double>::infinity();
  int states_evaluated = 0;  ///< states whose result the search consumed

  // Robustness telemetry.
  /// Non-zero states whose evaluation failed hard and was isolated
  /// (counted as infinite cost instead of aborting the search).
  int failed_states = 0;
  /// The resource budget tripped and the search stopped early with its
  /// best-so-far state (always valid: the zero state is costed first).
  bool budget_exhausted = false;

  int parallel_batches = 0;  ///< batches dispatched to the pool (0 serial)
};

/// Knobs of one search run.
struct SearchOptions {
  Rng* rng = nullptr;       ///< iterative strategy only
  int max_states = 64;      ///< bounds iterative search
  /// When non-null (and sized >= 2 threads), exhaustive and linear searches
  /// evaluate batches of states concurrently. Results are bit-identical to
  /// the serial search: the zero state is always costed serially first to
  /// seed the cut-off, batches merge in state-bit-vector order, and ties on
  /// cost keep the earlier (lower) bit vector.
  ThreadPool* pool = nullptr;
  /// When non-null, every costed state is charged against the budget; once
  /// it trips the search stops and returns best-so-far (the zero state is
  /// always charged and costed, so a valid answer always exists).
  BudgetTracker* budget = nullptr;
  /// When non-null, polled once per state (the same quantum as the budget
  /// charge) and between parallel batches; a tripped token aborts the
  /// search with the token's status. In-flight pool workers observe the
  /// token too, so a cancel lands within one state evaluation.
  CancellationToken* cancel = nullptr;
};

/// Runs the chosen strategy over an N-object state space. The zero state is
/// always evaluated first (it seeds the cost cutoff).
Result<SearchOutcome> RunSearch(SearchStrategy strategy, int num_objects,
                                const StateEvaluator& evaluate,
                                const SearchOptions& options = {});

}  // namespace cbqt

#endif  // CBQT_CBQT_SEARCH_H_
