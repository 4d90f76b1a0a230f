#include "cbqt/search.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>
#include <vector>

namespace cbqt {

const char* SearchStrategyName(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kExhaustive:
      return "exhaustive";
    case SearchStrategy::kIterative:
      return "iterative";
    case SearchStrategy::kLinear:
      return "linear";
    case SearchStrategy::kTwoPass:
      return "two-pass";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The token's status when tripped, OK otherwise (null token = never trips).
Status CancelCheck(CancellationToken* cancel) {
  if (cancel == nullptr || !cancel->cancelled()) return Status::OK();
  return cancel->status();
}

// Evaluates the zero state (always first: it seeds the cost cutoff and is
// the search's guaranteed fallback answer). Charged against the budget for
// accounting but never stopped by it; a hard evaluation error here is fatal
// — without the untransformed query's cost there is nothing to fall back to.
Status ConsiderZero(const TransformState& state,
                    const StateEvaluator& evaluate, BudgetTracker* budget,
                    CancellationToken* cancel, SearchOutcome* outcome) {
  CBQT_RETURN_IF_ERROR(CancelCheck(cancel));
  if (budget != nullptr) budget->ChargeState();
  auto cost = evaluate(state, outcome->best_cost);
  ++outcome->states_evaluated;
  if (!cost.ok()) {
    if (cost.status().code() == StatusCode::kCostCutoff) return Status::OK();
    return cost.status();
  }
  if (cost.value() < outcome->best_cost) {
    outcome->best_cost = cost.value();
    outcome->best_state = state;
  }
  return Status::OK();
}

// Evaluates a non-zero state with the committed best as cut-off; updates the
// outcome if it is the new best. Returns true to continue the search, false
// to stop it (resource budget exhausted, or a guardrail abort — the latter
// also fills `*fatal` and must fail the whole search). Hard evaluator
// errors are otherwise fault-isolated: recorded in outcome->failed_states
// and treated as infinite cost instead of aborting.
bool Consider(const TransformState& state, const StateEvaluator& evaluate,
              BudgetTracker* budget, CancellationToken* cancel,
              SearchOutcome* outcome, Status* fatal,
              double* out_cost = nullptr) {
  if (out_cost != nullptr) *out_cost = kInf;
  Status cancelled = CancelCheck(cancel);
  if (!cancelled.ok()) {
    *fatal = std::move(cancelled);
    return false;
  }
  if (budget != nullptr && budget->ChargeState()) {
    outcome->budget_exhausted = true;
    return false;  // state not evaluated; keep best-so-far
  }
  auto cost = evaluate(state, outcome->best_cost);
  if (!cost.ok()) {
    switch (cost.status().code()) {
      case StatusCode::kCostCutoff:
        ++outcome->states_evaluated;
        return true;  // abandoned: "not better"
      case StatusCode::kBudgetExhausted:
        // The evaluator (physical optimizer) noticed the deadline mid-state.
        outcome->budget_exhausted = true;
        return false;
      default:
        if (IsGuardrailAbort(cost.status().code())) {
          *fatal = cost.status();  // cancel / OOM: fail the whole query
          return false;
        }
        ++outcome->states_evaluated;
        ++outcome->failed_states;
        return true;  // isolated: infinite cost
    }
  }
  ++outcome->states_evaluated;
  if (out_cost != nullptr) *out_cost = cost.value();
  if (cost.value() < outcome->best_cost) {
    outcome->best_cost = cost.value();
    outcome->best_state = state;
  }
  return true;
}

// True when the budget tripped (or trips now, deadline-wise); used between
// parallel batches so exhausted searches stop dispatching work.
bool BudgetStop(BudgetTracker* budget, SearchOutcome* outcome) {
  if (budget == nullptr) return false;
  if (budget->exhausted() || budget->CheckDeadline()) {
    outcome->budget_exhausted = true;
    return true;
  }
  return false;
}

// One slot of a parallel batch: the evaluated cost (infinity when the
// evaluator returned kCostCutoff or failed hard) plus what happened.
struct SlotResult {
  double cost = kInf;
  bool skipped = false;      // budget tripped before evaluation
  bool budget_stop = false;  // evaluator returned kBudgetExhausted
  bool failed = false;       // hard error, fault-isolated
  Status fatal;              // guardrail abort (cancel / OOM) — fails search
};

// Evaluates `states` on the pool. Workers read `shared_cutoff` at task start
// and, when `publish` is set, CAS-min their finite cost back into it so
// later tasks in the same batch benefit (legal only when every batched state
// is a committed member of the search — true for exhaustive, not for linear
// speculation). Each worker charges its state against the budget first and
// skips the evaluation once the budget is exhausted.
void EvaluateBatch(const std::vector<TransformState>& states,
                   const StateEvaluator& evaluate, ThreadPool* pool,
                   std::atomic<double>* shared_cutoff, bool publish,
                   BudgetTracker* budget, CancellationToken* cancel,
                   std::vector<SlotResult>* results) {
  results->assign(states.size(), SlotResult{});
  for (size_t idx = 0; idx < states.size(); ++idx) {
    pool->Submit([&, idx] {
      SlotResult& slot = (*results)[idx];
      Status cancelled = CancelCheck(cancel);
      if (!cancelled.ok()) {
        // In-flight pool state observes the token and aborts before doing
        // any work; the batch is merged but the search fails.
        slot.fatal = std::move(cancelled);
        return;
      }
      if (budget != nullptr && budget->ChargeState()) {
        slot.skipped = true;
        return;
      }
      double cutoff = shared_cutoff->load(std::memory_order_relaxed);
      auto cost = evaluate(states[idx], cutoff);
      if (!cost.ok()) {
        switch (cost.status().code()) {
          case StatusCode::kCostCutoff:
            break;  // slot.cost stays infinite
          case StatusCode::kBudgetExhausted:
            slot.budget_stop = true;
            break;
          default:
            if (IsGuardrailAbort(cost.status().code())) {
              slot.fatal = cost.status();
            } else {
              slot.failed = true;  // isolated: infinite cost
            }
            break;
        }
        return;
      }
      slot.cost = cost.value();
      if (publish) {
        double cur = shared_cutoff->load(std::memory_order_relaxed);
        while (cost.value() < cur &&
               !shared_cutoff->compare_exchange_weak(
                   cur, cost.value(), std::memory_order_relaxed)) {
        }
      }
    });
  }
  pool->Wait();
}

// Folds one batch slot into the outcome; returns false when the budget
// tripped (or a guardrail abort was observed — `*fatal` set) and the search
// should stop after this batch.
bool ConsumeSlot(const SlotResult& slot, SearchOutcome* outcome,
                 Status* fatal) {
  if (!slot.fatal.ok()) {
    if (fatal->ok()) *fatal = slot.fatal;
    return false;
  }
  if (slot.skipped || slot.budget_stop) {
    outcome->budget_exhausted = true;
    return false;
  }
  ++outcome->states_evaluated;
  if (slot.failed) ++outcome->failed_states;
  return true;
}

Result<SearchOutcome> ExhaustiveSerial(int n, const StateEvaluator& evaluate,
                                       BudgetTracker* budget,
                                       CancellationToken* cancel) {
  SearchOutcome outcome;
  CBQT_RETURN_IF_ERROR(
      ConsiderZero(ZeroState(n), evaluate, budget, cancel, &outcome));
  uint64_t total = 1ULL << n;
  Status fatal;
  for (uint64_t mask = 1; mask < total; ++mask) {
    if (!Consider(StateFromMask(mask, n), evaluate, budget, cancel, &outcome,
                  &fatal)) {
      break;
    }
  }
  if (!fatal.ok()) return fatal;
  return outcome;
}

Result<SearchOutcome> ExhaustiveParallel(int n, const StateEvaluator& evaluate,
                                         ThreadPool* pool,
                                         BudgetTracker* budget,
                                         CancellationToken* cancel) {
  SearchOutcome outcome;
  uint64_t total = 1ULL << n;

  // Zero state first, serially: it seeds the cut-off (paper §3.4.1) so no
  // worker ever runs without an upper bound.
  CBQT_RETURN_IF_ERROR(
      ConsiderZero(ZeroState(n), evaluate, budget, cancel, &outcome));
  std::atomic<double> cutoff{outcome.best_cost};

  // Batches merge in ascending mask order with a strict '<', so the chosen
  // state and cost are identical to the serial search no matter how the
  // workers interleave: a state abandoned by a racing cut-off had a cost
  // strictly above the final best, and equal-cost ties keep the lower mask.
  uint64_t batch = static_cast<uint64_t>(pool->num_threads()) * 4;
  std::vector<TransformState> states;
  std::vector<SlotResult> results;
  Status fatal;
  for (uint64_t next = 1; next < total; next += batch) {
    fatal = CancelCheck(cancel);
    if (!fatal.ok()) break;
    if (BudgetStop(budget, &outcome)) break;
    uint64_t end = std::min(total, next + batch);
    states.clear();
    for (uint64_t mask = next; mask < end; ++mask) {
      states.push_back(StateFromMask(mask, n));
    }
    EvaluateBatch(states, evaluate, pool, &cutoff, /*publish=*/true, budget,
                  cancel, &results);
    ++outcome.parallel_batches;
    bool stop = false;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!ConsumeSlot(results[i], &outcome, &fatal)) {
        stop = true;
        continue;  // later slots of this batch may still hold results
      }
      double c = results[i].cost;
      if (c < outcome.best_cost) {
        outcome.best_cost = c;
        outcome.best_state = states[i];
      }
    }
    if (stop) break;
  }
  if (!fatal.ok()) return fatal;
  return outcome;
}

Result<SearchOutcome> LinearSerial(int n, const StateEvaluator& evaluate,
                                   BudgetTracker* budget,
                                   CancellationToken* cancel) {
  // Dynamic-programming flavour (paper §3.2): accept each object's
  // transformation iff it improves on the best state found so far; never
  // revisit. Exactly N+1 states.
  SearchOutcome outcome;
  TransformState current = ZeroState(n);
  CBQT_RETURN_IF_ERROR(
      ConsiderZero(current, evaluate, budget, cancel, &outcome));
  double current_cost = outcome.best_cost;
  Status fatal;
  for (int i = 0; i < n; ++i) {
    TransformState next = current;
    next[static_cast<size_t>(i)] = true;
    double cost = 0;
    if (!Consider(next, evaluate, budget, cancel, &outcome, &fatal, &cost)) {
      break;
    }
    if (cost < current_cost) {
      current = std::move(next);
      current_cost = cost;
    }
  }
  if (!fatal.ok()) return fatal;
  return outcome;
}

Result<SearchOutcome> LinearParallel(int n, const StateEvaluator& evaluate,
                                     ThreadPool* pool, BudgetTracker* budget,
                                     CancellationToken* cancel) {
  // Speculative parallel variant of LinearSerial with bit-identical results:
  // assume the upcoming candidates are all rejections (the common case) and
  // cost them concurrently against the current base; consume the results in
  // order and, on the first acceptance, discard the now-stale remainder and
  // re-speculate from the new base. Within a batch every candidate sees
  // exactly the serial cut-off, because rejections never lower it and an
  // acceptance aborts the batch.
  SearchOutcome outcome;
  TransformState current = ZeroState(n);
  CBQT_RETURN_IF_ERROR(
      ConsiderZero(current, evaluate, budget, cancel, &outcome));
  double current_cost = outcome.best_cost;

  std::vector<TransformState> states;
  std::vector<SlotResult> results;
  Status fatal;
  int i = 0;
  while (i < n) {
    fatal = CancelCheck(cancel);
    if (!fatal.ok()) break;
    if (BudgetStop(budget, &outcome)) break;
    states.clear();
    for (int j = i; j < n; ++j) {
      TransformState cand = current;
      cand[static_cast<size_t>(j)] = true;
      states.push_back(std::move(cand));
    }
    std::atomic<double> cutoff{outcome.best_cost};
    EvaluateBatch(states, evaluate, pool, &cutoff, /*publish=*/false, budget,
                  cancel, &results);
    ++outcome.parallel_batches;

    bool accepted = false;
    bool stop = false;
    for (size_t j = 0; j < results.size(); ++j) {
      // Only consumed slots matter; the serial search would never have
      // evaluated the states behind an acceptance. Failed slots keep their
      // infinite cost (fault isolation) and read as rejections.
      if (!ConsumeSlot(results[j], &outcome, &fatal)) {
        stop = true;
        break;
      }
      double c = results[j].cost;
      if (c < outcome.best_cost) {
        outcome.best_cost = c;
        outcome.best_state = states[j];
      }
      if (c < current_cost) {
        current = states[j];
        current_cost = c;
        i += static_cast<int>(j) + 1;
        accepted = true;
        break;
      }
    }
    if (stop || !accepted) break;  // budget, or consumed all bits rejected
  }
  if (!fatal.ok()) return fatal;
  return outcome;
}

Result<SearchOutcome> TwoPass(int n, const StateEvaluator& evaluate,
                              BudgetTracker* budget,
                              CancellationToken* cancel) {
  SearchOutcome outcome;
  CBQT_RETURN_IF_ERROR(
      ConsiderZero(ZeroState(n), evaluate, budget, cancel, &outcome));
  Status fatal;
  Consider(OnesState(n), evaluate, budget, cancel, &outcome, &fatal);
  if (!fatal.ok()) return fatal;
  return outcome;
}

Result<SearchOutcome> Iterative(int n, const StateEvaluator& evaluate,
                                Rng* rng, int max_states,
                                BudgetTracker* budget,
                                CancellationToken* cancel) {
  // Iterative improvement (paper §3.2): from a random initial state, take
  // any downhill single-bit move until a local minimum, then restart;
  // stop when no unseen states remain or max_states is reached. Inherently
  // sequential (every move depends on the last), so never parallelized.
  SearchOutcome outcome;
  std::set<TransformState> seen;
  Status fatal;
  // Returns true to continue the search (budget semantics of Consider).
  auto consider_once = [&](const TransformState& s, double* cost) -> bool {
    *cost = kInf;
    if (seen.count(s) > 0) return true;
    seen.insert(s);
    return Consider(s, evaluate, budget, cancel, &outcome, &fatal, cost);
  };

  {
    TransformState zero = ZeroState(n);
    seen.insert(zero);
    CBQT_RETURN_IF_ERROR(
        ConsiderZero(zero, evaluate, budget, cancel, &outcome));
  }

  Rng fallback(12345);
  Rng& random = rng != nullptr ? *rng : fallback;
  uint64_t total = n >= 63 ? ~0ULL : (1ULL << n);
  bool stop = false;
  while (!stop && outcome.states_evaluated < max_states &&
         seen.size() < static_cast<size_t>(total)) {
    // Random restart.
    TransformState current = StateFromMask(random.Next() % total, n);
    double current_cost = 0;
    if (seen.count(current) > 0) continue;
    if (!consider_once(current, &current_cost)) break;
    bool improved = true;
    while (improved && outcome.states_evaluated < max_states) {
      improved = false;
      for (int i = 0; i < n; ++i) {
        TransformState neighbor = current;
        neighbor[static_cast<size_t>(i)] = !neighbor[static_cast<size_t>(i)];
        if (seen.count(neighbor) > 0) continue;
        double cost = 0;
        if (!consider_once(neighbor, &cost)) {
          stop = true;
          break;
        }
        if (cost < current_cost) {
          current = std::move(neighbor);
          current_cost = cost;
          improved = true;
          break;  // always take the first downhill move
        }
        if (outcome.states_evaluated >= max_states) break;
      }
      if (stop) break;
    }
  }
  if (!fatal.ok()) return fatal;
  return outcome;
}

}  // namespace

Result<SearchOutcome> RunSearch(SearchStrategy strategy, int num_objects,
                                const StateEvaluator& evaluate,
                                const SearchOptions& options) {
  if (num_objects <= 0) {
    return Status::InvalidArgument("search requires at least one object");
  }
  if (num_objects > 20 && strategy == SearchStrategy::kExhaustive) {
    strategy = SearchStrategy::kLinear;  // safety valve
  }
  ThreadPool* pool = options.pool != nullptr && options.pool->num_threads() > 1
                         ? options.pool
                         : nullptr;
  BudgetTracker* budget = options.budget;
  CancellationToken* cancel = options.cancel;
  switch (strategy) {
    case SearchStrategy::kExhaustive:
      return pool != nullptr ? ExhaustiveParallel(num_objects, evaluate, pool,
                                                  budget, cancel)
                             : ExhaustiveSerial(num_objects, evaluate, budget,
                                                cancel);
    case SearchStrategy::kLinear:
      return pool != nullptr
                 ? LinearParallel(num_objects, evaluate, pool, budget, cancel)
                 : LinearSerial(num_objects, evaluate, budget, cancel);
    case SearchStrategy::kTwoPass:
      return TwoPass(num_objects, evaluate, budget, cancel);
    case SearchStrategy::kIterative:
      return Iterative(num_objects, evaluate, options.rng,
                       options.max_states, budget, cancel);
  }
  return Status::Internal("unknown search strategy");
}

}  // namespace cbqt
