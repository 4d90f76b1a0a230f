#include "optimizer/join_order.h"

#include <limits>

namespace cbqt {

JoinOrderEnumerator::JoinOrderEnumerator(std::vector<uint64_t> deps,
                                         JoinCoster* coster, double cutoff,
                                         int dp_threshold, JoinOrderMemo* memo)
    : deps_(std::move(deps)),
      coster_(coster),
      cutoff_(cutoff),
      dp_threshold_(dp_threshold),
      memo_(memo) {}

Result<JoinStepPlan> JoinOrderEnumerator::Enumerate() {
  if (deps_.empty()) {
    return Status::InvalidArgument("no relations to join");
  }
  if (deps_.size() == 1) {
    auto base = coster_->BaseRel(0);
    if (!base.ok()) return base.status();
    if (base->cost > cutoff_) return Status::CostCutoff();
    return base;
  }
  if (static_cast<int>(deps_.size()) <= dp_threshold_) return EnumerateDp();
  return EnumerateGreedy();
}

// Pull-style subset DP: each target mask is settled in a single visit —
// memo lookup first, otherwise the cheapest of EstimateJoin(dp[mask \ i], i)
// over the member relations i, and only that winner is built. This is the
// same recurrence as the classic source-major ("push") formulation,
// restructured so a memo hit skips every join costing for that subset, not
// just the final comparison.
//
// Tie-breaks match the push formulation exactly: there, sources were
// visited in ascending mask order and a target kept its first-written plan
// among equal costs, and for a fixed target the source mask ascends as the
// removed bit descends. Hence candidates here run from the highest member
// bit down with a strict `<` replacement.
Result<JoinStepPlan> JoinOrderEnumerator::EnumerateDp() {
  const int n = static_cast<int>(deps_.size());
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  struct Entry {
    bool valid = false;
    JoinStepPlan step;
  };
  std::vector<Entry> dp(static_cast<size_t>(full) + 1);

  for (uint64_t mask = 1; mask <= full; ++mask) {
    Entry& e = dp[mask];
    if (memo_ != nullptr) {
      switch (memo_->Lookup(mask, cutoff_, &e.step)) {
        case JoinOrderMemo::Probe::kHit:
          e.valid = true;
          continue;
        case JoinOrderMemo::Probe::kPruned:
          continue;
        case JoinOrderMemo::Probe::kMiss:
          break;
      }
    }
    if ((mask & (mask - 1)) == 0) {
      // Singleton: a relation with deps can never start a left-deep order.
      int i = 0;
      while ((mask >> i) != 1) ++i;
      if (deps_[static_cast<size_t>(i)] != 0) continue;
      auto base = coster_->BaseRel(i);
      if (!base.ok()) {
        if (base.status().code() == StatusCode::kCostCutoff) continue;
        return base.status();
      }
      if (base->cost > cutoff_) continue;
      e.valid = true;
      e.step = std::move(base.value());
    } else {
      int best_rel = -1;
      JoinEstimate best;
      for (int i = n - 1; i >= 0; --i) {
        uint64_t bit = 1ULL << i;
        if (!(mask & bit)) continue;
        uint64_t sub = mask & ~bit;
        if (!dp[sub].valid) continue;
        if ((deps_[static_cast<size_t>(i)] & ~sub) != 0) continue;
        auto est = coster_->EstimateJoin(dp[sub].step, sub, i);
        if (!est.ok()) {
          if (est.status().code() == StatusCode::kCostCutoff) continue;
          return est.status();
        }
        if (est->cost > cutoff_) continue;
        if (best_rel < 0 || est->cost < best.cost) {
          best_rel = i;
          best = *est;
        }
      }
      if (best_rel >= 0) {
        uint64_t sub = mask & ~(1ULL << best_rel);
        auto built = coster_->BuildJoin(dp[sub].step, sub, best_rel, best);
        if (!built.ok()) return built.status();
        e.valid = true;
        e.step = std::move(built.value());
      }
    }
    if (e.valid && memo_ != nullptr) memo_->Store(mask, e.step);
  }

  if (!dp[full].valid) return Status::CostCutoff();
  return std::move(dp[full].step);
}

Result<JoinStepPlan> JoinOrderEnumerator::EnumerateGreedy() {
  const int n = static_cast<int>(deps_.size());
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  // The greedy choice sequence is cutoff-independent (candidates are never
  // filtered by the cutoff, and cost grows monotonically along the order),
  // so the completed result is memoizable at full-set granularity.
  JoinStepPlan memoized;
  if (memo_ != nullptr) {
    switch (memo_->Lookup(full, cutoff_, &memoized)) {
      case JoinOrderMemo::Probe::kHit:
        return memoized;
      case JoinOrderMemo::Probe::kPruned:
        return Status::CostCutoff();
      case JoinOrderMemo::Probe::kMiss:
        break;
    }
  }
  // Start from the cheapest dependency-free base relation.
  JoinStepPlan current;
  uint64_t mask = 0;
  {
    double best_cost = std::numeric_limits<double>::infinity();
    int best = -1;
    JoinStepPlan best_step;
    for (int i = 0; i < n; ++i) {
      if (deps_[static_cast<size_t>(i)] != 0) continue;
      auto base = coster_->BaseRel(i);
      if (!base.ok()) {
        if (base.status().code() == StatusCode::kCostCutoff) continue;
        return base.status();
      }
      // Prefer the smallest relation as the driving table.
      if (base->rows < best_cost) {
        best_cost = base->rows;
        best = i;
        best_step = std::move(base.value());
      }
    }
    if (best < 0) return Status::CostCutoff();
    current = std::move(best_step);
    mask = 1ULL << best;
  }
  for (int step = 1; step < n; ++step) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best = -1;
    JoinEstimate best_est;
    for (int i = 0; i < n; ++i) {
      uint64_t bit = 1ULL << i;
      if (mask & bit) continue;
      if ((deps_[static_cast<size_t>(i)] & ~mask) != 0) continue;
      auto est = coster_->EstimateJoin(current, mask, i);
      if (!est.ok()) {
        if (est.status().code() == StatusCode::kCostCutoff) continue;
        return est.status();
      }
      if (est->cost < best_cost) {
        best_cost = est->cost;
        best = i;
        best_est = *est;
      }
    }
    if (best < 0) return Status::CostCutoff();
    if (best_est.cost > cutoff_) return Status::CostCutoff();
    auto built = coster_->BuildJoin(current, mask, best, best_est);
    if (!built.ok()) return built.status();
    current = std::move(built.value());
    mask |= 1ULL << best;
  }
  if (current.cost > cutoff_) return Status::CostCutoff();
  if (memo_ != nullptr) memo_->Store(full, current);
  return current;
}

}  // namespace cbqt
