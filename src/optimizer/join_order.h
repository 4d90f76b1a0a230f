#ifndef CBQT_OPTIMIZER_JOIN_ORDER_H_
#define CBQT_OPTIMIZER_JOIN_ORDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "optimizer/plan.h"

namespace cbqt {

/// One step of a join order being built: a plan plus its estimates.
struct JoinStepPlan {
  PlanPtr plan;
  double rows = 0;
  double cost = 0;
};

/// Physical join methods a coster can choose between.
enum class JoinMethod : uint8_t {
  kHash,
  kIndexNestedLoop,  ///< per-left-row index probe into the right base table
  kNestedLoop,       ///< rescans the right input (lateral views included)
};

/// The priced cheapest join of one candidate, before any plan is built.
struct JoinEstimate {
  double rows = 0;
  double cost = 0;
  JoinMethod method = JoinMethod::kNestedLoop;
};

/// Cost callbacks implemented by the planner: the enumerator drives the
/// search, the coster knows scans, join methods and predicates.
///
/// Join candidates are chosen, then built: the enumerator prices every
/// candidate with EstimateJoin, which builds no plan, and calls BuildJoin
/// only for the winner of each subset it settles.
class JoinCoster {
 public:
  virtual ~JoinCoster() = default;

  /// Best standalone access plan for relation `rel` (best scan, derived
  /// plan, ...).
  virtual Result<JoinStepPlan> BaseRel(int rel) = 0;

  /// Cost, rows and method of the cheapest join of `left` (covering the
  /// relations in `left_mask`) with relation `rel` on the right, over all
  /// join methods. Builds no plan.
  virtual Result<JoinEstimate> EstimateJoin(const JoinStepPlan& left,
                                            uint64_t left_mask, int rel) = 0;

  /// Builds the join `chosen` = EstimateJoin(left, left_mask, rel) priced.
  /// The join node points at its inputs' plans; the returned step carries
  /// exactly `chosen.rows` and `chosen.cost`.
  virtual Result<JoinStepPlan> BuildJoin(const JoinStepPlan& left,
                                         uint64_t left_mask, int rel,
                                         const JoinEstimate& chosen) = 0;
};

/// Cross-state memo for join-order subproblems. The caller (the planner)
/// owns key construction: a subset `mask` of this enumeration is translated
/// into a canonical fingerprint of the member relations and the predicates
/// that apply within the subset, so byte-identical subproblems arising in
/// different transformation states share results.
///
/// Contract (relies on join-cost monotonicity, joined.cost >= left.cost,
/// which every coster here satisfies): a stored entry is the
/// cutoff-independent best plan for its subset. Lookup must fill `out` only
/// when returning kHit; the plan it fills in is the memoized one itself.
class JoinOrderMemo {
 public:
  virtual ~JoinOrderMemo() = default;

  enum class Probe {
    kMiss,    ///< nothing memoized for this subset
    kHit,     ///< `out` filled with the best plan, cost <= cutoff
    kPruned,  ///< memoized best exceeds cutoff: subset is pruned
  };

  virtual Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) = 0;

  /// Publishes the settled best plan of `mask`.
  virtual void Store(uint64_t mask, const JoinStepPlan& step) = 0;
};

/// Join-order search with non-commutative-join partial orders (paper
/// §2.1.1/§2.2.3): `deps[i]` is the bitmask of relations that must precede
/// relation i (semijoin/antijoin/outer-join right sides and JPPD lateral
/// views). Exhaustive dynamic programming over subsets for small FROM lists,
/// greedy otherwise (left-deep trees only, per the traditional optimizer the
/// paper describes).
///
/// `cutoff`: partial plans costing more than this are pruned; if nothing
/// survives, Enumerate returns StatusCode::kCostCutoff (paper §3.4.1).
///
/// Every candidate is priced with EstimateJoin; each subset of two or more
/// relations the enumeration settles itself (not from the memo) is built
/// once, as its cheapest candidate. Greedy builds one join per step, n-1 in
/// all. A subset whose every candidate exceeds the cutoff builds nothing.
///
/// `memo`: optional cross-state subproblem memo. Memoized subsets are
/// settled without re-costing; every freshly computed valid subset is
/// stored. With the monotonicity contract above, a subset is valid under a
/// cutoff iff its unconstrained best cost is within the cutoff — so hits
/// from states searched under different cutoffs are exact, and a hit whose
/// cost exceeds the current cutoff is exactly a pruned subset.
class JoinOrderEnumerator {
 public:
  JoinOrderEnumerator(std::vector<uint64_t> deps, JoinCoster* coster,
                      double cutoff, int dp_threshold = 10,
                      JoinOrderMemo* memo = nullptr);

  Result<JoinStepPlan> Enumerate();

 private:
  Result<JoinStepPlan> EnumerateDp();
  Result<JoinStepPlan> EnumerateGreedy();

  std::vector<uint64_t> deps_;
  JoinCoster* coster_;
  double cutoff_;
  int dp_threshold_;
  JoinOrderMemo* memo_;
};

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_JOIN_ORDER_H_
