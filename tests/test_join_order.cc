#include "optimizer/join_order.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

namespace cbqt {
namespace {

// A synthetic coster over relations with fixed base costs; joining rel i
// multiplies cost by a per-relation factor, so the optimal order is to add
// cheap relations first. The "plan" records the join order in
// PlanNode::table_alias ("r0,r2,..."). Counts estimates (join_calls_) and
// builds separately, and remembers every fragment it built.
class FakeCoster : public JoinCoster {
 public:
  explicit FakeCoster(std::vector<double> sizes) : sizes_(std::move(sizes)) {}

  Result<JoinStepPlan> BaseRel(int rel) override {
    auto node = std::make_unique<PlanNode>(PlanOp::kTableScan);
    node->table_alias = "r" + std::to_string(rel);
    built_.insert(node.get());
    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = sizes_[static_cast<size_t>(rel)];
    step.cost = sizes_[static_cast<size_t>(rel)];
    ++base_calls_;
    return step;
  }

  Result<JoinEstimate> EstimateJoin(const JoinStepPlan& left,
                                    uint64_t left_mask, int rel) override {
    (void)left_mask;
    JoinEstimate est;
    est.rows = left.rows;  // selective joins keep left size
    est.cost = left.cost + sizes_[static_cast<size_t>(rel)] + left.rows * 0.01;
    est.method = JoinMethod::kHash;
    ++join_calls_;
    return est;
  }

  Result<JoinStepPlan> BuildJoin(const JoinStepPlan& left, uint64_t left_mask,
                                 int rel, const JoinEstimate& chosen) override {
    auto node = std::make_unique<PlanNode>(PlanOp::kHashJoin);
    node->table_alias = left.plan->table_alias + ",r" + std::to_string(rel);
    built_.insert(node.get());
    built_masks_.push_back(left_mask | (1ULL << rel));
    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = chosen.rows;
    step.cost = chosen.cost;
    ++build_calls_;
    return step;
  }

  int base_calls_ = 0;
  int join_calls_ = 0;   // EstimateJoin calls: candidates priced
  int build_calls_ = 0;  // BuildJoin calls: fragments materialized
  std::vector<uint64_t> built_masks_;
  std::set<const PlanNode*> built_;

 private:
  std::vector<double> sizes_;
};

// A memo that counts traffic, keeps what it is given, and checks that Store
// receives the fragment the coster built (owned), not a copy of it.
class CountingMemo : public JoinOrderMemo {
 public:
  explicit CountingMemo(const FakeCoster* coster) : coster_(coster) {}

  Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) override {
    ++lookups_;
    auto it = entries_.find(mask);
    if (it == entries_.end()) return Probe::kMiss;
    if (it->second.cost > cutoff) return Probe::kPruned;
    out->plan = it->second.plan;
    out->rows = it->second.rows;
    out->cost = it->second.cost;
    ++hits_;
    return Probe::kHit;
  }

  void Store(uint64_t mask, JoinStepPlan* step) override {
    ++stores_;
    EXPECT_TRUE(step->plan.owned()) << "mask " << mask;
    EXPECT_EQ(coster_->built_.count(step->plan.get()), 1u) << "mask " << mask;
    Entry& e = entries_[mask];
    e.plan = std::shared_ptr<const PlanNode>(step->plan.Take());
    e.rows = step->rows;
    e.cost = step->cost;
    step->plan = e.plan;
  }

  int lookups_ = 0;
  int hits_ = 0;
  int stores_ = 0;

 private:
  struct Entry {
    std::shared_ptr<const PlanNode> plan;
    double rows = 0;
    double cost = 0;
  };
  const FakeCoster* coster_;
  std::map<uint64_t, Entry> entries_;
};

TEST(JoinOrder, SingleRelation) {
  FakeCoster coster({42});
  JoinOrderEnumerator e({0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->cost, 42);
}

TEST(JoinOrder, DpPrefersSmallDrivingRelation) {
  // Driving with the small relation keeps left.rows low throughout.
  FakeCoster coster({10000, 10, 500});
  JoinOrderEnumerator e({0, 0, 0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias.substr(0, 2), "r1");
}

TEST(JoinOrder, DependenciesRespected) {
  // r2 must come after r0 and r1 (e.g. a lateral view).
  FakeCoster coster({5, 10, 1});
  std::vector<uint64_t> deps = {0, 0, 0b011};
  JoinOrderEnumerator e(deps, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  // r2 is last despite being the smallest.
  EXPECT_EQ(r->plan->table_alias, "r0,r1,r2");
}

TEST(JoinOrder, DependentRelationCannotLead) {
  FakeCoster coster({5, 10});
  std::vector<uint64_t> deps = {0b10, 0};  // r0 needs r1 first
  JoinOrderEnumerator e(deps, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias, "r1,r0");
}

TEST(JoinOrder, CutoffPrunesEverything) {
  FakeCoster coster({100, 100});
  JoinOrderEnumerator e({0, 0}, &coster, 50.0);
  auto r = e.Enumerate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCostCutoff);
}

TEST(JoinOrder, GreedyHandlesManyRelations) {
  std::vector<double> sizes;
  std::vector<uint64_t> deps;
  for (int i = 0; i < 14; ++i) {
    sizes.push_back(100 + i);
    deps.push_back(0);
  }
  FakeCoster coster(sizes);
  JoinOrderEnumerator e(deps, &coster, 1e18, /*dp_threshold=*/10);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  // Greedy evaluates far fewer joins than DP would (14 * 2^14).
  EXPECT_LT(coster.join_calls_, 14 * 14 + 1);
}

TEST(JoinOrder, DpFindsOptimalDrivingRelation) {
  // With this cost shape every order driven by the smallest relation costs
  // the same and beats all others; DP must pick one of them.
  std::vector<double> sizes = {40, 10, 30, 20};
  FakeCoster coster(sizes);
  JoinOrderEnumerator e({0, 0, 0, 0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias.substr(0, 2), "r1");
  double expected = 40 + 10 + 30 + 20 + 3 * 10 * 0.01;
  EXPECT_NEAR(r->cost, expected, 1e-9);
}

TEST(JoinOrder, DpBuildsOneFragmentPerSettledSubset) {
  // Four dependency-free relations, no cutoff: every subset is settled, and
  // each of the 2^4 - 1 - 4 = 11 multi-relation subsets is built once.
  FakeCoster coster({40, 10, 30, 20});
  JoinOrderEnumerator e({0, 0, 0, 0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(coster.build_calls_, 11);
  std::set<uint64_t> masks(coster.built_masks_.begin(),
                           coster.built_masks_.end());
  EXPECT_EQ(masks.size(), 11u);
  // Every (subset, last relation) pair was priced: sum over subsets of
  // their size, 4 * 2^3 = 32, minus the 4 singletons.
  EXPECT_EQ(coster.join_calls_, 28);
  EXPECT_TRUE(r->plan.owned());
}

TEST(JoinOrder, GreedyBuildsOneJoinPerStep) {
  std::vector<double> sizes;
  std::vector<uint64_t> deps;
  for (int i = 0; i < 14; ++i) {
    sizes.push_back(100 + i);
    deps.push_back(0);
  }
  FakeCoster coster(sizes);
  JoinOrderEnumerator e(deps, &coster, 1e18, /*dp_threshold=*/10);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(coster.build_calls_, 13);
  EXPECT_GT(coster.join_calls_, coster.build_calls_);
}

TEST(JoinOrder, SubsetOverCutoffBuildsNothing) {
  // r2 alone exceeds the cutoff, so every subset containing it has no
  // candidate within the cutoff: only {r0, r1} is built.
  FakeCoster coster({10, 10, 1000});
  JoinOrderEnumerator e({0, 0, 0}, &coster, 500.0);
  auto r = e.Enumerate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCostCutoff);
  EXPECT_EQ(coster.built_masks_, std::vector<uint64_t>{0b011});
}

TEST(JoinOrder, MemoStoresTheBuiltWinner) {
  FakeCoster coster({40, 10, 30, 20});
  CountingMemo memo(&coster);
  JoinOrderEnumerator e({0, 0, 0, 0}, &coster, 1e18, /*dp_threshold=*/10,
                        &memo);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(memo.lookups_, 15);
  EXPECT_EQ(memo.stores_, 15);
  EXPECT_EQ(coster.build_calls_, 11);
  // The result borrows the stored full-set entry.
  EXPECT_FALSE(r->plan.owned());

  // A second enumeration over the same memo settles every subset from it.
  FakeCoster again({40, 10, 30, 20});
  JoinOrderEnumerator e2({0, 0, 0, 0}, &again, 1e18, /*dp_threshold=*/10,
                         &memo);
  auto r2 = e2.Enumerate();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(again.join_calls_ + again.build_calls_ + again.base_calls_, 0);
  EXPECT_EQ(r2->plan->table_alias, r->plan->table_alias);
  EXPECT_EQ(r2->cost, r->cost);
}

TEST(JoinOrder, GreedyMemoStoresTheBuiltWinner) {
  std::vector<double> sizes;
  std::vector<uint64_t> deps;
  for (int i = 0; i < 12; ++i) {
    sizes.push_back(100 + i);
    deps.push_back(0);
  }
  FakeCoster coster(sizes);
  CountingMemo memo(&coster);
  JoinOrderEnumerator e(deps, &coster, 1e18, /*dp_threshold=*/10, &memo);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(memo.stores_, 1);
  EXPECT_EQ(coster.build_calls_, 11);
}

TEST(JoinOrder, EmptyRelationsRejected) {
  FakeCoster coster({});
  JoinOrderEnumerator e({}, &coster, 1e18);
  EXPECT_FALSE(e.Enumerate().ok());
}

}  // namespace
}  // namespace cbqt
