#include "cbqt/annotation_cache.h"

#include <gtest/gtest.h>

#include "optimizer/planner.h"
#include "sql/unparser.h"
#include "tests/test_util.h"

namespace cbqt {
namespace {

TEST(AnnotationCache, PutFindHitMissCounters) {
  AnnotationCache cache;
  EXPECT_EQ(cache.Find("sig-a"), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  CostAnnotation ann;
  ann.cost = 12;
  ann.rows = 3;
  ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
  cache.Put("sig-a", std::move(ann));
  std::shared_ptr<const CostAnnotation> hit = cache.Find("sig-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->cost, 12);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(AnnotationCache, LruEvictionBeyondCapacity) {
  // One shard so LRU order is global and deterministic.
  AnnotationCache cache(/*num_shards=*/1, /*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  auto put = [&cache](const char* sig, double cost) {
    CostAnnotation ann;
    ann.cost = cost;
    ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
    cache.Put(sig, std::move(ann));
  };
  put("sig-a", 1);
  put("sig-b", 2);
  // Touch A: B becomes the eviction victim when C arrives.
  ASSERT_NE(cache.Find("sig-a"), nullptr);
  put("sig-c", 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Find("sig-a"), nullptr);
  EXPECT_EQ(cache.Find("sig-b"), nullptr);
  EXPECT_NE(cache.Find("sig-c"), nullptr);
  // An entry handed out before eviction stays valid afterwards.
  auto held = cache.Find("sig-c");
  put("sig-d", 4);
  put("sig-e", 5);
  ASSERT_NE(held, nullptr);
  EXPECT_DOUBLE_EQ(held->cost, 3);
}

TEST(AnnotationCache, ZeroCapacityIsUnbounded) {
  AnnotationCache cache(/*num_shards=*/1, /*capacity=*/0);
  for (int i = 0; i < 100; ++i) {
    CostAnnotation ann;
    ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
    cache.Put("sig-" + std::to_string(i), std::move(ann));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(AnnotationCache, HeterogeneousStringViewLookup) {
  AnnotationCache cache;
  CostAnnotation ann;
  ann.cost = 7;
  ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
  // Probe with a view into a larger buffer: no std::string is materialized
  // on the lookup path.
  std::string buffer = "prefix|sig-view|suffix";
  std::string_view sig = std::string_view(buffer).substr(7, 8);
  ASSERT_EQ(sig, "sig-view");
  cache.Put(sig, std::move(ann));
  auto hit = cache.Find(std::string_view(buffer).substr(7, 8));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->cost, 7);
}

class AnnotationReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(AnnotationReuseTest, PlannerReusesSubBlockAnnotations) {
  // Planning the same query twice with a shared cache: the second pass
  // reuses every block (paper §3.4.2).
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id) AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d, locations l WHERE "
      "d.loc_id = l.loc_id)");
  ASSERT_NE(qb, nullptr);

  AnnotationCache cache;
  Planner p1(*db_, CostParams{}, &cache);
  auto r1 = p1.PlanBlock(*qb);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(p1.blocks_planned(), 3);  // outer + two subqueries
  EXPECT_EQ(cache.hits(), 0);

  Planner p2(*db_, CostParams{}, &cache);
  auto r2 = p2.PlanBlock(*qb);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(p2.blocks_planned(), 0);  // everything reused
  EXPECT_GE(cache.hits(), 1);
  EXPECT_DOUBLE_EQ(r1->plan->est_cost, r2->plan->est_cost);
}

TEST_F(AnnotationReuseTest, DifferentBlocksDifferentSignatures) {
  auto a = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  auto b = ParseAndBind(*db_,
                        "SELECT e.salary FROM employees e WHERE e.salary > 1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The annotation cache keys a block by its exact text.
  EXPECT_NE(BlockToSql(*a), BlockToSql(*b));
  EXPECT_FALSE(BlockEquals(*a, *b));
}

TEST_F(AnnotationReuseTest, HitsShareThePublishedPlan) {
  auto qb = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  ASSERT_NE(qb, nullptr);
  AnnotationCache cache;
  Planner p(*db_, CostParams{}, &cache);
  auto r1 = p.PlanBlock(*qb);
  ASSERT_TRUE(r1.ok());
  auto r2 = p.PlanBlock(*qb);
  ASSERT_TRUE(r2.ok());
  // The fresh plan was published as it is, and the hit is that same tree:
  // neither is a private copy.
  EXPECT_EQ(r1->plan.get(), r2->plan.get());
}

TEST_F(AnnotationReuseTest, ClonedPlanMutationDoesNotReachTheCache) {
  auto qb = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  ASSERT_NE(qb, nullptr);
  AnnotationCache cache;
  Planner p(*db_, CostParams{}, &cache);
  auto r1 = p.PlanBlock(*qb);
  ASSERT_TRUE(r1.ok());
  const std::string before = PlanToString(*r1->plan);
  std::unique_ptr<PlanNode> owned = r1->plan->Clone();
  owned->table_name = "corrupted";
  owned->est_cost = -1;
  auto r2 = p.PlanBlock(*qb);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(p.blocks_planned(), 1);  // r2 is a hit
  EXPECT_NE(r2->plan.get(), owned.get());
  EXPECT_EQ(PlanToString(*r2->plan), before);
  // The same holds for a copy of a hit.
  std::unique_ptr<PlanNode> owned_hit = r2->plan->Clone();
  owned_hit->children.clear();
  owned_hit->est_rows = -1;
  auto r3 = p.PlanBlock(*qb);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(PlanToString(*r3->plan), before);
}

TEST_F(AnnotationReuseTest, SharedPlanOutlivesEvictionAndClear) {
  auto qa = ParseAndBind(*db_,
                         "SELECT e.salary FROM employees e WHERE e.salary > 5");
  auto qb = ParseAndBind(*db_, "SELECT d.dept_name FROM departments d");
  ASSERT_NE(qa, nullptr);
  ASSERT_NE(qb, nullptr);
  AnnotationCache cache(/*num_shards=*/1, /*capacity=*/1);
  Planner p(*db_, CostParams{}, &cache);
  auto fresh = p.PlanBlock(*qa);  // published, and shared with the cache
  ASSERT_TRUE(fresh.ok());
  auto hit = p.PlanBlock(*qa);  // a hit on that entry
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cache.hits(), 1);
  const std::string want = PlanToString(*hit->plan);

  // Planning another block evicts qa's entry; its holders keep the plan.
  auto other = p.PlanBlock(*qb);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(PlanToString(*fresh->plan), want);
  EXPECT_EQ(PlanToString(*hit->plan), want);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(PlanToString(*fresh->plan), want);
  EXPECT_EQ(PlanToString(*hit->plan), want);
  EXPECT_EQ(PlanToString(*other->plan),
            PlanToString(*Planner(*db_, CostParams{}).PlanBlock(*qb)->plan));
}

}  // namespace
}  // namespace cbqt
