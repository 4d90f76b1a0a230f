// The metamorphic differential fuzzer's own contracts: the seeded generator
// emits only parseable, bindable SQL and is deterministic; equivalence
// mutants preserve reference semantics; the unparser round-trips generated
// queries to an equal bound block; the shrinker minimizes while
// preserving a failure property; a deliberately seeded canary bug is caught
// and shrunk to a small repro; and the FaultInjector spec parser behind
// CBQT_FAULT_SITES / CBQT_FAULT_SEED accepts the documented grammar.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "binder/binder.h"
#include "common/fault_injector.h"
#include "common/result_compare.h"
#include "exec/reference.h"
#include "fuzz/generator.h"
#include "fuzz/harness.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrinker.h"
#include "parser/parser.h"
#include "sql/unparser.h"

namespace cbqt {
namespace {

class FuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(BuildFuzzDatabase(db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* FuzzTest::db_ = nullptr;

TEST_F(FuzzTest, GeneratorIsDeterministic) {
  SchemaConfig schema = FuzzSchemaConfig();
  bool any_diff = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::string a = GenerateFuzzQuery(seed, schema);
    std::string b = GenerateFuzzQuery(seed, schema);
    EXPECT_EQ(a, b) << "seed " << seed;
    if (GenerateFuzzQuery(seed + 1, schema) != a) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(FuzzTest, GeneratedQueriesParseBindAndRoundTrip) {
  SchemaConfig schema = FuzzSchemaConfig();
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    std::string sql = GenerateFuzzQuery(seed, schema);
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": "
                             << parsed.status().ToString() << "\n" << sql;
    ASSERT_TRUE(BindQuery(*db_, parsed.value().get()).ok())
        << "seed " << seed << "\n" << sql;

    // Unparser round-trip: Parse(BlockToSql(q)) re-binds to a block equal
    // to the bound original.
    std::string rendered = BlockToSql(*parsed.value());
    auto reparsed = ParseSql(rendered);
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << " rendered failed to "
                               << "reparse: " << rendered;
    ASSERT_TRUE(BindQuery(*db_, reparsed.value().get()).ok())
        << "seed " << seed << " rendered failed to rebind: " << rendered;
    EXPECT_TRUE(BlockEquals(*parsed.value(), *reparsed.value()))
        << "seed " << seed << "\noriginal: " << sql
        << "\nrendered: " << rendered;
  }
}

TEST_F(FuzzTest, MutantsPreserveReferenceSemantics) {
  SchemaConfig schema = FuzzSchemaConfig();
  ReferenceExecutor ref(*db_);
  int mutants_checked = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::string sql = GenerateFuzzQuery(seed, schema);
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(BindQuery(*db_, parsed.value().get()).ok());
    auto base = ref.Execute(*parsed.value());
    if (!base.ok()) continue;  // guardrail-style aborts are not the point here

    for (const std::string& m :
         GenerateEquivalentMutants(sql, 3, seed * 977)) {
      auto mp = ParseSql(m);
      ASSERT_TRUE(mp.ok()) << "mutant failed to parse: " << m;
      ASSERT_TRUE(BindQuery(*db_, mp.value().get()).ok())
          << "mutant failed to bind: " << m;
      auto mr = ref.Execute(*mp.value());
      ASSERT_TRUE(mr.ok()) << "mutant reference error: " << m;
      RowSetDiff diff = CompareRowMultisets(mr.value(), base.value());
      EXPECT_TRUE(diff.equal)
          << diff.message << "\noriginal: " << sql << "\nmutant:   " << m;
      ++mutants_checked;
    }
  }
  EXPECT_GT(mutants_checked, 20);
}

TEST_F(FuzzTest, ShrinkerMinimizesWhilePreservingProperty) {
  // Property: the query still parses, binds, and references order_items.
  // The shrinker must hand back a smaller query that still satisfies it.
  const std::string sql =
      "SELECT f0.product_name, f1.quantity, f2.status FROM products f0, "
      "order_items f1, orders f2 WHERE (f0.product_id = f1.product_id) AND "
      "(f1.order_id = f2.order_id) AND (f0.list_price > 100) AND "
      "(f2.status <> 'new')";
  auto property = [this](const std::string& cand) {
    auto p = ParseSql(cand);
    if (!p.ok() || !BindQuery(*db_, p.value().get()).ok()) return false;
    bool uses = false;
    for (const auto& tr : p.value()->from) {
      if (tr.table_name == "order_items") uses = true;
    }
    return uses;
  };
  ASSERT_TRUE(property(sql));
  ShrinkResult shrunk = ShrinkQuery(sql, property, /*max_evals=*/200);
  EXPECT_TRUE(property(shrunk.sql)) << shrunk.sql;
  EXPECT_GT(shrunk.candidates_tried, 0);
  EXPECT_GT(shrunk.accepted, 0);
  EXPECT_LT(shrunk.sql.size(), sql.size()) << shrunk.sql;
  // Everything but the order_items entry can go.
  EXPECT_FALSE(ReferencesAtLeastNBaseRelations(*db_, shrunk.sql, 2))
      << shrunk.sql;
}

TEST_F(FuzzTest, CanaryBugIsCaughtAndShrunkSmall) {
  // The canary drops the last row of the first deck entry's result for any
  // query touching >= 2 base relations: a deliberate wrong-rows bug that the
  // differential oracle must catch and the shrinker must minimize to a repro
  // of at most 3 relations (it cannot go below 2 — the canary needs 2).
  FuzzOptions options;
  options.seed = 11;
  options.rounds = 12;
  options.time_box_ms = 0;
  options.mutants_per_query = 0;
  options.canary = true;
  options.shrink = true;
  auto corpus =
      std::filesystem::temp_directory_path() / "cbqt_canary_corpus";
  std::filesystem::create_directories(corpus);
  options.corpus_dir = corpus.string();

  FuzzReport report = RunFuzz(*db_, options);
  ASSERT_FALSE(report.failures.empty())
      << "canary bug not caught in " << options.rounds << " rounds\n"
      << report.Summary();
  bool any_small = false;
  for (const auto& f : report.failures) {
    if (!ReferencesAtLeastNBaseRelations(*db_, f.shrunk_sql, 4)) {
      any_small = true;
    }
  }
  EXPECT_TRUE(any_small) << report.Summary();
  // Repros were dumped as self-contained .sql files.
  EXPECT_FALSE(report.failures.front().file.empty());
  EXPECT_TRUE(std::filesystem::exists(report.failures.front().file));
  std::filesystem::remove_all(corpus);
}

TEST_F(FuzzTest, FaultSweepDegradesCleanlyWithoutWrongRows) {
  FuzzOptions options;
  options.seed = 3;
  options.rounds = 15;
  options.time_box_ms = 0;
  options.mutants_per_query = 0;
  options.shrink = false;
  options.fault_sites = "exec-batch:p=0.02;planner:every=7";
  options.fault_seed = 5;
  FuzzReport report = RunFuzz(*db_, options);
  // Faults may error queries (counted, acceptable) but never corrupt rows.
  EXPECT_TRUE(report.failures.empty()) << report.Summary();
  EXPECT_GT(report.injected_faults, 0) << report.Summary();
}

TEST(FaultInjectorSpecTest, ParseAcceptsDocumentedGrammar) {
  auto inj = FaultInjector::Parse(
      "exec-batch:p=0.5;planner:every=2;slow-state:at=0|3;slow-state:delay=1",
      /*seed=*/9);
  ASSERT_TRUE(inj.ok()) << inj.status().ToString();
  ASSERT_NE(inj.value(), nullptr);
  // planner:every=2 fires on every second hit.
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (!inj.value()->MaybeFail(FaultSite::kPlanner).ok()) ++fired;
  }
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(inj.value()->hits(FaultSite::kPlanner), 10);
}

TEST(FaultInjectorSpecTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::Parse("no-such-site:p=0.5", 1).ok());
  EXPECT_FALSE(FaultInjector::Parse("exec-batch", 1).ok());
  EXPECT_FALSE(FaultInjector::Parse("exec-batch:p=nope", 1).ok());
  EXPECT_FALSE(FaultInjector::Parse("exec-batch:frobnicate=1", 1).ok());
}

TEST(FaultInjectorSpecTest, FromEnvReadsFaultSitesAndSeed) {
  unsetenv("CBQT_FAULT_SITES");
  unsetenv("CBQT_FAULT_SEED");
  auto none = FaultInjector::FromEnv();
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), nullptr);

  setenv("CBQT_FAULT_SITES", "exec-batch:every=3", 1);
  setenv("CBQT_FAULT_SEED", "17", 1);
  auto armed = FaultInjector::FromEnv();
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  ASSERT_NE(armed.value(), nullptr);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (!armed.value()->MaybeFail(FaultSite::kExecBatch).ok()) ++fired;
  }
  EXPECT_EQ(fired, 3);

  setenv("CBQT_FAULT_SITES", "bogus:every=1", 1);
  EXPECT_FALSE(FaultInjector::FromEnv().ok());
  unsetenv("CBQT_FAULT_SITES");
  unsetenv("CBQT_FAULT_SEED");
}

}  // namespace
}  // namespace cbqt
