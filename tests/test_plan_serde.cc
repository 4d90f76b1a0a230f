// Round-trip and robustness tests for the binary plan serde
// (optimizer/plan_serde.h).
//
// Round-trip property: serialize(deserialize(bytes)) == bytes, bit for bit,
// for a synthetic tree covering every PlanOp and for every plan the
// optimizer produces over a deck of real queries plus the fuzz corpus.
// Deserialized plans must also execute row-identically to the originals.
//
// Robustness property: arbitrary malformed bytes — truncations, single-bit
// flips, version skew, wrong magic, corrupted counts, excessive nesting —
// yield a typed kDataCorruption Status; never a crash, never UB (the ASan
// build of this test is the enforcement).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cbqt/engine.h"
#include "common/result_compare.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/executor.h"
#include "fuzz/harness.h"
#include "optimizer/plan.h"
#include "optimizer/plan_serde.h"
#include "parser/parser.h"
#include "sql/expr.h"
#include "storage/database.h"

#ifndef CBQT_SOURCE_DIR
#error "CBQT_SOURCE_DIR must point at the repository root"
#endif

namespace cbqt {
namespace {

// ---- helpers -------------------------------------------------------------

ExprPtr ColRef(const std::string& alias, const std::string& name) {
  auto e = MakeColumnRef(alias, name);
  e->type = DataType::kInt64;
  return e;
}

std::unique_ptr<PlanNode> Scan(const std::string& table,
                               const std::string& alias) {
  auto n = std::make_unique<PlanNode>(PlanOp::kTableScan);
  n->table_name = table;
  n->table_alias = alias;
  n->output.push_back({alias, "id", DataType::kInt64});
  n->output.push_back({alias, "name", DataType::kString});
  n->est_rows = 100;
  n->est_cost = 42.5;
  return n;
}

void CollectOps(const PlanNode& n, std::set<PlanOp>* out) {
  out->insert(n.op);
  for (const auto& c : n.children) CollectOps(*c, out);
  for (const auto& s : n.subplans) CollectOps(*s, out);
}

// A synthetic plan exercising every PlanOp and every serialized field,
// including fields no single optimizer-produced plan would combine.
std::unique_ptr<PlanNode> BuildEveryOpPlan() {
  // Index scan with probes and a residual filter.
  auto ix = std::make_unique<PlanNode>(PlanOp::kIndexScan);
  ix->table_name = "departments";
  ix->table_alias = "d";
  ix->index_name = "ix_dept_loc";
  ix->probes.push_back(ColRef("e", "dept_id"));
  ix->filter.push_back(MakeBinary(BinaryOp::kGt, ColRef("d", "id"),
                                  MakeLiteral(Value::Int(3))));
  ix->output.push_back({"d", "id", DataType::kInt64});
  ix->est_rows = 1.5;
  ix->est_cost = 2.25;

  // Nested-loop left outer join that rescans the right side.
  auto nlj = std::make_unique<PlanNode>(PlanOp::kNestedLoopJoin);
  nlj->join_kind = JoinKind::kLeftOuter;
  nlj->rescan_right = true;
  nlj->join_conds.push_back(
      MakeBinary(BinaryOp::kLe, ColRef("e", "id"), ColRef("d", "id")));
  nlj->children.push_back(Scan("employees", "e"));
  nlj->children.push_back(std::move(ix));
  nlj->output = nlj->children[0]->output;

  // Null-aware hash antijoin with equi keys and a non-equi residual.
  auto hj = std::make_unique<PlanNode>(PlanOp::kHashJoin);
  hj->join_kind = JoinKind::kAntiNA;
  hj->null_aware = true;
  hj->hash_left_keys.push_back(ColRef("e", "dept_id"));
  hj->hash_right_keys.push_back(ColRef("j", "dept_id"));
  hj->join_conds.push_back(
      MakeBinary(BinaryOp::kNe, ColRef("e", "id"), ColRef("j", "id")));
  hj->children.push_back(std::move(nlj));
  hj->children.push_back(Scan("jobs", "j"));
  hj->output = hj->children[0]->output;

  // Grouping-set aggregate with a DISTINCT aggregate.
  auto agg = std::make_unique<PlanNode>(PlanOp::kAggregate);
  agg->group_keys.push_back(ColRef("e", "dept_id"));
  agg->group_keys.push_back(ColRef("e", "job_id"));
  agg->agg_exprs.push_back(
      MakeAggregate(AggFunc::kSum, ColRef("e", "salary"), /*distinct=*/true));
  agg->agg_exprs.push_back(MakeCountStar());
  agg->grouping_sets = {{0, 1}, {0}, {}};
  agg->children.push_back(std::move(hj));
  agg->output.push_back({"", "dept_id", DataType::kInt64});
  agg->output.push_back({"", "s", DataType::kDouble});

  // Window over a projection.
  auto proj = std::make_unique<PlanNode>(PlanOp::kProject);
  proj->projections.push_back(MakeBinary(
      BinaryOp::kMul, ColRef("", "s"), MakeLiteral(Value::Real(1.1))));
  proj->children.push_back(std::move(agg));
  proj->output.push_back({"", "scaled", DataType::kDouble});

  auto win_expr = MakeAggregate(AggFunc::kAvg, ColRef("", "scaled"));
  win_expr->kind = ExprKind::kWindow;
  win_expr->win_func = AggFunc::kAvg;
  win_expr->partition_by.push_back(ColRef("", "dept_id"));
  win_expr->win_order_by.push_back(ColRef("", "scaled"));
  auto win = std::make_unique<PlanNode>(PlanOp::kWindow);
  win->window_exprs.push_back(std::move(win_expr));
  win->children.push_back(std::move(proj));
  win->output.push_back({"", "ravg", DataType::kDouble});

  // Subquery filter with a subplan and its correlation cache key.
  auto parsed = ParseSql("SELECT 1 FROM departments d WHERE d.dept_id = 7");
  EXPECT_TRUE(parsed.ok());
  auto sub_pred = MakeSubquery(SubqueryKind::kNotExists,
                               std::move(parsed.value()));
  sub_pred->sub_cmp = BinaryOp::kGe;
  auto sqf = std::make_unique<PlanNode>(PlanOp::kSubqueryFilter);
  sqf->filter.push_back(std::move(sub_pred));
  sqf->subplans.push_back(Scan("departments", "d2"));
  sqf->subplan_corr_keys.push_back({});
  sqf->subplan_corr_keys.back().push_back(ColRef("", "dept_id"));
  sqf->children.push_back(std::move(win));
  sqf->output = sqf->children[0]->output;

  // Filter with a CASE / IS NULL / function-call expression (string, bool
  // and NULL literals ride along).
  auto case_expr = std::make_unique<Expr>();
  case_expr->kind = ExprKind::kCase;
  case_expr->children.push_back(
      MakeUnary(UnaryOp::kIsNull, ColRef("", "ravg")));
  case_expr->children.push_back(MakeLiteral(Value::Boolean(true)));
  case_expr->children.push_back(MakeLiteral(Value::Null()));
  auto flt = std::make_unique<PlanNode>(PlanOp::kFilter);
  flt->filter.push_back(std::move(case_expr));
  flt->filter.push_back(MakeFuncCall("lnnvl", {}));
  flt->filter.push_back(MakeLiteral(Value::Str("sentinel")));
  flt->filter.back()->param_index = 2;
  flt->children.push_back(std::move(sqf));
  flt->output.push_back({"", "ravg", DataType::kDouble});

  // Sort (mixed directions) -> distinct -> limit over the filter.
  auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
  sort->sort_keys.push_back(ColRef("", "ravg"));
  sort->sort_keys.push_back(MakeRownum());
  sort->sort_ascending = {true, false};
  sort->children.push_back(std::move(flt));

  auto dist = std::make_unique<PlanNode>(PlanOp::kDistinct);
  dist->children.push_back(std::move(sort));

  auto lim = std::make_unique<PlanNode>(PlanOp::kLimit);
  lim->limit = 10;
  lim->filter.push_back(MakeBinary(BinaryOp::kLt, MakeRownum(),
                                   MakeLiteral(Value::Int(11))));
  lim->children.push_back(std::move(dist));

  // Set op over the limit and a plain scan.
  auto setop = std::make_unique<PlanNode>(PlanOp::kSetOp);
  setop->set_op = SetOpKind::kMinus;
  setop->children.push_back(std::move(lim));
  setop->children.push_back(Scan("products", "p"));
  setop->output.push_back({"", "ravg", DataType::kDouble});
  setop->est_rows = 9;
  setop->est_cost = 1234.5;
  return setop;
}

class PlanSerdeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(BuildFuzzDatabase(db_).ok());
    engine_ = new QueryEngine(*db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  // Optimizes `sql` and returns its physical plan.
  static PlanPtr PlanFor(const std::string& sql) {
    auto prepared = engine_->Prepare(sql);
    EXPECT_TRUE(prepared.ok()) << sql << "\n" << prepared.status().ToString();
    if (!prepared.ok()) return nullptr;
    return std::move(prepared.value().plan);
  }

  static std::vector<Row> ExecuteSorted(const PlanNode& plan) {
    Executor exec(*db_);
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Row> rows =
        result.ok() ? std::move(result.value().rows) : std::vector<Row>{};
    SortRowsCanonical(&rows);
    return rows;
  }

  static Database* db_;
  static QueryEngine* engine_;
};

Database* PlanSerdeTest::db_ = nullptr;
QueryEngine* PlanSerdeTest::engine_ = nullptr;

// Queries whose optimized plans feed the round-trip + execution checks.
const char* const kQueries[] = {
    "SELECT e.employee_name, e.salary FROM employees e WHERE e.salary > "
    "50000 ORDER BY e.salary DESC",
    "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND d.loc_id < 5",
    "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 FROM "
    "employees e WHERE e.dept_id = d.dept_id AND e.salary > 90000)",
    "SELECT e1.employee_name FROM employees e1 WHERE e1.salary > (SELECT "
    "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id)",
    "SELECT e.dept_id, COUNT(*), SUM(e.salary) FROM employees e GROUP BY "
    "e.dept_id HAVING COUNT(*) > 2",
    "SELECT DISTINCT e.job_id FROM employees e, job_history j WHERE "
    "e.emp_id = j.emp_id",
    "SELECT d.dept_id FROM departments d UNION SELECT e.dept_id FROM "
    "employees e WHERE e.salary > 100000",
    "SELECT v.l, v.c FROM (SELECT d.loc_id AS l, COUNT(*) AS c FROM "
    "departments d GROUP BY ROLLUP(d.loc_id)) v WHERE v.l > 2",
    "SELECT v.acct_id, v.ravg FROM (SELECT a.acct_id AS acct_id, "
    "AVG(a.balance) OVER (PARTITION BY a.acct_id ORDER BY a.time) AS ravg "
    "FROM accounts a) v WHERE v.acct_id = 3",
    "SELECT e.employee_name FROM employees e LEFT OUTER JOIN departments d "
    "ON e.dept_id = d.dept_id WHERE ROWNUM <= 20",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN "
    "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 1)",
};

// ---- round trips ---------------------------------------------------------

TEST_F(PlanSerdeTest, SyntheticTreeCoversEveryPlanOpBitIdentical) {
  std::unique_ptr<PlanNode> plan = BuildEveryOpPlan();

  std::set<PlanOp> ops;
  CollectOps(*plan, &ops);
  EXPECT_EQ(ops.size(), 13u) << "synthetic tree must cover every PlanOp";

  std::string bytes = SerializePlan(*plan);
  auto restored = DeserializePlan(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializePlan(**restored), bytes);
  EXPECT_EQ(PlanToString(**restored), PlanToString(*plan));
  EXPECT_EQ(PlanShape(**restored), PlanShape(*plan));
}

TEST_F(PlanSerdeTest, OptimizedPlansRoundTripAndExecuteIdentically) {
  for (const char* sql : kQueries) {
    PlanPtr plan = PlanFor(sql);
    ASSERT_NE(plan, nullptr) << sql;

    std::string bytes = SerializePlan(*plan);
    auto restored = DeserializePlan(bytes);
    ASSERT_TRUE(restored.ok()) << sql << "\n" << restored.status().ToString();
    EXPECT_EQ(SerializePlan(**restored), bytes) << sql;
    EXPECT_EQ(PlanToString(**restored), PlanToString(*plan)) << sql;

    std::vector<Row> fresh = ExecuteSorted(*plan);
    std::vector<Row> thawed = ExecuteSorted(**restored);
    RowSetDiff diff = CompareRowMultisets(thawed, fresh);
    EXPECT_TRUE(diff.equal) << sql << "\n" << diff.message;
  }
}

TEST_F(PlanSerdeTest, FuzzCorpusPlansRoundTripAndExecuteIdentically) {
  std::filesystem::path dir =
      std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sql") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::string line, sql;
    while (std::getline(in, line)) {
      if (line.rfind("--", 0) == 0) continue;
      if (!sql.empty()) sql += " ";
      sql += line;
    }
    PlanPtr plan = PlanFor(sql);
    ASSERT_NE(plan, nullptr) << entry.path();

    std::string bytes = SerializePlan(*plan);
    auto restored = DeserializePlan(bytes);
    ASSERT_TRUE(restored.ok())
        << entry.path() << "\n" << restored.status().ToString();
    EXPECT_EQ(SerializePlan(**restored), bytes) << entry.path();

    std::vector<Row> fresh = ExecuteSorted(*plan);
    std::vector<Row> thawed = ExecuteSorted(**restored);
    RowSetDiff diff = CompareRowMultisets(thawed, fresh);
    EXPECT_TRUE(diff.equal) << entry.path() << "\n" << diff.message;
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no corpus files under " << dir;
}

// ---- malformed inputs ----------------------------------------------------

TEST_F(PlanSerdeTest, EveryTruncationFailsTyped) {
  std::string bytes = SerializePlan(*BuildEveryOpPlan());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DeserializePlan(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(r.ok()) << "truncation at " << len << " parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption)
        << "truncation at " << len << ": " << r.status().ToString();
  }
}

TEST_F(PlanSerdeTest, EverySingleBitFlipFailsTyped) {
  // The frame checksum covers the payload and the header fields are each
  // individually validated, so no single-bit corruption may parse.
  std::string bytes = SerializePlan(*BuildEveryOpPlan());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      auto r = DeserializePlan(mutated);
      ASSERT_FALSE(r.ok()) << "bit " << bit << " of byte " << i << " parsed";
      EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption)
          << "bit " << bit << " of byte " << i;
    }
  }
}

TEST_F(PlanSerdeTest, VersionSkewRejected) {
  std::string bytes = SerializePlan(*BuildEveryOpPlan());
  // Bytes 4..7 are the little-endian version field.
  for (uint32_t skewed :
       {kPlanSerdeVersion + 1, kPlanSerdeVersion - 1, 0u, 0xffffffffu}) {
    std::string mutated = bytes;
    for (int b = 0; b < 4; ++b) {
      mutated[4 + b] = static_cast<char>((skewed >> (8 * b)) & 0xff);
    }
    auto r = DeserializePlan(mutated);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  }
}

TEST_F(PlanSerdeTest, WrongMagicAndGarbageRejected) {
  auto expect_corrupt = [](const std::string& bytes, const std::string& what) {
    auto r = DeserializePlan(bytes);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption) << what;
  };
  expect_corrupt("", "empty");
  expect_corrupt("CBQP", "bare magic");
  expect_corrupt(std::string(1024, '\0'), "all zeros");
  expect_corrupt(FramePayload(kPlanSnapshotMagic, "payload"), "wrong magic");

  // Deterministic pseudo-random garbage of assorted sizes.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t size : {7u, 24u, 64u, 333u, 4096u}) {
    std::string junk(size, '\0');
    for (auto& c : junk) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<char>(state >> 56);
    }
    expect_corrupt(junk, "garbage[" + std::to_string(size) + "]");
  }
}

TEST_F(PlanSerdeTest, TrailingGarbageRejected) {
  std::string bytes = SerializePlan(*BuildEveryOpPlan());
  auto r = DeserializePlan(bytes + "x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
}

TEST_F(PlanSerdeTest, ExcessiveNestingDepthRejected) {
  // A legitimate writer can produce a pathologically deep expression; the
  // reader must refuse it instead of recursing to stack overflow.
  ExprPtr deep = MakeRownum();
  for (int i = 0; i < kSerdeMaxDepth + 10; ++i) {
    deep = MakeUnary(UnaryOp::kNot, std::move(deep));
  }
  ByteWriter w;
  WriteExpr(*deep, &w);
  ByteReader r(w.buffer());
  ExprPtr out;
  Status st = ReadExpr(&r, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataCorruption);
}

TEST_F(PlanSerdeTest, OversizedCountRejected) {
  // A count claiming more elements than there are remaining bytes must be
  // refused before any allocation is attempted.
  ByteWriter w;
  w.U32(0xfffffffeu);
  ByteReader r(w.buffer());
  uint32_t n = 0;
  Status st = r.Count(&n);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataCorruption);
}

// ---- primitives ----------------------------------------------------------

TEST_F(PlanSerdeTest, ValueRoundTripAllKinds) {
  const Value values[] = {Value::Null(), Value::Int(-123456789012345ll),
                          Value::Real(2.5), Value::Real(-0.0),
                          Value::Str(""), Value::Str("héllo\0wörld"),
                          Value::Boolean(true), Value::Boolean(false)};
  for (const Value& v : values) {
    ByteWriter w;
    WriteValue(v, &w);
    ByteReader r(w.buffer());
    Value out;
    ASSERT_TRUE(ReadValue(&r, &out).ok());
    EXPECT_TRUE(r.exhausted());
    EXPECT_TRUE(out == v);

    ByteWriter w2;
    WriteValue(out, &w2);
    EXPECT_EQ(w2.buffer(), w.buffer());
  }
}

TEST_F(PlanSerdeTest, QueryBlockRoundTripBitIdentical) {
  const char* sql =
      "SELECT e.dept_id, COUNT(*) AS c FROM employees e, (SELECT d.dept_id "
      "AS dept_id FROM departments d WHERE d.loc_id IN (1, 2)) v WHERE "
      "e.dept_id = v.dept_id AND EXISTS (SELECT 1 FROM jobs j) GROUP BY "
      "e.dept_id HAVING COUNT(*) > 1 ORDER BY c DESC";
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ByteWriter w;
  WriteQueryBlock(*parsed.value(), &w);
  ByteReader r(w.buffer());
  std::unique_ptr<QueryBlock> out;
  ASSERT_TRUE(ReadQueryBlock(&r, &out).ok());
  EXPECT_TRUE(r.exhausted());

  ByteWriter w2;
  WriteQueryBlock(*out, &w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
}

}  // namespace
}  // namespace cbqt
