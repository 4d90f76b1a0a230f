// The vectorized batch executor's contract: for every operator and every
// batch size, Execute() returns exactly the rows of the ReferenceExecutor
// (the naive interpreter of the bound tree), with or without spill-to-disk
// — and a query that exceeds its memory budget on a pipeline breaker
// completes via spill instead of failing kResourceExhausted. The hash
// join's build table is also checked directly: exact output order with
// duplicate keys, every join kind's verdict, Int/Real and NULL keys, and a
// build side large enough to grow the table many times, in memory and
// spilled. Typed scan filter kernels are checked against the tree evaluator
// and the reference interpreter over every value kind.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/fault_injector.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/result_compare.h"
#include "exec/compiled_expr.h"
#include "exec/eval.h"
#include "exec/operators.h"
#include "exec/prune.h"
#include "exec/reference.h"
#include "sql/parameterize.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

// Canonical multiset compare from common/result_compare.h: approx doubles
// because different plans (and batch/spill splits) sum in different orders.
void ExpectSameRows(std::vector<Row> actual, std::vector<Row> expected,
                    const std::string& label) {
  RowSetDiff diff = CompareRowMultisets(actual, expected);
  ASSERT_TRUE(diff.equal) << label << ": " << diff.message;
}

// Row-by-row identity: same width, and each value of the same kind and value,
// where a NaN equals a NaN (Value's operator== says it does not), so rows
// holding one can be compared.
bool IdenticalRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Value& x = a[i][j];
      const Value& y = b[i][j];
      const bool both_nan = x.kind() == ValueKind::kDouble &&
                            y.kind() == ValueKind::kDouble &&
                            std::isnan(x.AsDouble()) &&
                            std::isnan(y.AsDouble());
      if (!both_nan && !(x == y)) return false;
    }
  }
  return true;
}

class BatchExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeSmallHrDb().release();
    ASSERT_NE(db_, nullptr);
  }

  /// Optimizes `sql` into a physical plan (full CBQT pipeline, so unnesting
  /// produces semi/anti joins and the planner picks join methods by cost).
  std::unique_ptr<PlanNode> Plan(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return nullptr;
    CbqtOptimizer optimizer(*db_);
    auto opt = optimizer.Optimize(*qb);
    if (!opt.ok()) {
      ADD_FAILURE() << "optimize: " << opt.status().ToString() << "\n" << sql;
      return nullptr;
    }
    return std::move(opt->plan);
  }

  /// The correctness oracle: the naive interpreter of the bound tree.
  std::vector<Row> Oracle(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return {};
    ReferenceExecutor reference(*db_);
    auto rows = reference.Execute(*qb);
    if (!rows.ok()) {
      ADD_FAILURE() << "oracle: " << rows.status().ToString() << "\n" << sql;
      return {};
    }
    return std::move(rows.value());
  }

  Result<ExecResult> Run(const PlanNode& plan, ExecOptions opts) {
    Executor exec(*db_, std::move(opts));
    return exec.Execute(plan);
  }

  static Database* db_;
};

Database* BatchExecutorTest::db_ = nullptr;

// One query per operator family the factory builds; the plans cover table
// scans, index scans, filters, projections, joins (the planner picks
// nested-loop/hash/merge by cost; unnesting yields semi and null-aware anti
// joins), aggregation with and without GROUP BY, sort, distinct, set ops,
// ROWNUM limits, windows, and TIS subquery filters.
const char* kOperatorQueries[] = {
    // Scan + filter + projection arithmetic.
    "SELECT e.emp_id + 1, e.salary * 2 FROM employees e WHERE e.salary > "
    "60000",
    // Join (equi), two tables.
    "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
    "WHERE e.emp_id = j.emp_id",
    // Semi join via EXISTS (unnested).
    "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 FROM "
    "employees e WHERE e.dept_id = d.dept_id AND e.salary > 70000)",
    // Null-aware anti join via NOT IN.
    "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN "
    "(SELECT d.dept_id FROM departments d WHERE d.budget > 300000)",
    // Correlated scalar subquery kept as a TIS subquery filter.
    "SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT "
    "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)",
    // Grouped aggregation with HAVING.
    "SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e GROUP BY "
    "e.dept_id HAVING COUNT(*) > 3",
    // Scalar aggregate over an empty input.
    "SELECT COUNT(*), SUM(e.salary) FROM employees e WHERE e.salary < 0",
    // Sort with NULL ordering.
    "SELECT e.employee_name, e.salary FROM employees e ORDER BY e.salary "
    "DESC",
    // Distinct.
    "SELECT DISTINCT e.dept_id FROM employees e",
    // Set operation.
    "SELECT e.emp_id FROM employees e UNION SELECT j.emp_id FROM "
    "job_history j",
    // ROWNUM limit (lazy filter semantics).
    "SELECT e.emp_id FROM employees e WHERE rownum <= 7",
    // Window function (running aggregate over partitions).
    "SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id ORDER BY "
    "e.emp_id) FROM employees e",
};

TEST_F(BatchExecutorTest, MatchesOracleAcrossBatchSizes) {
  for (const char* sql : kOperatorQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExecOptions opts;
      opts.batch_size = batch;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << "\nbatch=" << batch << "\n" << sql;
      ExpectSameRows(std::move(result.value().rows), expected,
                     std::string(sql) + " batch=" + std::to_string(batch));
      EXPECT_GT(result.value().stats.rows_processed, 0) << sql;
      EXPECT_GT(result.value().stats.batches, 0) << sql;
    }
  }
}

// ---------------------------------------------------------------------------
// Spill-to-disk pipeline breakers
// ---------------------------------------------------------------------------

// Pipeline breakers that must degrade to disk under a tiny memory budget:
// sort buffer, hash-join build side, aggregation table, distinct set.
const char* kSpillQueries[] = {
    "SELECT j.emp_id, j.job_title FROM job_history j ORDER BY j.job_title",
    "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
    "WHERE e.emp_id = j.emp_id",
    "SELECT j.emp_id, COUNT(*) FROM job_history j GROUP BY j.emp_id",
    "SELECT DISTINCT j.emp_id, j.dept_id FROM job_history j",
};

constexpr int64_t kTinyBudgetBytes = 8192;

TEST_F(BatchExecutorTest, SpillCompletesWherePreviouslyResourceExhausted) {
  for (const char* sql : kSpillQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);

    // Leg 1: spill disabled — the budgeted query must fail with the typed
    // kResourceExhausted (the pre-spill behaviour).
    {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.enable_spill = false;
      auto result = Run(*plan, std::move(opts));
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << sql;
    }

    // Leg 2: spill enabled — the same query under the same budget completes
    // with identical rows, reporting spill activity.
    {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.enable_spill = true;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
      EXPECT_GE(result.value().stats.spilled_operators, 1) << sql;
      EXPECT_GT(result.value().stats.spill.bytes_written, 0) << sql;
      EXPECT_GT(result.value().stats.spill.bytes_read, 0) << sql;
      ExpectSameRows(std::move(result.value().rows), expected, sql);
    }
  }
}

TEST_F(BatchExecutorTest, SpillMatchesOracleAcrossBatchSizes) {
  for (const char* sql : kSpillQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.batch_size = batch;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << "\nbatch=" << batch << "\n" << sql;
      ExpectSameRows(std::move(result.value().rows), expected,
                     std::string(sql) + " batch=" + std::to_string(batch));
    }
  }
}

TEST_F(BatchExecutorTest, SpillFilesAreRemovedAfterExecution) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  std::string dir = ::testing::TempDir() + "cbqt-spill-test";
  {
    MemoryTracker tracker("query", kTinyBudgetBytes);
    ExecOptions opts;
    opts.guards.memory = &tracker;
    opts.spill_dir = dir;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result.value().stats.spill.files, 1);
  }
  // The per-query spill subdirectory (and every temp file in it) is gone.
  namespace fs = std::filesystem;
  if (fs::exists(dir)) {
    EXPECT_TRUE(fs::is_empty(dir));
  }
}

// ---------------------------------------------------------------------------
// Guardrails at batch granularity
// ---------------------------------------------------------------------------

TEST_F(BatchExecutorTest, CancellationLandsMidBatchStream) {
  auto plan = Plan(kOperatorQueries[1]);  // join: plenty of batches
  ASSERT_NE(plan, nullptr);
  CancellationToken token;
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {5};  // trips at the sixth guardrail poll — mid-execution
  faults.Arm(FaultSite::kCancelAt, spec);
  ExecOptions opts;
  opts.guards.cancel = &token;
  opts.guards.faults = &faults;
  opts.batch_size = 3;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.cancelled());
}

TEST_F(BatchExecutorTest, SpillWriteFaultFailsExecutionTyped) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  MemoryTracker tracker("query", kTinyBudgetBytes);
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {0};  // the very first spilled row's write
  faults.Arm(FaultSite::kExecSpillWrite, spec);
  ExecOptions opts;
  opts.guards.memory = &tracker;
  opts.guards.faults = &faults;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(faults.hits(FaultSite::kExecSpillWrite), 1);
}

TEST_F(BatchExecutorTest, SpillReadFaultFailsExecutionTyped) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  MemoryTracker tracker("query", kTinyBudgetBytes);
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {0};  // the first row read back from a spill partition
  faults.Arm(FaultSite::kExecSpillRead, spec);
  ExecOptions opts;
  opts.guards.memory = &tracker;
  opts.guards.faults = &faults;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_GE(faults.hits(FaultSite::kExecSpillRead), 1);
}

// ---------------------------------------------------------------------------
// Stats and counting equivalence
// ---------------------------------------------------------------------------

TEST_F(BatchExecutorTest, RowsProcessedIsBatchSizeInvariant) {
  // CountBatch(n) must total exactly what per-row counting produced: the
  // work measure is a property of the plan and data, not of the batching.
  auto plan = Plan(kOperatorQueries[1]);
  ASSERT_NE(plan, nullptr);
  int64_t baseline = -1;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
    ExecOptions opts;
    opts.batch_size = batch;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (baseline < 0) {
      baseline = result.value().stats.rows_processed;
    } else {
      EXPECT_EQ(result.value().stats.rows_processed, baseline)
          << "batch=" << batch;
    }
  }
  EXPECT_GT(baseline, 0);
}

TEST_F(BatchExecutorTest, SubqueryCachingSurvivesBatching) {
  // The TIS resolver caches per correlation key; with few distinct keys the
  // cache hit counter must dominate regardless of batch size.
  const char* sql = kOperatorQueries[4];
  auto plan = Plan(sql);
  ASSERT_NE(plan, nullptr);
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    ExecOptions opts;
    opts.batch_size = batch;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result.value().stats.subquery_executions > 0) {
      EXPECT_GT(result.value().stats.subquery_cache_hits,
                result.value().stats.subquery_executions);
    }
  }
}

// The first node of `op` in `plan`, in pre-order over children, or null.
const PlanNode* FindOp(const PlanNode& plan, PlanOp op) {
  if (plan.op == op) return &plan;
  for (const auto& c : plan.children) {
    if (const PlanNode* n = FindOp(*c, op)) return n;
  }
  return nullptr;
}

// The buffers an operator drains whole before it emits a row are charged to
// the query's memory budget as they fill: a window's input, a set
// operation's inputs, a nested-loop join's cached right side and a
// grouping-sets aggregate's input. The query's peak is at least the bytes of
// the drained rows, less the one charge quantum a reservation may hold back,
// and a budget below them fails the query typed (those buffers do not
// spill).
TEST_F(BatchExecutorTest, DrainedInputsAreChargedToTheQueryBudget) {
  const struct {
    const char* sql;
    PlanOp op;
  } cases[] = {
      {"SELECT e.emp_id, e.dept_id, SUM(e.salary) OVER (PARTITION BY "
       "e.dept_id ORDER BY e.emp_id) FROM employees e",
       PlanOp::kWindow},
      {"SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 60000 "
       "UNION ALL SELECT e.emp_id, e.salary FROM employees e WHERE e.salary "
       "<= 60000",
       PlanOp::kSetOp},
      {"SELECT d.dept_name, e.emp_id FROM departments d, employees e WHERE "
       "e.salary > d.budget",
       PlanOp::kNestedLoopJoin},
      {"SELECT e.dept_id, e.job_id, COUNT(*) FROM employees e GROUP BY "
       "GROUPING SETS ((e.dept_id), (e.job_id))",
       PlanOp::kAggregate},
  };
  for (const auto& c : cases) {
    CbqtConfig cfg;
    cfg.guardrails.query_memory_bytes = int64_t{1} << 30;
    QueryEngine engine(*db_, cfg);
    auto run = engine.Run(c.sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString() << "\n" << c.sql;

    // The drained rows: the inputs of the operator in the plan the engine
    // ran, with the scan columns narrowed as the executor narrows them.
    const PlanNode& plan = *run->prepared.plan;
    PlanPtr pruned = PruneScanColumns(plan);
    const PlanNode* node = FindOp(pruned != nullptr ? *pruned : plan, c.op);
    ASSERT_NE(node, nullptr) << c.sql;
    std::vector<const PlanNode*> drained;
    for (const auto& child : node->children) drained.push_back(child.get());
    if (c.op == PlanOp::kNestedLoopJoin) {
      ASSERT_FALSE(node->rescan_right) << c.sql;
      drained.erase(drained.begin());  // the streamed left side
    } else if (c.op == PlanOp::kAggregate) {
      ASSERT_GT(node->grouping_sets.size(), size_t{1}) << c.sql;
    }
    int64_t bytes = 0;
    for (const PlanNode* d : drained) {
      auto rows = Run(*d, ExecOptions{});
      ASSERT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << c.sql;
      for (const Row& r : rows.value().rows) bytes += EstimateRowBytes(r);
    }
    ASSERT_GT(bytes, 4 * ExecContext::kChargeQuantumBytes) << c.sql;
    EXPECT_GT(run->peak_memory_bytes,
              bytes - ExecContext::kChargeQuantumBytes)
        << c.sql;

    cfg.guardrails.query_memory_bytes = bytes / 2;
    QueryEngine tight(*db_, cfg);
    auto failed = tight.Run(c.sql);
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
        << failed.status().ToString() << "\n" << c.sql;
  }
}

// Every node's output schema, in pre-order over children and subplans.
void CollectOutputs(const PlanNode& node, std::vector<Schema>* out) {
  out->push_back(node.output);
  for (const auto& c : node.children) CollectOutputs(*c, out);
  for (const auto& s : node.subplans) CollectOutputs(*s, out);
}

bool SameSchemas(const std::vector<Schema>& a, const std::vector<Schema>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].alias != b[i][j].alias || a[i][j].name != b[i][j].name) {
        return false;
      }
    }
  }
  return true;
}

TEST_F(BatchExecutorTest, ExecuteLeavesItsPlanUnchanged) {
  // Plans are shared (plan-cache entries, annotation caches), so column
  // pruning must narrow a copy, never the plan it was handed.
  int narrowed = 0;
  for (const char* sql : kOperatorQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Schema> before;
    CollectOutputs(*plan, &before);
    if (PruneScanColumns(*plan) != nullptr) ++narrowed;
    auto result = Run(*plan, ExecOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    std::vector<Schema> after;
    CollectOutputs(*plan, &after);
    EXPECT_TRUE(SameSchemas(before, after)) << sql;
  }
  // The check means something only where pruning narrows a scan.
  EXPECT_GT(narrowed, 0);
}

TEST_F(BatchExecutorTest, ConcurrentExecutionsShareOneCachedPlan) {
  CbqtConfig config;
  config.plan_cache.capacity = 64;
  QueryEngine engine(*db_, config);
  for (const char* sql : kOperatorQueries) {
    auto first = engine.Prepare(sql);
    ASSERT_TRUE(first.ok()) << first.status().ToString() << "\n" << sql;
    const PlanPtr cached = first->plan;
    auto expected = engine.Execute(std::move(first.value()));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    constexpr int kThreads = 4;
    std::vector<std::vector<Row>> rows(kThreads);
    std::vector<int> shared(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep) {
          auto prepared = engine.Prepare(sql);
          if (!prepared.ok()) return;
          shared[static_cast<size_t>(t)] = prepared->plan == cached ? 1 : 0;
          auto result = engine.Execute(std::move(prepared.value()));
          if (!result.ok()) return;
          rows[static_cast<size_t>(t)] = std::move(result->rows);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      // Exact order: the same plan over the same data.
      EXPECT_EQ(rows[static_cast<size_t>(t)], expected->rows)
          << "thread " << t << ": " << sql;
    }
    // A statement without literals is served the cached plan itself.
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok());
    if (ParameterizeQuery(parsed.value().get()).params.empty()) {
      for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(shared[static_cast<size_t>(t)], 1) << sql;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scan filter kernels
// ---------------------------------------------------------------------------

// One table whose columns hold every value kind: i holds int64 values at and
// beyond 2^53, r NaNs of either sign and with a payload, the infinities and
// -0.0, x (declared Int) values of every kind. Each column cycles through its
// list at its own period, so the rows mix them. The kernel path must keep
// exactly the rows the tree evaluator keeps, in table (or index) order, count
// the same candidates, and agree with the reference interpreter.
class ScanKernelTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 90;

  static void SetUpTestSuite() {
    db_ = new Database();
    TableDef def;
    def.name = "kt";
    def.columns = {ColumnDef{"id", DataType::kInt64, false},
                   ColumnDef{"g", DataType::kInt64, false},
                   ColumnDef{"i", DataType::kInt64, true},
                   ColumnDef{"r", DataType::kDouble, true},
                   ColumnDef{"s", DataType::kString, true},
                   ColumnDef{"b", DataType::kBool, true},
                   ColumnDef{"x", DataType::kInt64, true}};
    def.indexes = {IndexDef{"kt_g", {"g"}, false}};
    ASSERT_TRUE(db_->CreateTable(std::move(def)).ok());
    const int64_t p53 = int64_t{1} << 53;
    const Value null = Value::Null();
    const std::vector<Value> ints = {
        Value::Int(0),        Value::Int(3),
        Value::Int(-7),       Value::Int(p53),
        Value::Int(p53 + 1),  Value::Int(-(p53 + 1)),
        Value::Int(std::numeric_limits<int64_t>::max()),
        Value::Int(std::numeric_limits<int64_t>::min()),
        Value::Int(2),        null};
    const double inf = std::numeric_limits<double>::infinity();
    // An odd count, so (k * 2) % size reaches every entry.
    const std::vector<Value> reals = {
        Value::Real(2.0),  Value::Real(2.5),
        Value::Real(std::nan("")), Value::Real(-0.0),
        Value::Real(1e300), Value::Real(3.0),
        Value::Real(-2.5), null,
        Value::Real(9007199254740992.0), Value::Real(-std::nan("")),
        Value::Real(inf), Value::Real(std::nan("7")),
        Value::Real(-inf)};
    const std::vector<Value> strs = {Value::Str(""),  Value::Str("a"),
                                     Value::Str("b"), Value::Str("ab"),
                                     Value::Str("B"), null,
                                     Value::Str("ba")};
    const std::vector<Value> bools = {Value::Boolean(true),
                                      Value::Boolean(false), null};
    const std::vector<Value> mixed = {
        Value::Int(2),     Value::Real(2.0),      Value::Str("2"),
        Value::Boolean(true), null,               Value::Int(5),
        Value::Real(std::nan("")), Value::Str("a")};
    std::vector<Row> rows;
    for (size_t k = 0; k < kRows; ++k) {
      rows.push_back({Value::Int(static_cast<int64_t>(k)),
                      Value::Int(static_cast<int64_t>(k % 3)),
                      ints[k % ints.size()], reals[(k * 2) % reals.size()],
                      strs[k % strs.size()], bools[(k / 2) % bools.size()],
                      mixed[k % mixed.size()]});
    }
    ASSERT_TRUE(db_->InsertBulk("kt", std::move(rows)).ok());
    ASSERT_TRUE(db_->BuildIndexes("kt").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::string Select(const std::string& where) {
    return "SELECT kt.id, kt.g, kt.i, kt.r, kt.s, kt.b, kt.x, kt.rowid FROM "
           "kt WHERE " + where;
  }

  /// Replaces every literal under `e` with `v`: a NaN or an infinity, which
  /// no SQL literal spells.
  static void SetLiterals(Expr* e, const Value& v) {
    if (e->kind == ExprKind::kLiteral) e->literal = v;
    for (auto& c : e->children) SetLiterals(c.get(), v);
  }

  /// A table scan of kt (index scan on kt_g = `g` when `g` >= 0) whose
  /// output is every column plus rowid, filtered by the bound conjuncts of
  /// `where`, with every literal set to `*constant` when one is given. Also
  /// returns those conjuncts' candidate rowids, in scan order.
  static std::unique_ptr<PlanNode> Scan(const std::string& where, int64_t g,
                                        std::vector<int64_t>* candidates,
                                        const Value* constant = nullptr) {
    auto qb = ParseAndBind(*db_, Select(where));
    if (qb == nullptr) return nullptr;
    if (constant != nullptr) {
      for (auto& w : qb->where) SetLiterals(w.get(), *constant);
    }
    auto n = std::make_unique<PlanNode>(g >= 0 ? PlanOp::kIndexScan
                                               : PlanOp::kTableScan);
    n->table_name = "kt";
    n->table_alias = "kt";
    for (const auto& c : db_->FindTable("kt")->def().columns) {
      n->output.push_back(ColumnSlot{"kt", c.name, c.type});
    }
    n->output.push_back(ColumnSlot{"kt", "rowid", DataType::kInt64});
    for (const auto& w : qb->where) n->filter.push_back(w->Clone());
    candidates->clear();
    if (g >= 0) {
      n->index_name = "kt_g";
      n->probes.push_back(MakeLiteral(Value::Int(g)));
      db_->FindIndex("kt", "kt_g")->LookupEqual({Value::Int(g)}, candidates);
    } else {
      for (int64_t r = 0; r < kRows; ++r) candidates->push_back(r);
    }
    return n;
  }

  /// The rows the tree evaluator keeps: each candidate stored row plus its
  /// rowid, tested conjunct by conjunct with EvalExpr.
  static std::vector<Row> TreeRows(const PlanNode& scan,
                                   const std::vector<int64_t>& candidates) {
    std::vector<Row> out;
    const Table* table = db_->FindTable("kt");
    for (int64_t rowid : candidates) {
      Row r = table->RowAt(static_cast<size_t>(rowid));
      r.push_back(Value::Int(rowid));
      EvalContext ctx;
      ctx.frames.push_back(Frame{&scan.output, &r});
      bool pass = true;
      for (const auto& f : scan.filter) {
        auto v = EvalExpr(*f, ctx);
        EXPECT_TRUE(v.ok()) << v.status().ToString();
        if (!v.ok() || !IsTruthy(v.value())) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(std::move(r));
    }
    return out;
  }

  /// Runs the scan for `where` at batch sizes 1, 3 and 1024 against the tree
  /// evaluator (same rows in the same order, one count per candidate) and
  /// the reference interpreter (same rows). With a `constant` (table scans
  /// only), every literal of `where` takes its value.
  static void Check(const std::string& where, int64_t g = -1,
                    const Value* constant = nullptr) {
    ASSERT_TRUE(constant == nullptr || g < 0) << where;
    std::vector<int64_t> candidates;
    auto scan = Scan(where, g, &candidates, constant);
    ASSERT_NE(scan, nullptr) << where;
    const std::vector<Row> tree = TreeRows(*scan, candidates);
    std::string sql = g >= 0 ? Select("kt.g = " + std::to_string(g) +
                                      " AND (" + where + ")")
                             : Select(where);
    auto qb = ParseAndBind(*db_, sql);
    ASSERT_NE(qb, nullptr) << sql;
    if (constant != nullptr) {
      for (auto& w : qb->where) SetLiterals(w.get(), *constant);
    }
    ReferenceExecutor reference(*db_);
    auto ref = reference.Execute(*qb);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
    EXPECT_TRUE(IdenticalRows(ById(ref.value()), ById(tree)))
        << "reference vs tree: " << sql;
    ExpectSameRows(ref.value(), tree, "reference vs tree: " + sql);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExecOptions opts;
      opts.batch_size = batch;
      Executor exec(*db_, std::move(opts));
      auto got = exec.Execute(*scan);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << where;
      const std::string label = where + " batch=" + std::to_string(batch);
      EXPECT_TRUE(IdenticalRows(got.value().rows, tree)) << label;
      EXPECT_EQ(got.value().stats.rows_processed,
                static_cast<int64_t>(candidates.size()))
          << label;
    }
  }

  /// `rows` ordered by their id column (unique).
  static std::vector<Row> ById(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
      return x[0].AsInt() < y[0].AsInt();
    });
    return rows;
  }

  static Database* db_;
};

Database* ScanKernelTest::db_ = nullptr;

const char* const kCompareOps[] = {"=", "<>", "<", "<=", ">", ">="};

// `$` stands for the comparison op.
const char* const kKernelShapes[] = {
    "kt.i $ 3",          "3 $ kt.i",
    "kt.i $ 9007199254740993",  "9007199254740993 $ kt.i",
    "kt.i $ 2.5",        "2.5 $ kt.i",
    "kt.r $ 2",          "2 $ kt.r",
    "kt.r $ 2.5",        "0 $ kt.r",
    "kt.s $ 'ab'",       "'ab' $ kt.s",
    "kt.s $ ''",         "kt.b $ TRUE",
    "FALSE $ kt.b",      "kt.x $ 2",
    "kt.x $ 'a'",        "kt.x $ TRUE",
};

std::string WithOp(const std::string& shape, const std::string& op) {
  std::string out = shape;
  out.replace(out.find('$'), 1, op);
  return out;
}

// The verdict of `x <op> c` under Oracle's BINARY_DOUBLE rule, spelled out:
// a NaN equals a NaN and is greater than every other number.
bool NumericRuleHolds(const std::string& op, double x, double c) {
  const bool x_nan = std::isnan(x);
  const bool c_nan = std::isnan(c);
  const int order = x_nan || c_nan ? (x_nan ? 1 : 0) - (c_nan ? 1 : 0)
                                   : (x < c ? -1 : (x == c ? 0 : 1));
  if (op == "=") return order == 0;
  if (op == "<>") return order != 0;
  if (op == "<") return order < 0;
  if (op == "<=") return order <= 0;
  if (op == ">") return order > 0;
  return order >= 0;
}

// The rows of kt whose r passes `r <op> c` by NumericRuleHolds, by id.
std::vector<int64_t> RuleRows(const Table& table, const std::string& op,
                              double c) {
  std::vector<int64_t> ids;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Value v = table.RowAt(r)[3];
    if (!v.is_null() && NumericRuleHolds(op, v.AsDouble(), c)) {
      ids.push_back(static_cast<int64_t>(r));
    }
  }
  return ids;
}

TEST_F(ScanKernelTest, EveryOpConstantSideAndKindMatchesTreeEvaluator) {
  for (const char* shape : kKernelShapes) {
    for (const char* op : kCompareOps) Check(WithOp(shape, op));
  }
  // Constants against the stored NaNs, infinities and numbers, among them
  // ones no SQL literal spells: a NaN (which the kernel settles once) and
  // the infinities. On r the kernel keeps exactly the rows the rule itself
  // picks, at batch sizes 1 and 1024.
  const double inf = std::numeric_limits<double>::infinity();
  for (double c : {std::nan(""), -std::nan(""), 2.0, inf, -inf}) {
    const Value constant = Value::Real(c);
    for (const char* shape :
         {"kt.r $ 0.5", "0.5 $ kt.r", "kt.i $ 0.5", "kt.x $ 0.5"}) {
      for (const char* op : kCompareOps) {
        Check(WithOp(shape, op), -1, &constant);
      }
    }
    for (const char* op : kCompareOps) {
      std::vector<int64_t> candidates;
      auto scan = Scan(WithOp("kt.r $ 0.5", op), -1, &candidates, &constant);
      ASSERT_NE(scan, nullptr);
      const std::vector<int64_t> expected =
          RuleRows(*db_->FindTable("kt"), op, c);
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        ExecOptions opts;
        opts.batch_size = batch;
        Executor exec(*db_, std::move(opts));
        auto got = exec.Execute(*scan);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        std::vector<int64_t> kept;
        for (const Row& row : got.value().rows) kept.push_back(row[0].AsInt());
        EXPECT_EQ(kept, expected)
            << "kt.r " << op << " " << c << " batch=" << batch;
      }
    }
  }
}

// Kernels next to conjuncts that stay on the compiled path (arithmetic,
// CASE, slot against slot, NULL constant) or keep the whole filter off the
// stored layout (function call, rowid).
const char* const kMixedFilters[] = {
    "kt.i > 0 AND kt.i + 1 > 3",
    "kt.s >= 'a' AND CASE WHEN kt.b THEN kt.i ELSE 0 END > 2",
    "kt.r > 2 AND UPPER(kt.s) = 'B'",
    "kt.i <> 0 AND kt.rowid < 30",
    "kt.r <= 3 AND kt.i >= 0 AND kt.s <> 'a'",
    "kt.i IS NOT NULL AND kt.x = 2 AND NOT (kt.r = 2)",
    "kt.r = kt.i AND kt.g = 1",
    "kt.i > NULL AND kt.r > 0",
    "kt.b = TRUE AND (kt.s = 'a' OR kt.r < 0)",
};

TEST_F(ScanKernelTest, KernelsMixedWithResidualConjunctsMatchTreeEvaluator) {
  for (const char* where : kMixedFilters) Check(where);
}

TEST_F(ScanKernelTest, IndexScanWithPushedFilterMatchesTreeEvaluator) {
  for (int64_t g : {int64_t{0}, int64_t{1}, int64_t{2}}) {
    for (const char* where : kMixedFilters) Check(where, g);
    for (const char* op : kCompareOps) {
      Check(WithOp("kt.r $ 2", op), g);
      Check(WithOp("'ab' $ kt.s", op), g);
    }
  }
}

TEST(FilterKernelForm, SlotCompareConstantWithTheConstantOnEitherSide) {
  Schema schema = {ColumnSlot{"t", "a", DataType::kInt64},
                   ColumnSlot{"t", "b", DataType::kInt64}};
  auto col = [] { return MakeColumnRef("t", "b"); };
  auto lit = [] { return MakeLiteral(Value::Int(4)); };
  int slot = -1;
  BinaryOp op = BinaryOp::kEq;
  const Value* c = nullptr;
  auto e = MakeBinary(BinaryOp::kLt, col(), lit());
  // `c` points into the compiled program, so the program must outlive it.
  const CompiledExpr compiled = CompiledExpr::Compile(e.get(), &schema);
  ASSERT_TRUE(compiled.AsSlotCompare(&slot, &op, &c));
  EXPECT_EQ(slot, 1);
  EXPECT_EQ(op, BinaryOp::kLt);
  EXPECT_EQ(*c, Value::Int(4));
  // 4 < t.b reads as t.b > 4.
  e = MakeBinary(BinaryOp::kLt, lit(), col());
  ASSERT_TRUE(CompiledExpr::Compile(e.get(), &schema)
                  .AsSlotCompare(&slot, &op, &c));
  EXPECT_EQ(op, BinaryOp::kGt);
  e = MakeBinary(BinaryOp::kGe, lit(), col());
  ASSERT_TRUE(CompiledExpr::Compile(e.get(), &schema)
                  .AsSlotCompare(&slot, &op, &c));
  EXPECT_EQ(op, BinaryOp::kLe);
  // Not kernels: a NULL constant, slot against slot, arithmetic.
  e = MakeBinary(BinaryOp::kEq, col(), MakeLiteral(Value::Null()));
  EXPECT_FALSE(CompiledExpr::Compile(e.get(), &schema)
                   .AsSlotCompare(&slot, &op, &c));
  e = MakeBinary(BinaryOp::kEq, col(), MakeColumnRef("t", "a"));
  EXPECT_FALSE(CompiledExpr::Compile(e.get(), &schema)
                   .AsSlotCompare(&slot, &op, &c));
  e = MakeBinary(BinaryOp::kAdd, col(), lit());
  EXPECT_FALSE(CompiledExpr::Compile(e.get(), &schema)
                   .AsSlotCompare(&slot, &op, &c));
  // A plain column read is a one-slot key; anything else is not.
  EXPECT_EQ(CompiledExpr::Compile(col().get(), &schema).AsSlot(), 1);
  EXPECT_EQ(CompiledExpr::Compile(lit().get(), &schema).AsSlot(), -1);
}

// ---------------------------------------------------------------------------
// Outer-bound scan kernels (tuple-iteration subqueries)
// ---------------------------------------------------------------------------

// A copy of `node` whose table scans of alias `alias` are index scans of kt_g
// probing `g`. The subquery's own `alias.g = g` conjunct keeps its rows.
PlanPtr WithIndexScans(const PlanNode& node, const std::string& alias,
                       int64_t g) {
  std::unique_ptr<PlanNode> copy = node.Clone();
  if (copy->op == PlanOp::kTableScan && copy->table_alias == alias) {
    copy->op = PlanOp::kIndexScan;
    copy->index_name = "kt_g";
    copy->probes.clear();
    copy->probes.push_back(MakeLiteral(Value::Int(g)));
  }
  for (auto& c : copy->children) c = WithIndexScans(*c, alias, g);
  for (auto& s : copy->subplans) s = WithIndexScans(*s, alias, g);
  return copy;
}

// The correlated conjunct of the inner scan `i` of kt, where `$` is the
// comparison op and `o` the outer row of kt: the inner column on either
// side; outer values of every kind, among them int64s at and beyond 2^53,
// NaNs, the infinities and NULLs; outer arithmetic; a string the inner
// column's dictionary lacks (o.x's '2'); and an outer value of another kind
// than the inner column (a number against i.s, a string against i.i).
const char* const kOuterBoundShapes[] = {
    "i.i $ o.i",     "o.i $ i.i",     "i.r $ o.r", "o.r $ i.r",
    "i.r $ o.i + 1", "o.r * 2 $ i.i", "i.s $ o.s", "o.x $ i.s",
    "i.s $ o.i",     "i.i $ o.x",     "i.b $ o.b", "i.x $ o.r",
};

// Correlated EXISTS and scalar-aggregate subqueries kept under
// tuple-iteration semantics (unnesting off): the inner scan tests the
// correlated conjunct as a kernel whose constant is the outer row's value,
// bound afresh each time the subplan re-opens for a new correlation key.
// Every op and shape, in table scans and in index scans, at batch sizes 1, 3
// and 1024, returns the reference interpreter's rows, and the one subplan
// tree re-opens for many keys.
TEST_F(ScanKernelTest, OuterBoundKernelsInReopenedSubplansMatchReference) {
  CbqtConfig cfg;
  cfg.transforms = cfg.transforms.Without(Transform::kUnnest);
  CbqtOptimizer optimizer(*db_, cfg);
  ReferenceExecutor reference(*db_);
  for (const char* shape : kOuterBoundShapes) {
    for (const char* op : kCompareOps) {
      for (int64_t g : {int64_t{-1}, int64_t{1}}) {
        const std::string pred =
            (g >= 0 ? "i.g = " + std::to_string(g) + " AND " : "") +
            WithOp(shape, op);
        for (const std::string& sql :
             {"SELECT o.id FROM kt o WHERE EXISTS (SELECT 1 FROM kt i WHERE " +
                  pred + ")",
              "SELECT o.id FROM kt o WHERE (SELECT SUM(i.id) FROM kt i "
              "WHERE " + pred + ") > o.id * 20"}) {
          auto qb = ParseAndBind(*db_, sql);
          ASSERT_NE(qb, nullptr) << sql;
          auto expected = reference.Execute(*qb);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString() << sql;
          auto opt = optimizer.Optimize(*qb);
          ASSERT_TRUE(opt.ok()) << opt.status().ToString() << "\n" << sql;
          PlanPtr plan = g >= 0 ? WithIndexScans(*opt->plan, "i", g)
                                : PlanPtr(std::move(opt->plan));
          const PlanNode* tis = FindOp(*plan, PlanOp::kSubqueryFilter);
          ASSERT_NE(tis, nullptr) << sql << "\n" << PlanToString(*plan);
          ASSERT_EQ(tis->subplans.size(), size_t{1}) << sql;
          ASSERT_NE(FindOp(*tis->subplans[0], g >= 0 ? PlanOp::kIndexScan
                                                     : PlanOp::kTableScan),
                    nullptr)
              << sql << "\n" << PlanToString(*plan);
          for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
            ExecOptions opts;
            opts.batch_size = batch;
            Executor exec(*db_, std::move(opts));
            auto got = exec.Execute(*plan);
            const std::string label = sql + " batch=" + std::to_string(batch);
            ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << label;
            EXPECT_TRUE(IdenticalRows(ById(got.value().rows),
                                      ById(expected.value())))
                << label << "\n" << PlanToString(*plan);
            EXPECT_GE(got.value().stats.subquery_executions, 3) << label;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hash-join build table
// ---------------------------------------------------------------------------

// Build tables hold (v, k); probe tables hold (id, k). v and id number the
// rows in input order, so an ordered compare pins which build rows matched
// each probe row and in what order. The same fixture checks the key table's
// other users — aggregate groups, COUNT(DISTINCT), DISTINCT and the set
// operations — on (v, k) tables whose k mixes value kinds.
class JoinTableTest : public ::testing::Test {
 protected:
  static constexpr int kBigBuildRows = 120000;
  static constexpr int kBigDistinctKeys = 110000;
  static constexpr int kBigProbeRows = 24;

  static void SetUpTestSuite() {
    db_ = new Database();
    const Value null = Value::Null();
    AddTable("jb", "v", DataType::kInt64,
             {{I(0), I(1)}, {I(1), I(2)}, {I(2), I(1)}, {I(3), null},
              {I(4), I(3)}, {I(5), I(1)}, {I(6), I(2)}});
    AddTable("jbn", "v", DataType::kInt64,
             {{I(0), I(1)}, {I(1), I(2)}, {I(2), I(1)}, {I(4), I(3)},
              {I(5), I(1)}, {I(6), I(2)}});
    AddTable("jp", "id", DataType::kInt64,
             {{I(0), I(1)}, {I(1), I(4)}, {I(2), null}, {I(3), I(2)},
              {I(4), I(1)}, {I(5), I(3)}});
    AddTable("jr", "v", DataType::kDouble,
             {{I(0), Value::Real(2.0)}, {I(1), Value::Real(2.5)},
              {I(2), Value::Real(3.0)}, {I(3), Value::Real(2.0)}});

    // kBigDistinctKeys distinct keys, then duplicates of keys 0..4999.
    std::vector<Row> big_build;
    for (int i = 0; i < kBigBuildRows; ++i) {
      int k = i < kBigDistinctKeys ? i : (i - kBigDistinctKeys) * 11 % 5000;
      big_build.push_back({I(i), I(k)});
    }
    AddTable("big_b", "v", DataType::kInt64, std::move(big_build));
    // Hits on unique and duplicated keys, misses past the key range, and
    // NULL keys.
    std::vector<Row> big_probe;
    for (int i = 0; i < kBigProbeRows; ++i) {
      Value k = i % 9 == 4 ? null : I(i * 17389 % 125000);
      big_probe.push_back({I(i), k});
    }
    AddTable("big_p", "id", DataType::kInt64, std::move(big_probe));

    // Enough build rows to spill under a few KB: keys 0..39 repeated, with
    // and without NULL keys; probe keys 0..49 (some miss) and NULLs.
    std::vector<Row> mid_build, mid_build_nn, mid_probe;
    for (int i = 0; i < 300; ++i) {
      mid_build.push_back({I(i), i % 13 == 5 ? null : I(i % 40)});
      mid_build_nn.push_back({I(i), I(i % 40)});
    }
    for (int i = 0; i < 80; ++i) {
      mid_probe.push_back({I(i), i % 9 == 2 ? null : I(i * 7 % 50)});
    }
    AddTable("mb", "v", DataType::kInt64, std::move(mid_build));
    AddTable("mbn", "v", DataType::kInt64, std::move(mid_build_nn));
    AddTable("mp", "id", DataType::kInt64, std::move(mid_probe));

    // Group keys of every kind: Int meeting Real both ways (3 then 3.0,
    // 2.0 then 2), NULLs, strings, a string that spells a number, bools;
    // v repeats so COUNT(DISTINCT v) differs from COUNT(*).
    const Value nan = Value::Real(std::nan(""));
    AddTable("gk", "v", DataType::kInt64,
             {{I(0), I(3)},     {I(1), S("b")},     {I(2), null},
              {I(0), R(2.0)},   {I(1), I(2)},       {I(2), S("a")},
              {I(0), I(3)},     {I(3), null},       {I(1), R(2.5)},
              {I(1), S("b")},   {I(4), I(7)},       {I(2), R(7.0)},
              {I(0), R(3.0)},   {I(5), S("2")},     {I(1), B(true)},
              {I(2), I(1)},     {I(6), B(true)},    {I(3), R(2.0)}});
    // NaN keys among strings and NULLs.
    AddTable("gn", "v", DataType::kInt64,
             {{I(0), nan},   {I(1), S("x")}, {I(2), null}, {I(3), nan},
              {I(0), S("y")}, {I(1), S("x")}, {I(2), null}, {I(4), nan}});
    // Int(2) meets Real(2.0), NULLs and NaNs of either sign, each twice or
    // more; a NaN sits between the equal numbers.
    const Value neg_nan = Value::Real(-std::nan(""));
    AddTable("gs", "v", DataType::kInt64,
             {{I(0), I(2)},   {I(1), R(2.0)},  {I(2), null}, {I(3), nan},
              {I(4), null},   {I(5), neg_nan}, {I(6), R(2.5)}, {I(7), I(2)}});
    // NaNs of every making (quiet, negative, with a payload, 0/0 computed
    // at run time) among numbers, as keys and in set-operation rows.
    volatile double zero = 0.0;
    const Value div_nan = Value::Real(zero / zero);
    const Value payload_nan = Value::Real(std::nan("7"));
    AddTable("gq", "v", DataType::kDouble,
             {{I(0), R(2.0)}, {I(1), nan},     {I(2), R(2.0)},
              {I(3), neg_nan}, {I(4), null},   {I(5), I(2)},
              {I(6), payload_nan}, {I(7), R(3.0)}, {I(8), div_nan}});
    AddTable("qa", "v", DataType::kDouble,
             {{I(1), R(2.0)}, {I(1), nan},  {I(1), R(2.0)}, {I(2), neg_nan},
              {I(1), payload_nan}, {I(2), R(3.0)}, {null, nan},
              {I(2), div_nan}});
    AddTable("qb", "v", DataType::kDouble,
             {{I(1), neg_nan}, {I(2), R(2.0)}, {I(2), I(3)},
              {null, payload_nan}, {I(3), nan}});
    // NaNs of every form among numbers out of order, the infinities and
    // NULLs: 24 rows, the 12 values twice.
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Value> mixed = {R(5.5),  nan,         R(-1.0), I(3),
                                      neg_nan, R(1e300),    R(-inf), payload_nan,
                                      R(inf),  null,        R(0.0),  div_nan};
    std::vector<Row> ordered;
    for (int i = 0; i < 24; ++i) ordered.push_back({I(i), mixed[i % 12]});
    AddTable("qo", "v", DataType::kDouble, std::move(ordered));
    // Set-operation inputs: duplicates and NULLs on both sides, and
    // (2, 'x') in sa meeting (2.0, 'x') in sb.
    AddTable("sa", "v", DataType::kInt64,
             {{I(1), null},  {I(1), null},   {I(2), S("x")}, {null, null},
              {I(2), S("x")}, {I(3), S("y")}, {null, S("z")}, {I(4), S("w")},
              {null, null},   {I(3), S("y")}});
    AddTable("sb", "v", DataType::kInt64,
             {{R(2.0), S("x")}, {null, null},   {null, null}, {I(1), S("q")},
              {I(4), S("w")},   {I(4), S("w")}, {I(5), null}});
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Value I(int64_t v) { return Value::Int(v); }
  static Value R(double v) { return Value::Real(v); }
  static Value S(const char* v) { return Value::Str(v); }
  static Value B(bool v) { return Value::Boolean(v); }

  static void AddTable(const std::string& name, const std::string& first,
                       DataType key_type, std::vector<Row> rows) {
    TableDef def;
    def.name = name;
    def.columns = {ColumnDef{first, DataType::kInt64, true},
                   ColumnDef{"k", key_type, true}};
    ASSERT_TRUE(db_->CreateTable(std::move(def)).ok()) << name;
    ASSERT_TRUE(db_->InsertBulk(name, std::move(rows)).ok()) << name;
  }

  static std::unique_ptr<PlanNode> Scan(const std::string& table) {
    auto n = std::make_unique<PlanNode>(PlanOp::kTableScan);
    n->table_name = table;
    n->table_alias = table;
    for (const auto& c : db_->FindTable(table)->def().columns) {
      n->output.push_back(ColumnSlot{table, c.name, c.type});
    }
    return n;
  }

  /// probe JOIN build ON probe.k = build.k, built on `build`.
  static std::unique_ptr<PlanNode> HashJoin(JoinKind kind,
                                            const std::string& probe,
                                            const std::string& build) {
    auto n = std::make_unique<PlanNode>(PlanOp::kHashJoin);
    n->join_kind = kind;
    n->null_aware = kind == JoinKind::kAntiNA;
    n->children.push_back(Scan(probe));
    n->children.push_back(Scan(build));
    n->output = n->children[0]->output;
    if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
      const Schema& right = n->children[1]->output;
      n->output.insert(n->output.end(), right.begin(), right.end());
    }
    n->hash_left_keys.push_back(MakeColumnRef(probe, "k"));
    n->hash_right_keys.push_back(MakeColumnRef(build, "k"));
    return n;
  }

  static std::vector<Row> Execute(const PlanNode& plan, ExecOptions opts) {
    Executor exec(*db_, std::move(opts));
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    return std::move(result.value().rows);
  }

  /// SELECT table.k, aggs... FROM table GROUP BY table.k; no key when
  /// `grouped` is false.
  static std::unique_ptr<PlanNode> Aggregate(const std::string& table,
                                             std::vector<ExprPtr> aggs,
                                             bool grouped = true) {
    auto n = std::make_unique<PlanNode>(PlanOp::kAggregate);
    if (grouped) {
      n->group_keys.push_back(MakeColumnRef(table, "k"));
      n->output.push_back(ColumnSlot{"", "k", DataType::kUnknown});
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      n->output.push_back(
          ColumnSlot{"", "a" + std::to_string(a), DataType::kUnknown});
    }
    n->agg_exprs = std::move(aggs);
    n->children.push_back(Scan(table));
    return n;
  }

  /// SELECT DISTINCT table.k FROM table.
  static std::unique_ptr<PlanNode> DistinctK(const std::string& table) {
    auto project = std::make_unique<PlanNode>(PlanOp::kProject);
    project->children.push_back(Scan(table));
    project->projections.push_back(MakeColumnRef(table, "k"));
    project->output = {ColumnSlot{table, "k", DataType::kUnknown}};
    auto n = std::make_unique<PlanNode>(PlanOp::kDistinct);
    n->output = project->output;
    n->children.push_back(std::move(project));
    return n;
  }

  /// Runs `plan` in memory at batch sizes 1, 3 and 1024 and requires
  /// exactly `expected`, in order.
  static void ExpectOrderedRows(const PlanNode& plan,
                                const std::vector<Row>& expected,
                                const std::string& label) {
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExecOptions opts;
      opts.batch_size = batch;
      std::vector<Row> got = Execute(plan, std::move(opts));
      EXPECT_EQ(Render(got), Render(expected))
          << label << " batch=" << batch;
      EXPECT_TRUE(IdenticalRows(got, expected))
          << label << " batch=" << batch;
    }
  }

  static std::string Render(const std::vector<Row>& rows) {
    std::ostringstream out;
    for (const Row& r : rows) {
      for (const Value& v : r) out << v.ToString() << " ";
      out << "\n";
    }
    return out.str();
  }

  /// The reference interpreter's rows for `sql`.
  static std::vector<Row> Reference(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return {};
    ReferenceExecutor reference(*db_);
    auto rows = reference.Execute(*qb);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << sql;
    if (!rows.ok()) return {};
    return std::move(rows.value());
  }

  static Database* db_;
};

Database* JoinTableTest::db_ = nullptr;

TEST_F(JoinTableTest, InnerJoinEmitsMatchesInBuildOrder) {
  const Value n = Value::Null();
  // Per probe row (probe order), its build matches in build-input order;
  // the NULL build key and the NULL probe key match nothing.
  ExpectOrderedRows(*HashJoin(JoinKind::kInner, "jp", "jb"),
                    {{I(0), I(1), I(0), I(1)},
                     {I(0), I(1), I(2), I(1)},
                     {I(0), I(1), I(5), I(1)},
                     {I(3), I(2), I(1), I(2)},
                     {I(3), I(2), I(6), I(2)},
                     {I(4), I(1), I(0), I(1)},
                     {I(4), I(1), I(2), I(1)},
                     {I(4), I(1), I(5), I(1)},
                     {I(5), I(3), I(4), I(3)}},
                    "inner");
  ExpectOrderedRows(*HashJoin(JoinKind::kLeftOuter, "jp", "jb"),
                    {{I(0), I(1), I(0), I(1)},
                     {I(0), I(1), I(2), I(1)},
                     {I(0), I(1), I(5), I(1)},
                     {I(1), I(4), n, n},
                     {I(2), n, n, n},
                     {I(3), I(2), I(1), I(2)},
                     {I(3), I(2), I(6), I(2)},
                     {I(4), I(1), I(0), I(1)},
                     {I(4), I(1), I(2), I(1)},
                     {I(4), I(1), I(5), I(1)},
                     {I(5), I(3), I(4), I(3)}},
                    "left outer");
}

TEST_F(JoinTableTest, SemiAntiAndNullAwareAntiVerdicts) {
  const Value n = Value::Null();
  ExpectOrderedRows(*HashJoin(JoinKind::kSemi, "jp", "jb"),
                    {{I(0), I(1)}, {I(3), I(2)}, {I(4), I(1)}, {I(5), I(3)}},
                    "semi");
  // NOT EXISTS: the unmatched key and the NULL key both qualify.
  ExpectOrderedRows(*HashJoin(JoinKind::kAnti, "jp", "jb"),
                    {{I(1), I(4)}, {I(2), n}}, "anti");
  // NOT IN with a NULL build key: every verdict is unknown.
  ExpectOrderedRows(*HashJoin(JoinKind::kAntiNA, "jp", "jb"), {},
                    "anti-NA, NULL build key");
  // NOT IN without one: the NULL probe key is still unknown.
  ExpectOrderedRows(*HashJoin(JoinKind::kAntiNA, "jp", "jbn"), {{I(1), I(4)}},
                    "anti-NA");
}

TEST_F(JoinTableTest, IntProbeKeysFindRealBuildKeys) {
  // Int(2) joins Real(2.0) (both build rows, in order); 2.5 matches no
  // Int; Int(3) joins Real(3.0).
  ExpectOrderedRows(*HashJoin(JoinKind::kInner, "jp", "jr"),
                    {{I(3), I(2), I(0), Value::Real(2.0)},
                     {I(3), I(2), I(3), Value::Real(2.0)},
                     {I(5), I(3), I(2), Value::Real(3.0)}},
                    "int probe, real build");
}

TEST_F(JoinTableTest, RealProbeKeysFindIntBuildKeys) {
  // The one-slot probe reads the Real key in place: 2.0 finds Int(2), 3.0
  // finds Int(3), 2.5 finds nothing.
  ExpectOrderedRows(*HashJoin(JoinKind::kInner, "jr", "jb"),
                    {{I(0), Value::Real(2.0), I(1), I(2)},
                     {I(0), Value::Real(2.0), I(6), I(2)},
                     {I(2), Value::Real(3.0), I(4), I(3)},
                     {I(3), Value::Real(2.0), I(1), I(2)},
                     {I(3), Value::Real(2.0), I(6), I(2)}},
                    "real probe, int build");
}

TEST_F(JoinTableTest, TwoColumnKeyMatchesOneColumnKey) {
  // ON (jp.k, jp.k) = (jb.k, jb.k) takes the generic key-row path and must
  // give the one-slot path's rows, in the same order, for every kind.
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kAntiNA}) {
    for (const char* build : {"jb", "jbn", "jr"}) {
      auto one = HashJoin(kind, "jp", build);
      auto two = HashJoin(kind, "jp", build);
      two->hash_left_keys.push_back(MakeColumnRef("jp", "k"));
      two->hash_right_keys.push_back(MakeColumnRef(build, "k"));
      const std::vector<Row> expected = Execute(*one, ExecOptions{});
      ExpectOrderedRows(*two, expected,
                        std::string("two-column key, build ") + build +
                            " kind " +
                            std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST_F(JoinTableTest, ExpressionKeyTakesTheGenericPath) {
  // ON jp.k + 1 = jb.k: the probe key is computed into a key row.
  const Value n = Value::Null();
  auto plan = [](JoinKind kind) {
    auto p = HashJoin(kind, "jp", "jb");
    p->hash_left_keys[0] = MakeBinary(BinaryOp::kAdd, MakeColumnRef("jp", "k"),
                                      MakeLiteral(Value::Int(1)));
    return p;
  };
  ExpectOrderedRows(*plan(JoinKind::kInner),
                    {{I(0), I(1), I(1), I(2)},
                     {I(0), I(1), I(6), I(2)},
                     {I(3), I(2), I(4), I(3)},
                     {I(4), I(1), I(1), I(2)},
                     {I(4), I(1), I(6), I(2)}},
                    "expression key, inner");
  ExpectOrderedRows(*plan(JoinKind::kLeftOuter),
                    {{I(0), I(1), I(1), I(2)},
                     {I(0), I(1), I(6), I(2)},
                     {I(1), I(4), n, n},
                     {I(2), n, n, n},
                     {I(3), I(2), I(4), I(3)},
                     {I(4), I(1), I(1), I(2)},
                     {I(4), I(1), I(6), I(2)},
                     {I(5), I(3), n, n}},
                    "expression key, left outer");
  ExpectOrderedRows(*plan(JoinKind::kSemi),
                    {{I(0), I(1)}, {I(3), I(2)}, {I(4), I(1)}},
                    "expression key, semi");
  ExpectOrderedRows(*plan(JoinKind::kAnti),
                    {{I(1), I(4)}, {I(2), n}, {I(5), I(3)}},
                    "expression key, anti");
}

TEST_F(JoinTableTest, NullProbeKeysSpilledMatchInMemory) {
  // A build side that spills under an 8 KB budget: NULL probe keys are
  // settled while the probe side is routed, the rest per partition through
  // the one-slot probe, under every kind; the rows equal the in-memory
  // run's as a multiset.
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kAntiNA}) {
    for (const char* build : {"mb", "mbn"}) {
      auto plan = HashJoin(kind, "mp", build);
      const std::vector<Row> in_memory = Execute(*plan, ExecOptions{});
      MemoryTracker tracker("query", 8192);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      Executor exec(*db_, std::move(opts));
      auto spilled = exec.Execute(*plan);
      const std::string label = std::string("build ") + build + " kind " +
                                std::to_string(static_cast<int>(kind));
      ASSERT_TRUE(spilled.ok()) << label << ": "
                                << spilled.status().ToString();
      EXPECT_EQ(spilled.value().stats.spilled_operators, 1) << label;
      ExpectSameRows(std::move(spilled.value().rows), in_memory, label);
    }
  }
}

TEST_F(JoinTableTest, ManyDistinctKeysMatchReferenceInMemoryAndSpilled) {
  // The reference runs the left join as a nested loop over the probe rows
  // and, per probe row, the build rows in table order, so its rows come in
  // exactly the hash join's order. The other kinds' rows follow from it:
  // a probe row with a match is a semi-join row, one without is an anti-join
  // row, and a NOT IN row too unless its key is NULL (big_b has no NULL
  // key).
  const std::vector<Row> left = Reference(
      "SELECT big_p.id, big_p.k, big_b.v, big_b.k FROM big_p LEFT JOIN "
      "big_b ON big_p.k = big_b.k");
  std::vector<Row> inner, semi, anti, anti_na;
  for (const Row& r : left) {
    const Row probe{r[0], r[1]};
    if (!r[2].is_null()) {
      inner.push_back(r);
      if (semi.empty() || !(semi.back() == probe)) semi.push_back(probe);
      continue;
    }
    anti.push_back(probe);
    if (!r[1].is_null()) anti_na.push_back(probe);
  }
  // The probe set has hits on unique and duplicated keys, misses and NULL
  // keys.
  ASSERT_GT(inner.size(), semi.size());
  ASSERT_FALSE(semi.empty());
  ASSERT_FALSE(anti_na.empty());
  ASSERT_LT(anti_na.size(), anti.size());

  const struct {
    JoinKind kind;
    const std::vector<Row>* expected;
    const char* name;
  } cases[] = {
      {JoinKind::kInner, &inner, "inner"},
      {JoinKind::kLeftOuter, &left, "left outer"},
      {JoinKind::kSemi, &semi, "semi"},
      {JoinKind::kAnti, &anti, "anti"},
      {JoinKind::kAntiNA, &anti_na, "anti-NA"},
  };
  for (const auto& c : cases) {
    auto plan = HashJoin(c.kind, "big_p", "big_b");
    const std::vector<Row> in_memory = Execute(*plan, ExecOptions{});
    EXPECT_TRUE(in_memory == *c.expected) << c.name;
    // A budget every partition fits in, then one so small that each
    // partition is joined in chunks: the build spills at the same rows
    // either way, and the rows match the in-memory run as a multiset.
    for (int64_t budget : {int64_t{4} << 20, int64_t{1} << 20}) {
      MemoryTracker tracker("query", budget);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      Executor exec(*db_, std::move(opts));
      auto spilled = exec.Execute(*plan);
      ASSERT_TRUE(spilled.ok()) << c.name << ": "
                                << spilled.status().ToString();
      EXPECT_EQ(spilled.value().stats.spilled_operators, 1) << c.name;
      ExpectSameRows(std::move(spilled.value().rows), in_memory,
                     std::string(c.name) + " budget=" +
                         std::to_string(budget));
    }
  }
}

// Spill re-reads keep every row: big_b's spill partitions hold thousands of
// rows each, far past the 256-row polling quantum of a re-read, and losing
// any row changes the result — a DISTINCT row (all are distinct), a group's
// count, or a semijoin row (every build key is probed). Under the smaller
// budget the semijoin's partitions are joined in chunks.
TEST_F(JoinTableTest, SpillPartitionsOfThousandsOfRowsKeepEveryRow) {
  auto distinct = std::make_unique<PlanNode>(PlanOp::kDistinct);
  distinct->children.push_back(Scan("big_b"));
  distinct->output = distinct->children[0]->output;

  auto agg = std::make_unique<PlanNode>(PlanOp::kAggregate);
  agg->group_keys.push_back(MakeColumnRef("big_b", "k"));
  agg->agg_exprs.push_back(MakeCountStar());
  agg->children.push_back(Scan("big_b"));
  agg->output = {ColumnSlot{"", "k", DataType::kInt64},
                 ColumnSlot{"", "n", DataType::kInt64}};

  auto semi = HashJoin(JoinKind::kSemi, "big_b", "big_b");

  const struct {
    const PlanNode* plan;
    const char* name;
  } cases[] = {{distinct.get(), "distinct"},
               {agg.get(), "aggregate"},
               {semi.get(), "semijoin"}};
  for (const auto& c : cases) {
    const std::vector<Row> in_memory = Execute(*c.plan, ExecOptions{});
    ASSERT_GE(in_memory.size(), size_t{kBigDistinctKeys}) << c.name;
    for (int64_t budget : {int64_t{4} << 20, int64_t{1} << 20}) {
      MemoryTracker tracker("query", budget);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      Executor exec(*db_, std::move(opts));
      auto spilled = exec.Execute(*c.plan);
      ASSERT_TRUE(spilled.ok()) << c.name << ": "
                                << spilled.status().ToString();
      EXPECT_GE(spilled.value().stats.spilled_operators, 1) << c.name;
      ExpectSameRows(std::move(spilled.value().rows), in_memory,
                     std::string(c.name) + " budget=" +
                         std::to_string(budget));
    }
  }
}

// GROUP BY emits its groups in the order their keys first appear in its
// input — the reference interpreter's order — at every batch size, over
// keys of every kind.
TEST_F(JoinTableTest, GroupByEmitsGroupsInFirstSeenOrder) {
  for (const char* t : {"gk", "gn"}) {
    const std::string table = t;
    const std::string col = table + ".v";
    const std::vector<Row> expected = Reference(
        "SELECT " + table + ".k, COUNT(*), SUM(" + col + "), MIN(" + col +
        "), COUNT(DISTINCT " + col + ") FROM " + table + " GROUP BY " +
        table + ".k");
    ASSERT_GE(expected.size(), size_t{4}) << table;
    std::vector<ExprPtr> aggs;
    aggs.push_back(MakeCountStar());
    aggs.push_back(MakeAggregate(AggFunc::kSum, MakeColumnRef(table, "v")));
    aggs.push_back(MakeAggregate(AggFunc::kMin, MakeColumnRef(table, "v")));
    aggs.push_back(
        MakeAggregate(AggFunc::kCount, MakeColumnRef(table, "v"), true));
    ExpectOrderedRows(*Aggregate(table, std::move(aggs)), expected,
                      "group by " + table + ".k");
    ExpectOrderedRows(*DistinctK(table),
                      Reference("SELECT DISTINCT " + table + ".k FROM " +
                                table),
                      "distinct " + table + ".k");
  }
}

// Keys compare structurally: Int(2) and Real(2.0) are one group and one
// DISTINCT row (keeping the first-seen Int), NULLs are one group and so are
// NaNs of either sign (keeping the first-seen NaN) apart from the numbers
// around them, and COUNT(DISTINCT) counts 2 and 2.0 once and the NaNs once.
TEST_F(JoinTableTest, KeysCompareStructurally) {
  const Value n = Value::Null();
  const Value nan = R(std::nan(""));
  std::vector<ExprPtr> count;
  count.push_back(MakeCountStar());
  ExpectOrderedRows(*Aggregate("gs", std::move(count)),
                    {{I(2), I(3)}, {n, I(2)}, {nan, I(2)}, {R(2.5), I(1)}},
                    "group by gs.k");
  ExpectOrderedRows(*DistinctK("gs"), {{I(2)}, {n}, {nan}, {R(2.5)}},
                    "distinct gs.k");
  std::vector<ExprPtr> counts;
  counts.push_back(MakeAggregate(AggFunc::kCount, MakeColumnRef("gs", "k")));
  counts.push_back(
      MakeAggregate(AggFunc::kCount, MakeColumnRef("gs", "k"), true));
  ExpectOrderedRows(*Aggregate("gs", std::move(counts), false),
                    {{I(6), I(3)}}, "count(distinct gs.k)");
}

// A NaN key equals every NaN, whatever its sign or payload, and nothing
// else, in the executor's key table and in the reference interpreter alike:
// GROUP BY, DISTINCT and the set operations over NaNs among numbers return
// the reference's rows, in its order.
TEST_F(JoinTableTest, NanKeysMatchReference) {
  std::vector<ExprPtr> aggs;
  aggs.push_back(MakeCountStar());
  aggs.push_back(MakeAggregate(AggFunc::kSum, MakeColumnRef("gq", "v")));
  const std::vector<Row> groups =
      Reference("SELECT gq.k, COUNT(*), SUM(gq.v) FROM gq GROUP BY gq.k");
  // 2.0, NaN, NULL and 3.0.
  ASSERT_EQ(groups.size(), size_t{4}) << Render(groups);
  ExpectOrderedRows(*Aggregate("gq", std::move(aggs)), groups,
                    "group by gq.k");
  ExpectOrderedRows(*DistinctK("gq"),
                    Reference("SELECT DISTINCT gq.k FROM gq"),
                    "distinct gq.k");

  const struct {
    SetOpKind kind;
    const char* sql;
  } cases[] = {{SetOpKind::kUnion, "UNION"},
               {SetOpKind::kIntersect, "INTERSECT"},
               {SetOpKind::kMinus, "MINUS"}};
  for (const auto& c : cases) {
    auto n = std::make_unique<PlanNode>(PlanOp::kSetOp);
    n->set_op = c.kind;
    n->children.push_back(Scan("qa"));
    n->children.push_back(Scan("qb"));
    n->output = n->children[0]->output;
    const std::vector<Row> expected =
        Reference(std::string("SELECT qa.v, qa.k FROM qa ") + c.sql +
                  " SELECT qb.v, qb.k FROM qb");
    ASSERT_FALSE(expected.empty()) << c.sql;
    ExpectOrderedRows(*n, expected, c.sql);
  }
}

// SQL comparison has one NaN rule, Oracle's for BINARY_DOUBLE: a NaN equals
// a NaN, whatever its sign or payload, and sorts above every other number.
// So an equi-join on NaN keys returns the reference interpreter's rows under
// the hash join and the nested loop alike, and so does an IN semijoin; and
// ORDER BY puts the numbers in ascending order, then the NaNs, then NULLs.
TEST_F(JoinTableTest, NanJoinKeysAndOrderByFollowOneNumericRule) {
  auto nested = [](JoinKind kind, const std::string& probe,
                   const std::string& build) {
    auto n = HashJoin(kind, probe, build);
    n->op = PlanOp::kNestedLoopJoin;
    n->join_conds.push_back(MakeBinary(BinaryOp::kEq,
                                       std::move(n->hash_left_keys[0]),
                                       std::move(n->hash_right_keys[0])));
    n->hash_left_keys.clear();
    n->hash_right_keys.clear();
    return n;
  };
  const struct {
    JoinKind kind;
    const char* probe;
    const char* sql;
    size_t rows;
  } cases[] = {
      // qa's five NaNs meet qb's three, its two 2.0s meet qb's 2.0, and
      // 3.0 meets 3.
      {JoinKind::kInner, "qa",
       "SELECT qa.v, qa.k, qb.v, qb.k FROM qa, qb WHERE qa.k = qb.k", 18},
      // qo's eight NaNs and two 3s; its other numbers meet no NaN of qb.
      {JoinKind::kSemi, "qo",
       "SELECT qo.v, qo.k FROM qo WHERE qo.k IN (SELECT qb.k FROM qb)", 10},
  };
  for (const auto& c : cases) {
    const std::vector<Row> expected = Reference(c.sql);
    EXPECT_EQ(expected.size(), c.rows) << c.sql << "\n" << Render(expected);
    for (const auto& plan :
         {HashJoin(c.kind, c.probe, "qb"), nested(c.kind, c.probe, "qb")}) {
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        ExecOptions opts;
        opts.batch_size = batch;
        const std::vector<Row> got = Execute(*plan, std::move(opts));
        const std::string label =
            std::string(c.sql) +
            (plan->op == PlanOp::kHashJoin ? " hash join" : " nested loop") +
            " batch=" + std::to_string(batch);
        EXPECT_EQ(got.size(), expected.size()) << label;
        EXPECT_TRUE(RowMultisetsEqual(got, expected, false)) << label;
      }
    }
  }

  auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
  sort->children.push_back(Scan("qo"));
  sort->output = sort->children[0]->output;
  sort->sort_keys.push_back(MakeColumnRef("qo", "k"));
  sort->sort_ascending.push_back(true);
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    ExecOptions opts;
    opts.batch_size = batch;
    const std::vector<Row> got = Execute(*sort, std::move(opts));
    ASSERT_EQ(got.size(), size_t{24});
    // 14 numbers ascending, then 8 NaNs, then 2 NULLs.
    std::vector<Value> keys;
    for (const Row& r : got) keys.push_back(r[1]);
    const std::string label =
        "order by qo.k batch=" + std::to_string(batch) + ": " + Render(got);
    for (size_t i = 0; i < 14; ++i) {
      EXPECT_TRUE(!keys[i].is_null() && !IsNan(keys[i])) << label;
      if (i > 0) {
        EXPECT_LE(keys[i - 1].NumericValue(), keys[i].NumericValue())
            << label;
      }
    }
    for (size_t i = 14; i < 22; ++i) EXPECT_TRUE(IsNan(keys[i])) << label;
    for (size_t i = 22; i < 24; ++i) EXPECT_TRUE(keys[i].is_null()) << label;
  }
}

// 110k distinct keys grow each table through many doublings and still come
// out in first-seen order; under a 1 MiB budget the grouped aggregate and
// the DISTINCT spill and return the in-memory rows as a multiset.
TEST_F(JoinTableTest, ManyKeysKeepFirstSeenOrderAndSpill) {
  // big_b holds keys 0..109999 once in order, then 0..4999 twice more.
  std::vector<Row> groups, keys;
  for (int k = 0; k < kBigDistinctKeys; ++k) {
    const int64_t rows = k < 5000 ? 3 : 1;
    groups.push_back({I(k), I(rows), I(rows)});
    keys.push_back({I(k)});
  }
  std::vector<ExprPtr> aggs;
  aggs.push_back(MakeCountStar());
  aggs.push_back(
      MakeAggregate(AggFunc::kCount, MakeColumnRef("big_b", "v"), true));
  auto grouped = Aggregate("big_b", std::move(aggs));
  auto distinct = DistinctK("big_b");
  std::vector<ExprPtr> scalar;
  scalar.push_back(MakeCountStar());
  scalar.push_back(
      MakeAggregate(AggFunc::kCount, MakeColumnRef("big_b", "k"), true));
  auto counted = Aggregate("big_b", std::move(scalar), false);

  EXPECT_TRUE(IdenticalRows(Execute(*grouped, ExecOptions{}), groups));
  EXPECT_TRUE(IdenticalRows(Execute(*distinct, ExecOptions{}), keys));
  EXPECT_TRUE(IdenticalRows(Execute(*counted, ExecOptions{}),
                            {{I(kBigBuildRows), I(kBigDistinctKeys)}}));
  for (const PlanNode* plan : {grouped.get(), distinct.get()}) {
    MemoryTracker tracker("query", int64_t{1} << 20);
    ExecOptions opts;
    opts.guards.memory = &tracker;
    Executor exec(*db_, std::move(opts));
    auto spilled = exec.Execute(*plan);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GE(spilled.value().stats.spilled_operators, 1);
    ExpectSameRows(std::move(spilled.value().rows),
                   plan == grouped.get() ? groups : keys,
                   plan == grouped.get() ? "aggregate" : "distinct");
  }
}

// Set operations keep each distinct first-input row in first-seen order:
// UNION adds the second input's new rows, INTERSECT keeps the rows the
// second input holds and MINUS the rows it does not, with NULLs matching
// NULLs and 2 matching 2.0 — exactly the reference interpreter's rows.
TEST_F(JoinTableTest, SetOperationsMatchReference) {
  const struct {
    SetOpKind kind;
    const char* sql;
  } cases[] = {{SetOpKind::kUnionAll, "UNION ALL"},
               {SetOpKind::kUnion, "UNION"},
               {SetOpKind::kIntersect, "INTERSECT"},
               {SetOpKind::kMinus, "MINUS"}};
  for (const auto& c : cases) {
    auto n = std::make_unique<PlanNode>(PlanOp::kSetOp);
    n->set_op = c.kind;
    n->children.push_back(Scan("sa"));
    n->children.push_back(Scan("sb"));
    n->output = n->children[0]->output;
    const std::vector<Row> expected =
        Reference(std::string("SELECT sa.v, sa.k FROM sa ") + c.sql +
                  " SELECT sb.v, sb.k FROM sb");
    ASSERT_FALSE(expected.empty()) << c.sql;
    ExpectOrderedRows(*n, expected, c.sql);
  }
}

}  // namespace
}  // namespace cbqt
