// Multi-query optimization tests: canonical sharing signatures, the
// SharedStream/SharedScanHub buffer machinery, and the engine-level
// invariants — shared execution is bit-identical to private execution,
// consumers degrade gracefully under memory pressure, a cancelled consumer
// never stalls the rest of the batch, and two sequential batches over one
// engine stay correct under concurrency (the TSan leg).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/result_compare.h"
#include "exec/shared_scan.h"
#include "sql/signature.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

CbqtConfig MqoOn() {
  CbqtConfig cfg;
  cfg.mqo.enabled = true;
  return cfg;
}

std::string Sig(const Database& db, const std::string& sql) {
  auto qb = ParseAndBind(db, sql);
  return qb ? BlockSignature(*qb) : std::string();
}

// ---------------------------------------------------------------------------
// Canonical sharing signatures (the MQO matching key)
// ---------------------------------------------------------------------------

TEST(MqoSignature, ConjunctOrderIsCanonicalized) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  std::string a = Sig(*db,
                      "SELECT e.emp_id FROM employees e WHERE e.salary > "
                      "30000 AND e.dept_id = 5");
  std::string b = Sig(*db,
                      "SELECT e.emp_id FROM employees e WHERE e.dept_id = 5 "
                      "AND e.salary > 30000");
  std::string c = Sig(*db,
                      "SELECT e.emp_id FROM employees e WHERE e.dept_id = 6 "
                      "AND e.salary > 30000");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different constant: different work
}

TEST(MqoSignature, CommutativeOperandFlipIsCanonicalized) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  std::string a = Sig(*db,
                      "SELECT e.emp_id FROM employees e, departments d WHERE "
                      "e.dept_id = d.dept_id");
  std::string b = Sig(*db,
                      "SELECT e.emp_id FROM employees e, departments d WHERE "
                      "d.dept_id = e.dept_id");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MqoSignature, InnerFromOrderIsCanonicalized) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  std::string a = Sig(*db,
                      "SELECT e.emp_id, d.dept_name FROM employees e, "
                      "departments d WHERE e.dept_id = d.dept_id");
  std::string b = Sig(*db,
                      "SELECT e.emp_id, d.dept_name FROM departments d, "
                      "employees e WHERE e.dept_id = d.dept_id");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MqoSignature, AliasNormalizationInExprSignature) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  auto qa = ParseAndBind(
      *db, "SELECT a.emp_id FROM employees a WHERE a.salary > 100");
  auto qb = ParseAndBind(
      *db, "SELECT b.emp_id FROM employees b WHERE b.salary > 100");
  ASSERT_NE(qa, nullptr);
  ASSERT_NE(qb, nullptr);
  ASSERT_EQ(qa->where.size(), 1u);
  ASSERT_EQ(qb->where.size(), 1u);
  // Raw signatures differ by alias; normalized ones collide.
  EXPECT_NE(ExprSignature(*qa->where[0]), ExprSignature(*qb->where[0]));
  EXPECT_EQ(ExprSignature(*qa->where[0], "a"),
            ExprSignature(*qb->where[0], "b"));
  EXPECT_TRUE(ExprUsesOnlyAlias(*qa->where[0], "a"));
  EXPECT_FALSE(ExprUsesOnlyAlias(*qa->where[0], "b"));
}

// ---------------------------------------------------------------------------
// SharedStream / SharedScanHub unit behavior
// ---------------------------------------------------------------------------

RowBatch MakeBatch(int64_t start, int64_t n) {
  RowBatch b;
  for (int64_t i = 0; i < n; ++i) {
    b.Add(Row{Value::Int(start + i), Value::Str("row")});
  }
  return b;
}

TEST(SharedStream, BufferedRowsThenEnd) {
  SharedStream s("k", nullptr, nullptr);
  ASSERT_TRUE(s.Append(MakeBatch(0, 3)));
  ASSERT_TRUE(s.Append(MakeBatch(3, 2)));
  s.MarkComplete();
  ASSERT_TRUE(s.IsCompleteIntact());

  size_t cursor = 0;
  RowBatch out;
  int64_t bytes = 0;
  ASSERT_EQ(s.Read(&cursor, 4, &out, &bytes),
            SharedStream::ReadState::kRows);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0][0], Value::Int(0));
  EXPECT_EQ(out[3][0], Value::Int(3));
  EXPECT_GT(bytes, 0);
  ASSERT_EQ(s.Read(&cursor, 4, &out, &bytes),
            SharedStream::ReadState::kRows);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value::Int(4));
  EXPECT_EQ(s.Read(&cursor, 4, &out, &bytes), SharedStream::ReadState::kEnd);
}

TEST(SharedStream, PressureDegradesKeepingThePrefix) {
  // A limit that admits the first batch but not the second: consumers must
  // still be served the buffered prefix, then told to go private.
  MemoryTracker tracker("test", 1);
  SharedStream s("k", nullptr, &tracker);
  RowBatch big = MakeBatch(0, 100);
  EXPECT_FALSE(s.Append(big));
  EXPECT_TRUE(s.IsDegraded());
  EXPECT_FALSE(s.IsCompleteIntact());
  EXPECT_EQ(tracker.used_bytes(), 0);

  size_t cursor = 0;
  RowBatch out;
  int64_t bytes = 0;
  EXPECT_EQ(s.Read(&cursor, 10, &out, &bytes),
            SharedStream::ReadState::kDegraded);
  EXPECT_EQ(cursor, 0u);  // private fallback replays from the start
}

TEST(SharedScanHub, ProducerConsumerReplayRetire) {
  SharedScanHub hub(/*buffer_limit_bytes=*/0);
  int owner_a = 0, owner_b = 0;

  auto first = hub.Acquire("scan:t", &owner_a, /*materialize=*/false);
  ASSERT_NE(first.stream, nullptr);
  EXPECT_TRUE(first.is_producer);
  EXPECT_TRUE(hub.OwnerHasOpenProducer(&owner_a));
  EXPECT_EQ(hub.live_streams(), 1u);

  auto second = hub.Acquire("scan:t", &owner_b, false);
  ASSERT_EQ(second.stream, first.stream);
  EXPECT_FALSE(second.is_producer);

  ASSERT_TRUE(first.stream->Append(MakeBatch(0, 5)));
  first.stream->MarkComplete();
  hub.ProducerSettled(&owner_a);
  EXPECT_FALSE(hub.OwnerHasOpenProducer(&owner_a));

  // Both detach; the completed-intact stream stays registered so a later
  // query of the batch can replay it.
  hub.Detach(first.stream);
  hub.Detach(second.stream);
  EXPECT_EQ(hub.live_streams(), 1u);
  auto replay = hub.Acquire("scan:t", &owner_b, false);
  ASSERT_EQ(replay.stream, first.stream);
  EXPECT_FALSE(replay.is_producer);
  hub.Detach(replay.stream);

  // Batch over: the registry empties and the key starts fresh.
  hub.RetireAll();
  EXPECT_EQ(hub.live_streams(), 0u);
  auto fresh = hub.Acquire("scan:t", &owner_b, false);
  EXPECT_TRUE(fresh.is_producer);
  EXPECT_NE(fresh.stream, first.stream);
}

TEST(SharedScanHub, DegradedStreamIsNotJoinableAndErasesOnLastDetach) {
  SharedScanHub hub(0);
  int owner = 0;
  auto prod = hub.Acquire("scan:t", &owner, false);
  ASSERT_TRUE(prod.is_producer);
  prod.stream->MarkDegraded();
  hub.ProducerSettled(&owner);

  auto joiner = hub.Acquire("scan:t", &owner, false);
  EXPECT_EQ(joiner.stream, nullptr);  // run privately

  hub.Detach(prod.stream);
  EXPECT_EQ(hub.live_streams(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: shared execution is bit-identical to private execution
// ---------------------------------------------------------------------------

// Two identical single-table branches: the second branch's scan replays the
// first branch's stream within one plan, deterministically (no concurrency
// needed to form the share).
const char* kUnionSql =
    "SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 30000 "
    "UNION ALL "
    "SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 30000";

const char* kJoinSql =
    "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND e.salary > 40000";

const char* kAggSql =
    "SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e "
    "WHERE e.salary > 20000 GROUP BY e.dept_id";

std::vector<Row> SortedRows(const QueryEngine& engine,
                            const std::string& sql) {
  auto result = engine.Run(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
  if (!result.ok()) return {};
  SortRowsCanonical(&result->rows);
  return std::move(result->rows);
}

TEST(Mqo, InPlanShareIsRowIdenticalAndCounted) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  QueryEngine on(*db, MqoOn());
  ASSERT_TRUE(on.mqo_enabled());

  EXPECT_EQ(SortedRows(on, kUnionSql), SortedRows(off, kUnionSql));

  MqoStats ms = on.mqo_stats();
  EXPECT_GE(ms.batches_formed, 1);
  EXPECT_GT(ms.scan_streams + ms.materialize_streams, 0);
  EXPECT_GT(ms.rows_shared, 0) << "second UNION ALL branch did not share";
  EXPECT_GT(ms.bytes_saved, 0);
}

TEST(Mqo, RowIdentityAcrossBatchSizes) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  for (int batch_size : {1, 7, 1024}) {
    CbqtConfig cfg = MqoOn();
    cfg.exec.batch_size = batch_size;
    QueryEngine on(*db, cfg);
    for (const char* sql : {kUnionSql, kJoinSql, kAggSql}) {
      EXPECT_EQ(SortedRows(on, sql), SortedRows(off, sql))
          << "batch_size=" << batch_size << "\n" << sql;
    }
  }
}

TEST(Mqo, SharedCachesSurviveAcrossBatchesAndStatsEpochs) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine on(*db, MqoOn());
  // Serial queries are one-query batches; the batch-shared annotation cache
  // persists across them, so the repeat optimizes against warm entries.
  EXPECT_FALSE(SortedRows(on, kJoinSql).empty());
  EXPECT_FALSE(SortedRows(on, kJoinSql).empty());
  MqoStats ms = on.mqo_stats();
  EXPECT_GE(ms.batches_formed, 2);
  EXPECT_GT(ms.shared_subplan_hits, 0);
}

// ---------------------------------------------------------------------------
// Engine-level: degradation and cancellation
// ---------------------------------------------------------------------------

TEST(Mqo, MemoryPressureFallsBackToPrivateExecution) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  CbqtConfig tiny = MqoOn();
  tiny.mqo.buffer_memory_bytes = 128;  // no real batch fits
  QueryEngine off(*db, CbqtConfig{});
  QueryEngine on(*db, tiny);

  EXPECT_EQ(SortedRows(on, kUnionSql), SortedRows(off, kUnionSql));
  MqoStats ms = on.mqo_stats();
  EXPECT_GT(ms.pressure_fallbacks, 0)
      << "producer should have degraded its stream under the 128-byte cap";
  EXPECT_EQ(ms.rows_shared, 0);
}

TEST(Mqo, CancelledConsumerDoesNotStallTheBatch) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine on(*db, MqoOn());
  QueryEngine off(*db, CbqtConfig{});
  std::vector<Row> expected = SortedRows(off, kUnionSql);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  CancellationToken doomed;
  std::atomic<int> ok_runs{0};
  std::atomic<int> cancelled_runs{0};
  std::atomic<bool> row_mismatch{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        CancellationToken* token = (t == 0) ? &doomed : nullptr;
        auto result = on.Run(kUnionSql, {.cancel = token});
        if (result.ok()) {
          SortRowsCanonical(&result->rows);
          if (result->rows != expected) row_mismatch = true;
          ++ok_runs;
        } else if (result.status().code() == StatusCode::kCancelled) {
          ++cancelled_runs;
        } else {
          ADD_FAILURE() << result.status().ToString();
        }
      }
    });
  }
  // Trip thread 0 mid-run: its in-flight query unwinds typed, and — the
  // invariant under test — the other threads keep completing with correct
  // rows. The test finishing at all proves no consumer stalled.
  doomed.Cancel();
  for (auto& w : workers) w.join();

  EXPECT_FALSE(row_mismatch);
  EXPECT_EQ(ok_runs + cancelled_runs, kThreads * kRounds);
  EXPECT_GE(ok_runs, (kThreads - 1) * kRounds);
}

// ---------------------------------------------------------------------------
// Two concurrent batches over one engine (the TSan leg)
// ---------------------------------------------------------------------------

TEST(Mqo, TwoConcurrentBatchesStayCorrect) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  QueryEngine off(*db, CbqtConfig{});
  std::vector<std::string> sqls = {kUnionSql, kJoinSql, kAggSql};
  std::vector<std::vector<Row>> expected;
  for (const auto& sql : sqls) expected.push_back(SortedRows(off, sql));

  QueryEngine on(*db, MqoOn());
  std::atomic<bool> mismatch{false};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (size_t q = 0; q < sqls.size(); ++q) {
          auto result = on.Run(sqls[(q + static_cast<size_t>(t)) % sqls.size()]);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          SortRowsCanonical(&result->rows);
          if (result->rows !=
              expected[(q + static_cast<size_t>(t)) % sqls.size()]) {
            mismatch = true;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_FALSE(mismatch);
  EXPECT_GE(on.mqo_stats().batches_formed, 2);
}

// ---------------------------------------------------------------------------
// Runner integration: the concurrent-sessions measurement axis
// ---------------------------------------------------------------------------

TEST(Mqo, RunAllConcurrentMergesInInputOrder) {
  auto db = MakeSmallHrDb();
  ASSERT_NE(db, nullptr);
  WorkloadRunner runner(*db);
  std::vector<WorkloadQuery> queries;
  for (int i = 0; i < 12; ++i) {
    WorkloadQuery q;
    q.id = i;
    q.sql = (i % 2 == 0) ? kUnionSql : kJoinSql;
    queries.push_back(q);
  }
  WorkloadRunReport report = runner.RunAllConcurrent(queries, MqoOn(), 4);
  EXPECT_EQ(report.attempted, 12);
  EXPECT_EQ(report.succeeded, 12);
  EXPECT_EQ(report.untyped_failures(), 0);
  EXPECT_EQ(report.measurements.size(), 12u);
  EXPECT_GE(report.mqo.batches_formed, 1);

  // sessions <= 1 degenerates to the serial path with identical counting.
  WorkloadRunReport serial = runner.RunAllConcurrent(queries, MqoOn(), 1);
  EXPECT_EQ(serial.succeeded, 12);
}

}  // namespace
}  // namespace cbqt
