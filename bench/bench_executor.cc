// Vectorized-executor throughput gate: the batch executor must deliver at
// least 2x the rows/sec of a row-at-a-time interpreter on the scan, filter,
// hash-join and hash-aggregate microworkloads, at bit-identical result rows
// (canonically sorted). The baseline embedded here is modeled on the
// pre-vectorization executor's per-row discipline: one frame push/pop per
// row, tree-walking EvalExpr for every expression (FindSlot string
// comparisons per row), per-row work counting. Results go to
// BENCH_executor.json; a speedup below the gate exits non-zero (wired into
// ci.sh bench-smoke).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "exec/eval.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "binder/binder.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

double TickMs() {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

// ---------------------------------------------------------------------------
// Row-at-a-time baseline interpreter (the old executor's discipline)
// ---------------------------------------------------------------------------

// The baseline's key containers: std::unordered_map under the engine's key
// hash and structural equality, as the old executor keyed them.
struct BaselineKeyHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct BaselineKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsEqualStructural(a, b);
  }
};

struct BaselineAccum {
  double sum = 0;
  int64_t count = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;

  void Add(const Value& v, const Expr& agg) {
    if (agg.agg == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    switch (agg.agg) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.kind() == ValueKind::kInt64 && sum_is_int) {
          isum += v.AsInt();
        } else {
          if (sum_is_int) {
            sum = static_cast<double>(isum);
            sum_is_int = false;
          }
          sum += v.NumericValue();
        }
        break;
      case AggFunc::kMin:
        if (min.is_null() || TotalLess(v, min)) min = v;
        break;
      case AggFunc::kMax:
        if (max.is_null() || TotalLess(max, v)) max = v;
        break;
      default:
        break;
    }
  }

  Value Finish(const Expr& agg) const {
    switch (agg.agg) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return sum_is_int ? Value::Int(isum) : Value::Real(sum);
      case AggFunc::kAvg: {
        if (count == 0) return Value::Null();
        double total = sum_is_int ? static_cast<double>(isum) : sum;
        return Value::Real(total / static_cast<double>(count));
      }
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
      default:
        return Value::Null();
    }
  }
};

/// Interprets the microworkload plan shapes one row at a time. Every row
/// pays a frame push/pop and tree-walking expression evaluation — exactly
/// the per-row costs the vectorized executor hoists out of its inner loops.
class RowAtATimeBaseline {
 public:
  explicit RowAtATimeBaseline(const Database& db) : db_(db) {}

  Result<std::vector<Row>> Run(const PlanNode& node) {
    rows_processed_ = 0;
    EvalContext ctx;
    return Exec(node, ctx);
  }

  int64_t rows_processed() const { return rows_processed_; }

 private:
  Result<Value> Conjuncts(const std::vector<ExprPtr>& preds,
                          EvalContext& ctx) {
    bool unknown = false;
    for (const auto& p : preds) {
      auto v = EvalExpr(*p, ctx);
      if (!v.ok()) return v.status();
      if (v.value().is_null()) {
        unknown = true;
        continue;
      }
      if (!v.value().AsBool()) return Value::Boolean(false);
    }
    if (unknown) return Value::Null();
    return Value::Boolean(true);
  }

  Result<std::vector<Row>> Exec(const PlanNode& node, EvalContext& ctx) {
    switch (node.op) {
      case PlanOp::kTableScan: {
        const Table* table = db_.FindTable(node.table_name);
        if (table == nullptr) return Status::Internal("no such table");
        std::vector<Row> out;
        for (size_t i = 0; i < table->NumRows(); ++i) {
          ++rows_processed_;
          Row r = table->RowAt(i);
          r.push_back(Value::Int(static_cast<int64_t>(i)));  // ROWID
          if (!node.filter.empty()) {
            ctx.frames.push_back(Frame{&node.output, &r});
            auto pass = Conjuncts(node.filter, ctx);
            ctx.frames.pop_back();
            if (!pass.ok()) return pass.status();
            if (!IsTruthy(pass.value())) continue;
          }
          out.push_back(std::move(r));
        }
        return out;
      }
      case PlanOp::kFilter: {
        auto input = Exec(*node.children[0], ctx);
        if (!input.ok()) return input.status();
        std::vector<Row> out;
        for (auto& r : input.value()) {
          ++rows_processed_;
          ctx.frames.push_back(Frame{&node.output, &r});
          auto pass = Conjuncts(node.filter, ctx);
          ctx.frames.pop_back();
          if (!pass.ok()) return pass.status();
          if (IsTruthy(pass.value())) out.push_back(std::move(r));
        }
        return out;
      }
      case PlanOp::kProject: {
        auto input = Exec(*node.children[0], ctx);
        if (!input.ok()) return input.status();
        const Schema& in_schema = node.children[0]->output;
        std::vector<Row> out;
        out.reserve(input.value().size());
        for (size_t i = 0; i < input.value().size(); ++i) {
          ++rows_processed_;
          Row& r = input.value()[i];
          ctx.frames.push_back(Frame{&in_schema, &r});
          ctx.rownum = static_cast<int64_t>(i) + 1;
          Row projected;
          projected.reserve(node.projections.size());
          for (const auto& p : node.projections) {
            auto v = EvalExpr(*p, ctx);
            if (!v.ok()) {
              ctx.frames.pop_back();
              return v.status();
            }
            projected.push_back(std::move(v.value()));
          }
          ctx.frames.pop_back();
          out.push_back(std::move(projected));
        }
        return out;
      }
      case PlanOp::kHashJoin: {
        if (node.join_kind != JoinKind::kInner) {
          return Status::Internal("baseline: inner hash join only");
        }
        auto left = Exec(*node.children[0], ctx);
        if (!left.ok()) return left.status();
        auto right = Exec(*node.children[1], ctx);
        if (!right.ok()) return right.status();
        const Schema& lschema = node.children[0]->output;
        const Schema& rschema = node.children[1]->output;
        std::unordered_map<Row, std::vector<size_t>, BaselineKeyHash,
                           BaselineKeyEq>
            table;
        for (size_t i = 0; i < right.value().size(); ++i) {
          ++rows_processed_;
          Row& r = right.value()[i];
          ctx.frames.push_back(Frame{&rschema, &r});
          Row key;
          bool has_null = false;
          for (const auto& k : node.hash_right_keys) {
            auto v = EvalExpr(*k, ctx);
            if (!v.ok()) {
              ctx.frames.pop_back();
              return v.status();
            }
            if (v.value().is_null()) has_null = true;
            key.push_back(std::move(v.value()));
          }
          ctx.frames.pop_back();
          if (has_null) continue;
          table[std::move(key)].push_back(i);
        }
        std::vector<Row> out;
        for (auto& l : left.value()) {
          ++rows_processed_;
          ctx.frames.push_back(Frame{&lschema, &l});
          Row key;
          bool has_null = false;
          for (const auto& k : node.hash_left_keys) {
            auto v = EvalExpr(*k, ctx);
            if (!v.ok()) {
              ctx.frames.pop_back();
              return v.status();
            }
            if (v.value().is_null()) has_null = true;
            key.push_back(std::move(v.value()));
          }
          ctx.frames.pop_back();
          if (has_null) continue;
          auto hit = table.find(key);
          if (hit == table.end()) continue;
          for (size_t ri : hit->second) {
            ++rows_processed_;
            Row comb = l;
            for (const Value& v : right.value()[ri]) comb.push_back(v);
            if (!node.join_conds.empty()) {
              ctx.frames.push_back(Frame{&node.output, &comb});
              auto pass = Conjuncts(node.join_conds, ctx);
              ctx.frames.pop_back();
              if (!pass.ok()) return pass.status();
              if (!IsTruthy(pass.value())) continue;
            }
            out.push_back(std::move(comb));
          }
        }
        return out;
      }
      case PlanOp::kAggregate: {
        if (node.grouping_sets.size() > 1) {
          return Status::Internal("baseline: single grouping set only");
        }
        auto input = Exec(*node.children[0], ctx);
        if (!input.ok()) return input.status();
        const Schema& in_schema = node.children[0]->output;
        std::unordered_map<Row, std::vector<BaselineAccum>, BaselineKeyHash,
                           BaselineKeyEq>
            groups;
        std::vector<Row> key_order;
        for (auto& r : input.value()) {
          ++rows_processed_;
          ctx.frames.push_back(Frame{&in_schema, &r});
          Row key;
          for (const auto& k : node.group_keys) {
            auto v = EvalExpr(*k, ctx);
            if (!v.ok()) {
              ctx.frames.pop_back();
              return v.status();
            }
            key.push_back(std::move(v.value()));
          }
          auto [it, inserted] = groups.try_emplace(
              key, std::vector<BaselineAccum>(node.agg_exprs.size()));
          if (inserted) key_order.push_back(key);
          for (size_t a = 0; a < node.agg_exprs.size(); ++a) {
            const Expr& agg = *node.agg_exprs[a];
            Value v = Value::Null();
            if (agg.agg != AggFunc::kCountStar) {
              auto res = EvalExpr(*agg.children[0], ctx);
              if (!res.ok()) {
                ctx.frames.pop_back();
                return res.status();
              }
              v = std::move(res.value());
            }
            it->second[a].Add(v, agg);
          }
          ctx.frames.pop_back();
        }
        std::vector<Row> out;
        if (groups.empty() && node.group_keys.empty()) {
          Row r;
          for (const auto& agg : node.agg_exprs) {
            r.push_back(BaselineAccum{}.Finish(*agg));
          }
          out.push_back(std::move(r));
          return out;
        }
        for (const Row& key : key_order) {
          const auto& accums = groups[key];
          Row r = key;
          for (size_t a = 0; a < accums.size(); ++a) {
            r.push_back(accums[a].Finish(*node.agg_exprs[a]));
          }
          out.push_back(std::move(r));
        }
        return out;
      }
      default:
        return Status::Internal("baseline: unsupported plan operator");
    }
  }

  const Database& db_;
  int64_t rows_processed_ = 0;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* sql;
};

const Workload kWorkloads[] = {
    {"scan",
     "SELECT e.emp_id, e.salary, e.dept_id FROM employees e"},
    {"filter",
     "SELECT e.emp_id FROM employees e WHERE e.salary > 60000 AND "
     "e.dept_id > 50"},
    {"hash-join",
     "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
     "WHERE e.emp_id = j.emp_id"},
    {"hash-aggregate",
     "SELECT e.dept_id, COUNT(*), AVG(e.salary), MAX(e.salary) FROM "
     "employees e GROUP BY e.dept_id"},
};

constexpr double kSpeedupGate = 2.0;

struct BenchResult {
  std::string name;
  size_t result_rows = 0;
  double base_ms = 0;
  double batch_ms = 0;
  double speedup = 0;
};

bool RowsIdentical(std::vector<Row> a, std::vector<Row> b) {
  SortRowsCanonical(&a);
  SortRowsCanonical(&b);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsEqualStructural(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace
}  // namespace cbqt

int main(int argc, char** argv) {
  using namespace cbqt;
  using namespace cbqt::bench;

  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    }
  }

  std::printf("building benchmark database...\n");
  Database db;
  if (!BuildHrDatabase(BenchSchema(), &db).ok()) return 1;
  if (!db.Analyze().ok()) return 1;

  std::printf(
      "\nvectorized executor vs row-at-a-time baseline (best of %d reps, "
      "gate >= %.1fx)\n\n",
      reps, kSpeedupGate);
  std::printf("  %-16s %10s %12s %12s %9s\n", "workload", "rows", "base(ms)",
              "batch(ms)", "speedup");

  std::vector<BenchResult> results;
  bool gate_ok = true;

  for (const Workload& w : kWorkloads) {
    auto parsed = ParseSql(w.sql);
    if (!parsed.ok() || !BindQuery(db, parsed.value().get()).ok()) {
      std::fprintf(stderr, "  [%s] parse/bind failed\n", w.name);
      return 1;
    }
    Planner planner(db, CostParams{});
    auto bp = planner.PlanBlock(*parsed.value());
    if (!bp.ok()) {
      std::fprintf(stderr, "  [%s] plan failed: %s\n", w.name,
                   bp.status().ToString().c_str());
      return 1;
    }
    const PlanNode& plan = *bp->plan;

    // Baseline and batch reps alternate, so host drift during the run
    // lands on both sides of the ratio instead of on one block of reps.
    RowAtATimeBaseline baseline(db);
    std::vector<Row> base_rows;
    std::vector<Row> batch_rows;
    double base_ms = 1e300;
    double batch_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
      double t0 = TickMs();
      auto rows = baseline.Run(plan);
      double dt = TickMs() - t0;
      if (!rows.ok()) {
        std::fprintf(stderr, "  [%s] baseline failed: %s\n", w.name,
                     rows.status().ToString().c_str());
        return 1;
      }
      base_ms = std::min(base_ms, dt);
      base_rows = std::move(rows.value());

      Executor exec(db, ExecOptions{});
      t0 = TickMs();
      auto result = exec.Execute(plan);
      dt = TickMs() - t0;
      if (!result.ok()) {
        std::fprintf(stderr, "  [%s] batch executor failed: %s\n", w.name,
                     result.status().ToString().c_str());
        return 1;
      }
      batch_ms = std::min(batch_ms, dt);
      batch_rows = std::move(result.value().rows);
    }

    if (!RowsIdentical(base_rows, batch_rows)) {
      std::fprintf(stderr,
                   "  [%s] FAIL: batch executor rows differ from baseline\n",
                   w.name);
      return 1;
    }

    BenchResult br;
    br.name = w.name;
    br.result_rows = batch_rows.size();
    br.base_ms = base_ms;
    br.batch_ms = batch_ms;
    br.speedup = batch_ms > 0 ? base_ms / batch_ms : 0;
    std::printf("  %-16s %10zu %12.2f %12.2f %8.2fx%s\n", br.name.c_str(),
                br.result_rows, br.base_ms, br.batch_ms, br.speedup,
                br.speedup >= kSpeedupGate ? "" : "  << below gate");
    if (br.speedup < kSpeedupGate) gate_ok = false;
    results.push_back(std::move(br));
  }

  if (FILE* f = std::fopen("BENCH_executor.json", "w")) {
    std::fprintf(f, "{\n  \"gate_speedup\": %.1f,\n  \"workloads\": [\n",
                 kSpeedupGate);
    for (size_t i = 0; i < results.size(); ++i) {
      const BenchResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"rows\": %zu, \"base_ms\": %.3f, "
                   "\"batch_ms\": %.3f, \"speedup\": %.2f}%s\n",
                   r.name.c_str(), r.result_rows, r.base_ms, r.batch_ms,
                   r.speedup, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\n  wrote BENCH_executor.json\n");
  }

  if (!gate_ok) {
    std::fprintf(stderr,
                 "\nFAIL: vectorized executor below the %.1fx throughput "
                 "gate\n",
                 kSpeedupGate);
    return 1;
  }
  std::printf("\nOK: all workloads >= %.1fx at identical results\n",
              kSpeedupGate);
  return 0;
}
