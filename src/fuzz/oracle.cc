#include "fuzz/oracle.h"

#include <utility>

#include "binder/binder.h"
#include "cbqt/search.h"
#include "exec/reference.h"
#include "optimizer/plan_serde.h"
#include "parser/parser.h"
#include "sql/expr_util.h"

namespace cbqt {

namespace {

bool IsAcceptableAbort(const Status& st) {
  return IsGuardrailAbort(st.code()) ||
         st.code() == StatusCode::kBudgetExhausted;
}

bool IsInjectedFault(const Status& st) {
  return st.code() == StatusCode::kInternal &&
         st.message().find("injected fault") != std::string::npos;
}

}  // namespace

std::vector<DifferentialOracle::Entry> DifferentialOracle::DefaultDeck() {
  std::vector<Entry> deck;
  auto add = [&deck](const std::string& name, auto mutate) {
    CbqtConfig cfg;
    mutate(cfg);
    deck.push_back({name, std::move(cfg)});
  };
  add("exhaustive-1t", [](CbqtConfig& c) {
    c.strategy_override = SearchStrategy::kExhaustive;
  });
  add("exhaustive-4t", [](CbqtConfig& c) {
    c.strategy_override = SearchStrategy::kExhaustive;
    c.num_threads = 4;
  });
  add("iterative", [](CbqtConfig& c) {
    c.strategy_override = SearchStrategy::kIterative;
  });
  add("linear-4t", [](CbqtConfig& c) {
    c.strategy_override = SearchStrategy::kLinear;
    c.num_threads = 4;
  });
  add("twopass", [](CbqtConfig& c) {
    c.strategy_override = SearchStrategy::kTwoPass;
  });
  add("heuristic", [](CbqtConfig& c) { c.cost_based = false; });
  add("no-unnest-batch1", [](CbqtConfig& c) {
    c.transforms = TransformMask::All()
                       .Without(Transform::kUnnest)
                       .Without(Transform::kOrExpansion);
    c.exec.batch_size = 1;
  });
  add("spill-64k", [](CbqtConfig& c) {
    // A 64 KiB per-query memory budget, spill enabled. The budget also
    // bounds charges that cannot spill (the optimizer's state copies,
    // cached subquery results), so some queries abort typed and are
    // skipped, not compared; on the small fuzz database few of the others
    // spill. The memory-pressure spill sweep of `ci.sh fuzz-smoke` is what
    // drives the hash-join, aggregate and distinct spill paths.
    c.guardrails.query_memory_bytes = 64 * 1024;
    c.exec.enable_spill = true;
    c.exec.batch_size = 16;
  });
  return deck;
}

DifferentialOracle::DifferentialOracle(const Database& db,
                                       std::vector<Entry> deck, bool canary)
    : db_(db), deck_(std::move(deck)), canary_(canary) {
  engines_.reserve(deck_.size());
  for (const auto& e : deck_) {
    engines_.push_back(std::make_unique<QueryEngine>(db_, e.config));
  }
}

Result<std::vector<Row>> DifferentialOracle::Reference(
    const std::string& sql) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  CBQT_RETURN_IF_ERROR(BindQuery(db_, parsed.value().get()));
  ReferenceExecutor ref(db_);
  return ref.Execute(*parsed.value());
}

void DifferentialOracle::Check(const std::string& sql,
                               const std::vector<Row>& expected_sorted,
                               OracleOutcome* out) {
  bool canary_applies =
      canary_ && ReferencesAtLeastNBaseRelations(db_, sql, 2);
  for (size_t i = 0; i < engines_.size(); ++i) {
    auto result = engines_[i]->Run(sql);
    if (!result.ok()) {
      const Status& st = result.status();
      if (IsAcceptableAbort(st)) {
        ++out->guardrail_aborts;
        continue;
      }
      if (IsInjectedFault(st)) {
        ++out->injected_faults;
        continue;
      }
      out->failures.push_back(
          {deck_[i].name, sql, "unexpected error: " + st.ToString()});
      continue;
    }
    if (serde_roundtrip_ && result.value().prepared.plan != nullptr) {
      const PlanNode& plan = *result.value().prepared.plan;
      std::string bytes = SerializePlan(plan);
      auto restored = DeserializePlan(bytes);
      if (!restored.ok()) {
        out->failures.push_back({deck_[i].name, sql,
                                 "serde: chosen plan failed to deserialize: " +
                                     restored.status().ToString()});
      } else if (SerializePlan(**restored) != bytes) {
        out->failures.push_back(
            {deck_[i].name, sql,
             "serde: re-serialized plan is not bit-identical"});
      } else if (PlanToString(**restored) != PlanToString(plan)) {
        out->failures.push_back(
            {deck_[i].name, sql, "serde: deserialized plan renders differently"});
      } else {
        ++out->serde_roundtrips;
      }
    }
    out->spilled_operators += result.value().exec.spilled_operators;
    std::vector<Row> rows = std::move(result.value().rows);
    if (canary_applies && i == 0 && !rows.empty()) {
      rows.pop_back();  // the seeded wrong-rows bug the fuzzer must catch
    }
    SortRowsCanonical(&rows);
    RowSetDiff diff = CompareRowMultisets(rows, expected_sorted);
    ++out->executions;
    if (!diff.equal) {
      out->failures.push_back({deck_[i].name, sql, diff.message});
    }
  }
}

bool ReferencesAtLeastNBaseRelations(const Database& db,
                                     const std::string& sql, int n) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return false;
  if (!BindQuery(db, parsed.value().get()).ok()) return false;
  int count = 0;
  VisitAllBlocksConst(parsed.value().get(), [&](const QueryBlock* qb) {
    for (const auto& tr : qb->from) {
      if (tr.IsBaseTable()) ++count;
    }
  });
  return count >= n;
}

}  // namespace cbqt
