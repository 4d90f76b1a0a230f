// An interactive SQL shell over the built-in HR database — the "downstream
// user" artifact: type queries, see the transformed tree, the plan, and the
// results. Everything runs through the cbqt::QueryEngine facade.
//
//   $ ./build/examples/cbqt_shell
//   cbqt> SELECT d.dept_name FROM departments d WHERE EXISTS
//         (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id);
//   cbqt> .mode heuristic      -- switch optimizer mode
//   cbqt> .threads 4           -- parallel state evaluation
//   cbqt> .explain on          -- toggle plan printing
//   cbqt> .tables              -- list tables
//   cbqt> .quit

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cbqt/engine.h"
#include "sql/unparser.h"
#include "workload/runner.h"
#include "workload/schema_gen.h"

using namespace cbqt;

namespace {

void PrintRows(const std::vector<Row>& rows, const Schema& schema) {
  // Header.
  for (const auto& slot : schema) {
    std::printf("%-18s", slot.name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < schema.size(); ++i) std::printf("----------------- ");
  std::printf("\n");
  size_t shown = 0;
  for (const auto& r : rows) {
    for (const auto& v : r) std::printf("%-18s", v.ToString().c_str());
    std::printf("\n");
    if (++shown >= 25) {
      std::printf("... (%zu more rows)\n", rows.size() - shown);
      break;
    }
  }
  std::printf("(%zu rows)\n", rows.size());
}

}  // namespace

int main() {
  std::printf("cbqt shell — cost-based query transformation demo\n");
  std::printf("building the HR database ...\n");
  Database db;
  SchemaConfig schema;
  schema.employees = 5000;
  schema.job_history = 8000;
  schema.orders = 6000;
  schema.order_items = 12000;
  schema.customers = 1000;
  if (!BuildHrDatabase(schema, &db).ok()) {
    std::fprintf(stderr, "failed to build database\n");
    return 1;
  }
  std::printf(
      "tables: departments employees job_history jobs locations customers\n"
      "        orders order_items products accounts\n"
      "commands: .mode cost|heuristic|unnest-off|jppd-off  .explain on|off\n"
      "          .threads N  .tables  .quit     (end SQL with ';')\n\n");

  OptimizerMode mode = OptimizerMode::kCostBased;
  int num_threads = 1;
  bool explain = true;
  std::string buffer;
  std::string line;
  std::printf("cbqt> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") break;
      if (line == ".tables") {
        for (const auto& name : db.catalog().TableNames()) {
          const TableStats* ts = db.stats().Find(name);
          std::printf("  %-14s %8.0f rows\n", name.c_str(),
                      ts != nullptr ? ts->rows : 0.0);
        }
      } else if (line == ".explain on") {
        explain = true;
      } else if (line == ".explain off") {
        explain = false;
      } else if (line.rfind(".threads ", 0) == 0) {
        int n = std::atoi(line.substr(9).c_str());
        if (n >= 1) {
          num_threads = n;
          std::printf("state evaluation on %d thread(s)\n", num_threads);
        } else {
          std::printf("usage: .threads N  (N >= 1)\n");
        }
      } else if (line.rfind(".mode ", 0) == 0) {
        std::string m = line.substr(6);
        if (m == "cost") mode = OptimizerMode::kCostBased;
        else if (m == "heuristic") mode = OptimizerMode::kHeuristicOnly;
        else if (m == "unnest-off") mode = OptimizerMode::kUnnestOff;
        else if (m == "jppd-off") mode = OptimizerMode::kJppdOff;
        else std::printf("unknown mode: %s\n", m.c_str());
      } else {
        std::printf("unknown command: %s\n", line.c_str());
      }
      std::printf("cbqt> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line;
    buffer += "\n";
    if (buffer.find(';') == std::string::npos) {
      std::printf("   -> ");
      std::fflush(stdout);
      continue;
    }
    std::string sql = buffer.substr(0, buffer.find(';'));
    buffer.clear();

    CbqtConfig config = ConfigForMode(mode);
    config.num_threads = num_threads;
    QueryEngine engine(db, config);
    auto result = engine.Run(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      std::printf("cbqt> ");
      std::fflush(stdout);
      continue;
    }
    const PreparedQuery& prepared = result->prepared;
    if (explain) {
      std::printf("-- transformed (%.2f ms", prepared.optimize_ms);
      for (const auto& a : prepared.stats.applied) {
        std::printf("; %s", a.c_str());
      }
      std::printf(")\n%s\n\n-- plan (cost %.1f)\n%s\n",
                  BlockToSqlPretty(*prepared.tree).c_str(), prepared.cost,
                  PlanToString(*prepared.plan).c_str());
    }
    PrintRows(result->rows, prepared.plan->output);
    std::printf("optimize %.2f ms, execute %.2f ms, %lld rows processed\n",
                prepared.optimize_ms, result->execute_ms,
                static_cast<long long>(result->exec.rows_processed));
    std::printf("cbqt> ");
    std::fflush(stdout);
  }
  std::printf("bye\n");
  return 0;
}
