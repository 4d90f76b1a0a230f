// Quickstart: build a database, run a SQL query through the cost-based
// transformation framework, and inspect what the optimizer did. The whole
// pipeline (parse -> bind -> CBQT -> physical plan -> execute) is behind
// the cbqt::QueryEngine facade.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "cbqt/engine.h"
#include "sql/unparser.h"
#include "workload/schema_gen.h"

using namespace cbqt;

int main() {
  // 1. Build an in-memory HR database (tables, data, indexes, statistics).
  Database db;
  SchemaConfig schema;
  schema.employees = 5000;
  schema.job_history = 8000;
  Status st = BuildHrDatabase(schema, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "schema: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. The paper's Q1: two subqueries, each independently unnestable.
  const char* sql =
      "SELECT e1.employee_name, j.job_title "
      "FROM employees e1, job_history j "
      "WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' "
      "AND e1.salary > (SELECT AVG(e2.salary) FROM employees e2 "
      "                 WHERE e2.dept_id = e1.dept_id) "
      "AND e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l "
      "                   WHERE d.loc_id = l.loc_id AND l.country_id = 'US')";
  std::printf("Original SQL:\n%s\n\n", sql);

  // 3. Prepare: heuristic transformations run imperatively, cost-based
  //    ones through state-space search (paper §3). CbqtConfig::num_threads
  //    would evaluate transformation states concurrently.
  QueryEngine engine(db);
  auto prepared = engine.Prepare(sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }

  std::printf("Transformed query tree:\n%s\n\n",
              BlockToSqlPretty(*prepared->tree).c_str());
  std::printf("Transformations applied:");
  for (const auto& a : prepared->stats.applied) std::printf(" %s", a.c_str());
  std::printf("\nStates costed: %d  (interleaved: %d, annotations reused: "
              "%lld)\n\n",
              prepared->stats.states_evaluated,
              prepared->stats.interleaved_states,
              static_cast<long long>(prepared->stats.annotation_hits));
  std::printf("Physical plan (cost %.1f):\n%s\n", prepared->cost,
              PlanToString(*prepared->plan).c_str());

  // 4. Execute the prepared query.
  auto result = engine.Execute(std::move(prepared.value()));
  if (!result.ok()) {
    std::fprintf(stderr, "execute: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Result: %zu rows (%lld rows processed by operators)\n",
              result->rows.size(),
              static_cast<long long>(result->exec.rows_processed));
  for (size_t i = 0; i < result->rows.size() && i < 5; ++i) {
    std::printf("  %s, %s\n", result->rows[i][0].ToString().c_str(),
                result->rows[i][1].ToString().c_str());
  }
  if (result->rows.size() > 5) {
    std::printf("  ... and %zu more\n", result->rows.size() - 5);
  }
  return 0;
}
