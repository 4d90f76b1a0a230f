#ifndef CBQT_TESTS_TEST_UTIL_H_
#define CBQT_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "binder/binder.h"
#include "common/str_util.h"
#include "parser/parser.h"
#include "sql/unparser.h"
#include "storage/database.h"
#include "workload/schema_gen.h"

namespace cbqt {

/// A small HR database shared by parser/binder/optimizer/executor tests.
/// Deterministic (fixed seed) and fast to build.
inline std::unique_ptr<Database> MakeSmallHrDb(bool index_on_correlations = true) {
  auto db = std::make_unique<Database>();
  SchemaConfig cfg;
  cfg.locations = 10;
  cfg.departments = 20;
  cfg.employees = 500;
  cfg.job_history = 800;
  cfg.jobs = 10;
  cfg.customers = 100;
  cfg.orders = 600;
  cfg.order_items = 1200;
  cfg.products = 50;
  cfg.accounts = 10;
  cfg.months = 12;
  cfg.seed = 99;
  cfg.index_on_correlations = index_on_correlations;
  Status st = BuildHrDatabase(cfg, db.get());
  if (!st.ok()) return nullptr;
  return db;
}

/// Parses and binds, aborting the test on failure.
inline std::unique_ptr<QueryBlock> ParseAndBind(const Database& db,
                                                const std::string& sql) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) {
    ADD_FAILURE() << "parse failed: " << parsed.status().ToString() << "\n"
                  << sql;
    return nullptr;
  }
  Status st = BindQuery(db, parsed.value().get());
  if (!st.ok()) {
    ADD_FAILURE() << "bind failed: " << st.ToString() << "\n" << sql;
    return nullptr;
  }
  return std::move(parsed.value());
}

/// The schema sizes MakeSmallHrDb builds, as the query generators read them
/// (the test_equivalence schema).
inline SchemaConfig SmallHrSchema() {
  SchemaConfig schema;
  schema.locations = 10;
  schema.departments = 20;
  schema.employees = 500;
  schema.customers = 100;
  schema.orders = 600;
  schema.products = 50;
  schema.accounts = 10;
  return schema;
}

/// The statement of a tests/fuzz_corpus file: its non-comment lines joined
/// by spaces.
inline std::string ReadCorpusSql(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line, sql;
  while (std::getline(in, line)) {
    if (StartsWith(line, "--")) continue;
    if (!sql.empty()) sql += " ";
    sql += line;
  }
  while (!sql.empty() && (sql.back() == ' ' || sql.back() == '\n')) {
    sql.pop_back();
  }
  return sql;
}

/// Splits a golden-file rendering into its "## label" entries.
inline std::vector<std::string> SplitGoldenEntries(const std::string& text) {
  std::vector<std::string> entries;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find("\n## ", pos);
    size_t end = next == std::string::npos ? text.size() : next + 1;
    entries.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return entries;
}

}  // namespace cbqt

#endif  // CBQT_TESTS_TEST_UTIL_H_
