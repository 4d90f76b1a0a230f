// Row identity against a committed golden file: for a fixed statement set
// the executor's output must match tests/golden/rows.txt byte for byte.
// Each entry records the row count, the deterministic work counter
// (rows_processed), an order-sensitive FNV-1a hash over every row's
// Value::ToString() rendering, and the same hash over the rows after
// SortRowsCanonical. test_plan_golden compares plans; this is the check that
// an executor refactor kept the rows it returns (the sorted hash: the row
// multiset), the order it returns them in (the ordered hash) and the work it
// counted. A change meant to reorder rows that carry no ORDER BY moves only
// ordered hashes; a moved row count, rows_processed or sorted hash means the
// result itself changed.
//
// Statement set: the first 300 statements of GenerateMixedWorkload at seed 1
// on the small HR schema, and every tests/fuzz_corpus/*.sql file on the fuzz
// database, each under full CBQT and heuristic-only.
//
// On a mismatch the full actual output is written to rows.actual.txt in the
// working directory. When an executor change is meant to alter row order or
// counted work, review that file (every sorted hash should stay put) and copy
// it over tests/golden/rows.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "common/result_compare.h"
#include "common/str_util.h"
#include "fuzz/harness.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

#ifndef CBQT_SOURCE_DIR
#error "CBQT_SOURCE_DIR must point at the repository root"
#endif

namespace cbqt {
namespace {

const std::filesystem::path kGoldenPath =
    std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "golden" / "rows.txt";

// FNV-1a over the rows in output order; a separator byte after every value
// and every row keeps ("ab","c") and ("a","bc") apart.
uint64_t HashRows(const std::vector<Row>& rows) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const Row& row : rows) {
    for (const Value& v : row) {
      mix(v.ToString());
      mix("\x1f");
    }
    mix("\x1e");
  }
  return h;
}

// One golden entry: a label line, then the row count, the counted work, the
// ordered row hash and the canonically sorted row hash (or the error the
// statement failed with).
void AppendEntry(const QueryEngine& engine, const std::string& label,
                 const std::string& sql, std::string* out) {
  *out += "## " + label + "\n";
  auto result = engine.Run(sql);
  if (!result.ok()) {
    *out += "error " + result.status().ToString() + "\n";
    return;
  }
  std::vector<Row> sorted = result->rows;
  SortRowsCanonical(&sorted);
  *out += StrFormat("rows %zu processed %lld fnv %016llx sorted %016llx\n",
                    result->rows.size(),
                    static_cast<long long>(result->exec.rows_processed),
                    static_cast<unsigned long long>(HashRows(result->rows)),
                    static_cast<unsigned long long>(HashRows(sorted)));
}

std::string RenderAllRows() {
  std::string out;
  auto db = MakeSmallHrDb();
  if (db == nullptr) {
    ADD_FAILURE() << "small HR database failed to build";
    return out;
  }
  Database fuzz_db;
  if (!BuildFuzzDatabase(&fuzz_db).ok()) {
    ADD_FAILURE() << "fuzz database failed to build";
    return out;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus")) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  const struct {
    const char* name;
    OptimizerMode mode;
  } modes[] = {
      {"cost-based", OptimizerMode::kCostBased},
      {"heuristic", OptimizerMode::kHeuristicOnly},
  };
  const auto queries = GenerateMixedWorkload(300, 0.25, SmallHrSchema(),
                                             /*seed=*/1);
  for (const auto& mode : modes) {
    QueryEngine engine(*db, ConfigForMode(mode.mode));
    for (const auto& q : queries) {
      AppendEntry(engine, StrFormat("mixed s1 #%d %s", q.id, mode.name), q.sql,
                  &out);
    }
    QueryEngine fuzz_engine(fuzz_db, ConfigForMode(mode.mode));
    for (const auto& f : files) {
      AppendEntry(fuzz_engine,
                  "fuzz_corpus " + f.filename().string() + " " + mode.name,
                  ReadCorpusSql(f), &out);
    }
  }
  return out;
}

TEST(ExecGoldenTest, RowsMatchCommittedGolden) {
  const std::string actual = RenderAllRows();
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (actual == expected) return;

  std::ofstream("rows.actual.txt", std::ios::binary) << actual;
  std::vector<std::string> want = SplitGoldenEntries(expected);
  std::vector<std::string> got = SplitGoldenEntries(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "rows differ from " << kGoldenPath << " at entry " << i
                << " of " << want.size() << " (actual has " << got.size()
                << "); full actual output written to "
                << std::filesystem::absolute("rows.actual.txt")
                << "\n--- expected\n"
                << (i < want.size() ? want[i] : "<end>") << "--- actual\n"
                << (i < got.size() ? got[i] : "<end>");
}

}  // namespace
}  // namespace cbqt
