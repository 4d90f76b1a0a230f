// Cursor sharing: a statement whose shape the plan cache has seen is keyed
// from its tokens alone (CursorRecord), never parsed. These tests check that
// this path computes exactly what the full path computes — the key and
// parameters of ParameterizeQuery and the bands of ComputeParamBands on the
// parsed tree — for every generated workload statement, the fuzz corpus, and
// literal variants of each; and that a cached engine returns the rows an
// uncached one does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/plan_cache.h"
#include "fuzz/harness.h"
#include "optimizer/card_est.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "sql/expr_util.h"
#include "sql/parameterize.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

#ifndef CBQT_SOURCE_DIR
#error "CBQT_SOURCE_DIR must point at the repository root"
#endif

namespace cbqt {
namespace {

/// Statements that exercise the literal positions the sharing rule treats
/// differently: ROWNUM limits, select-list and arithmetic literals, IN-lists,
/// BETWEEN, NULL/TRUE keywords, negative numbers, GROUPING SETS, hints.
const char* const kHandWritten[] = {
    "SELECT e.employee_name FROM employees e WHERE e.salary > 5000 AND "
    "ROWNUM <= 5",
    "SELECT e.employee_name, 1, 'tag' FROM employees e WHERE e.emp_id = 7",
    "SELECT e.salary + 100 FROM employees e WHERE e.dept_id = 3",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id IN (1, 2, 3)",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN (4, 5)",
    "SELECT e.employee_name FROM employees e WHERE e.salary BETWEEN 1000 "
    "AND 9000",
    "SELECT e.employee_name FROM employees e WHERE 5 BETWEEN e.dept_id AND "
    "e.emp_id",
    "SELECT e.employee_name FROM employees e WHERE e.salary > -5 AND "
    "e.dept_id = NULL",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id = 3 AND TRUE",
    "SELECT e.employee_name FROM employees e WHERE e.salary > 10.5 AND "
    "e.employee_name = 'x'",
    "SELECT e.dept_id, COUNT(*) FROM employees e WHERE e.salary > 3000 "
    "GROUP BY GROUPING SETS ((e.dept_id = 1), (e.dept_id = 2))",
    "SELECT e.dept_id, COUNT(*) FROM employees e GROUP BY ROLLUP(e.dept_id)",
    "SELECT /*+ no_merge(v) */ v.dept_id FROM (SELECT e.dept_id FROM "
    "employees e WHERE e.salary > 2000 GROUP BY e.dept_id) v WHERE "
    "v.dept_id < 9",
    "SELECT e.employee_name FROM employees e WHERE e.salary > 100 AND "
    "e.salary < 100 ORDER BY e.salary DESC",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id IN (SELECT "
    "d.dept_id FROM departments d WHERE d.loc_id = 2) AND e.salary > 4000",
};

std::vector<std::string> CorpusStatements() {
  const SchemaConfig schema = SmallHrSchema();
  std::vector<std::string> out;
  for (const auto& q : GenerateOltpWorkload(40, schema, 1)) {
    out.push_back(q.sql);
  }
  for (const auto& q : GenerateMixedWorkload(40, 0.3, schema, 1)) {
    out.push_back(q.sql);
  }
  for (int f = static_cast<int>(QueryFamily::kSpj);
       f <= static_cast<int>(QueryFamily::kShortJoin); ++f) {
    for (const auto& q :
         GenerateFamily(static_cast<QueryFamily>(f), 3, schema, 1)) {
      out.push_back(q.sql);
    }
  }
  for (const char* sql : kHandWritten) out.push_back(sql);
  return out;
}

std::vector<std::string> FuzzCorpusStatements() {
  std::filesystem::path dir =
      std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& f : files) out.push_back(ReadCorpusSql(f));
  return out;
}

/// Byte extent [begin, end) of the literal token `t` in `sql`.
std::pair<size_t, size_t> LiteralExtent(const std::string& sql,
                                        const Token& t) {
  if (t.kind != TokenKind::kString) {
    return {t.offset, t.offset + t.text.size()};
  }
  size_t j = t.offset + 1;
  while (j < sql.size()) {
    if (sql[j] == '\'') {
      if (j + 1 < sql.size() && sql[j + 1] == '\'') {
        j += 2;
        continue;
      }
      return {t.offset, j + 1};
    }
    ++j;
  }
  return {t.offset, sql.size()};
}

/// `sql` with its i-th literal token replaced by edit(i, token); an empty
/// replacement keeps the literal.
template <typename Edit>
std::string RewriteLiterals(const std::string& sql, Edit edit) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return sql;
  std::string out;
  size_t copied = 0;
  int ordinal = 0;
  for (const Token& t : *tokens) {
    if (t.kind != TokenKind::kInt && t.kind != TokenKind::kReal &&
        t.kind != TokenKind::kString) {
      continue;
    }
    std::string repl = edit(ordinal++, t);
    if (repl.empty()) continue;
    auto [begin, end] = LiteralExtent(sql, t);
    out.append(sql, copied, begin - copied);
    out += repl;
    copied = end;
  }
  out.append(sql, copied, std::string::npos);
  return out;
}

std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

/// Upper-cases everything outside string literals, spreads the tokens over
/// lines, and wraps the statement in comments: nothing the lexer keeps.
std::string Respell(const std::string& sql) {
  std::string out = "/* respelled */\n";
  bool in_string = false;
  for (char c : sql) {
    if (c == '\'') in_string = !in_string;
    if (!in_string && c == ' ') {
      out += "  \n\t";
    } else {
      out += in_string ? c : static_cast<char>(std::toupper(
                                 static_cast<unsigned char>(c)));
    }
  }
  return out + " -- trailing comment\n";
}

/// Literal variants of `sql`: every literal changed, all literals equal, one
/// literal changed at a time, kind changes (int to real and string),
/// negation, NULL and TRUE keywords, a respelled copy, and a hinted copy.
std::vector<std::string> Variants(const std::string& sql) {
  std::vector<std::string> out;
  auto bump = [](const Token& t) {
    return t.kind == TokenKind::kString ? Quote(t.text + "x") : t.text + "1";
  };
  out.push_back(RewriteLiterals(sql, [&](int, const Token& t) {
    return bump(t);
  }));
  out.push_back(RewriteLiterals(sql, [](int, const Token& t) {
    return t.kind == TokenKind::kString ? std::string("'same'")
                                        : std::string("7");
  }));
  for (int k = 0; k < 4; ++k) {
    out.push_back(RewriteLiterals(sql, [&](int i, const Token& t) {
      return i == k ? bump(t) : std::string();
    }));
  }
  out.push_back(RewriteLiterals(sql, [](int, const Token& t) {
    return t.kind == TokenKind::kInt ? t.text + ".5" : std::string();
  }));
  out.push_back(RewriteLiterals(sql, [](int i, const Token& t) {
    return i == 0 && t.kind != TokenKind::kString ? Quote(t.text)
                                                  : std::string();
  }));
  out.push_back(RewriteLiterals(sql, [](int i, const Token& t) {
    return i == 0 && t.kind != TokenKind::kString ? "-" + t.text
                                                  : std::string();
  }));
  out.push_back(RewriteLiterals(sql, [](int i, const Token&) {
    return i == 0 ? std::string("NULL") : std::string();
  }));
  out.push_back(RewriteLiterals(sql, [](int i, const Token&) {
    return i == 1 ? std::string("TRUE") : std::string();
  }));
  out.push_back(Respell(sql));
  out.push_back(Respell(RewriteLiterals(sql, [&](int, const Token& t) {
    return bump(t);
  })));
  size_t select = sql.find("SELECT ");
  if (select != std::string::npos) {
    std::string hinted = sql;
    hinted.insert(select + 7, "/*+ NO_MERGE(zz) */ ");
    out.push_back(hinted);
  }
  return out;
}

/// What the full path computes for a statement.
struct FullPath {
  std::unique_ptr<QueryBlock> tree;  ///< parsed and parameterized
  ParameterizedStatement ps;
  std::vector<int> bands;
};

bool RunFullPath(const Database& db, const std::string& sql, FullPath* out) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return false;
  out->tree = std::move(*parsed);
  out->ps = ParameterizeQuery(out->tree.get());
  out->bands = ComputeParamBands(*out->tree, out->ps.params.size(),
                                 db.catalog(), db.stats());
  return true;
}

class CursorSharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }

  /// Checks the cursor path against the full path for every statement of
  /// `sqls` (each tried against the records of all earlier statements of
  /// its shape) and returns how many statements were served by a record
  /// built from a different statement.
  int CheckEquivalence(const std::vector<std::string>& sqls) {
    std::map<std::string, std::vector<std::shared_ptr<const CursorRecord>>>
        records;
    int cross_matches = 0;
    for (const std::string& sql : sqls) {
      SCOPED_TRACE(sql);
      auto tokens = Tokenize(sql);
      FullPath full;
      if (!tokens.ok() || !RunFullPath(*db_, sql, &full)) continue;
      std::string shape = StatementShape(*tokens);
      auto check = [&](const CursorRecord& r) {
        std::vector<Value> params = r.Params(*tokens);
        EXPECT_EQ(r.Key(params), full.ps.key);
        EXPECT_EQ(params, full.ps.params);
        EXPECT_EQ(r.Bands(params), full.bands);
      };
      auto& of_shape = records[shape];
      for (const auto& r : of_shape) {
        if (!r->Matches(*tokens)) continue;
        check(*r);
        ++cross_matches;
      }
      auto own = BuildCursorRecord(*tokens, shape, *full.tree, full.ps,
                                   db_->stats_epoch(), db_->catalog(),
                                   db_->stats());
      if (own == nullptr) {
        ADD_FAILURE() << "no cursor record";
        continue;
      }
      EXPECT_TRUE(own->Matches(*tokens));
      check(*own);
      of_shape.push_back(std::move(own));
    }
    return cross_matches;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CursorSharingTest, CursorPathEqualsFullPathOnWorkloadsAndVariants) {
  std::vector<std::string> sqls;
  for (const std::string& base : CorpusStatements()) {
    sqls.push_back(base);
    for (std::string& v : Variants(base)) sqls.push_back(std::move(v));
  }
  int cross = CheckEquivalence(sqls);
  // Most variants keep their statement's shape: the check really ran on
  // the cursor path, not only on each record against its own statement.
  EXPECT_GT(cross, static_cast<int>(CorpusStatements().size()));
}

TEST_F(CursorSharingTest, CursorPathEqualsFullPathOnFuzzCorpus) {
  std::vector<std::string> sqls;
  for (const std::string& base : FuzzCorpusStatements()) {
    sqls.push_back(base);
    for (std::string& v : Variants(base)) sqls.push_back(std::move(v));
  }
  ASSERT_FALSE(sqls.empty());
  EXPECT_GT(CheckEquivalence(sqls), 0);
}

/// ComputeParamBands as Selectivity prices it: a StatsContext per block over
/// its base tables (unqualified names through a merged first-table-wins
/// relation), and each slot's comparison priced in its own block.
std::vector<int> ReferenceBands(const QueryBlock& tree, size_t num_params,
                                const Database& db) {
  std::vector<int> bands(num_params, -1);
  VisitAllBlocksConst(&tree, [&](const QueryBlock* qb) {
    StatsContext ctx;
    RelStats merged;
    for (const auto& ref : qb->from) {
      if (ref.table_name.empty()) continue;
      const TableDef* def = db.catalog().FindTable(ref.table_name);
      if (def == nullptr) continue;
      RelStats rel;
      if (const TableStats* ts = db.stats().Find(def->name)) {
        for (size_t i = 0; i < def->columns.size() && i < ts->columns.size();
             ++i) {
          rel.columns[def->columns[i].name] = ts->columns[i];
        }
      }
      for (const auto& [name, cs] : rel.columns) {
        merged.columns.emplace(name, cs);
      }
      ctx.AddRelation(ref.alias.empty() ? ref.table_name : ref.alias,
                      std::move(rel));
    }
    ctx.AddRelation("", std::move(merged));
    auto price = [&](const Expr* e) {
      if (e->kind != ExprKind::kBinary || !IsComparisonOp(e->bop)) return;
      for (int side = 0; side < 2; ++side) {
        const Expr& col = *e->children[static_cast<size_t>(side)];
        const Expr& lit = *e->children[static_cast<size_t>(1 - side)];
        if (col.kind == ExprKind::kColumnRef && col.corr_depth == 0 &&
            lit.kind == ExprKind::kLiteral && lit.param_index >= 0 &&
            static_cast<size_t>(lit.param_index) < num_params) {
          bands[static_cast<size_t>(lit.param_index)] =
              SelectivityBand(Selectivity(*e, ctx));
        }
      }
    };
    auto visit = [&](const std::vector<ExprPtr>& exprs) {
      for (const auto& e : exprs) VisitExprConst(e.get(), price);
    };
    for (const auto& item : qb->select) VisitExprConst(item.expr.get(), price);
    for (const auto& ref : qb->from) visit(ref.join_conds);
    visit(qb->where);
    visit(qb->group_by);
    visit(qb->having);
    for (const auto& item : qb->order_by) {
      VisitExprConst(item.expr.get(), price);
    }
  });
  return bands;
}

TEST_F(CursorSharingTest, BandsMatchAStatsContextReference) {
  int banded = 0;
  for (const std::string& base : CorpusStatements()) {
    for (const std::string& sql : Variants(base)) {
      FullPath full;
      if (!RunFullPath(*db_, sql, &full)) continue;
      EXPECT_EQ(full.bands,
                ReferenceBands(*full.tree, full.ps.params.size(), *db_))
          << sql;
      for (int b : full.bands) banded += b >= 0;
    }
  }
  EXPECT_GT(banded, 100);
}

TEST(CursorSharingBands, ColumnsResolveLikeAStatsContext) {
  // `a` lives in both tables with very different ranges, and t2 appears
  // twice: unqualified names must resolve to the first table holding the
  // column, qualified ones through their alias.
  Database db;
  for (const char* name : {"t1", "t2"}) {
    TableDef def;
    def.name = name;
    def.columns = {{"a", DataType::kInt64, false},
                   {"b", DataType::kInt64, false}};
    ASSERT_TRUE(db.CreateTable(def).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert("t1", {Value::Int(i % 10), Value::Int(i)}).ok());
    ASSERT_TRUE(
        db.Insert("t2", {Value::Int(i * 100), Value::Int(i % 3)}).ok());
  }
  ASSERT_TRUE(db.Analyze().ok());
  const char* const sqls[] = {
      "SELECT 1 FROM t1, t2 WHERE a < 5 AND b > 50",
      "SELECT 1 FROM t2, t1 WHERE a < 5 AND b > 50",
      "SELECT 1 FROM t1 x, t2 y, t2 z WHERE y.a < 5 AND z.b <> 1 AND "
      "x.a >= 3",
      "SELECT 1 FROM t2 WHERE a < 5 AND EXISTS (SELECT 1 FROM t1 WHERE "
      "a < 5 AND t2.b = 2)",
      "SELECT 1 FROM t1, (SELECT a FROM t2 WHERE a > 10) v WHERE a < 5",
  };
  for (const char* sql : sqls) {
    FullPath full;
    ASSERT_TRUE(RunFullPath(db, sql, &full)) << sql;
    EXPECT_EQ(full.bands,
              ReferenceBands(*full.tree, full.ps.params.size(), db))
        << sql;
  }
}

TEST_F(CursorSharingTest, ShapeIgnoresSpellingButNotStructure) {
  auto shape = [](const std::string& sql) {
    auto tokens = Tokenize(sql);
    EXPECT_TRUE(tokens.ok());
    return StatementShape(*tokens);
  };
  const std::string base =
      "SELECT e.salary FROM employees e WHERE e.emp_id = 7";
  EXPECT_EQ(shape(base), shape("select E.SALARY\nfrom employees e -- c\n"
                               "where /* c */ e.emp_id=8"));
  EXPECT_NE(shape(base), shape("SELECT e.salary FROM employees e WHERE "
                               "e.emp_id = 7.0"));
  EXPECT_NE(shape(base), shape("SELECT e.salary FROM employees e WHERE "
                               "e.emp_id = '7'"));
  EXPECT_NE(shape(base), shape("SELECT e.salary FROM employees e WHERE "
                               "e.emp_id = -7"));
  EXPECT_NE(shape(base), shape("SELECT e.salary FROM employees e WHERE "
                               "e.emp_id = NULL"));
  EXPECT_NE(shape("SELECT /*+ no_merge(a) */ 1 FROM t"),
            shape("SELECT /*+ no_merge(b) */ 1 FROM t"));
}

TEST_F(CursorSharingTest, ConstantLiteralsMustMatchExactly) {
  auto record_of = [&](const std::string& sql) {
    auto tokens = Tokenize(sql);
    FullPath full;
    EXPECT_TRUE(tokens.ok() && RunFullPath(*db_, sql, &full)) << sql;
    return BuildCursorRecord(*tokens, StatementShape(*tokens), *full.tree,
                             full.ps, db_->stats_epoch(), db_->catalog(),
                             db_->stats());
  };
  auto matches = [](const CursorRecord& r, const std::string& sql) {
    auto tokens = Tokenize(sql);
    return tokens.ok() && r.Matches(*tokens);
  };
  // ROWNUM limits are baked into the plan.
  auto rownum = record_of(
      "SELECT e.employee_name FROM employees e WHERE e.salary > 5000 AND "
      "ROWNUM <= 5");
  EXPECT_TRUE(matches(*rownum,
                      "SELECT e.employee_name FROM employees e WHERE "
                      "e.salary > 6000 AND ROWNUM <= 5"));
  EXPECT_FALSE(matches(*rownum,
                       "SELECT e.employee_name FROM employees e WHERE "
                       "e.salary > 5000 AND ROWNUM <= 6"));
  // Select-list and arithmetic literals render into the key.
  auto select_list = record_of(
      "SELECT e.salary + 100, 'tag' FROM employees e WHERE e.dept_id = 3");
  EXPECT_TRUE(matches(*select_list,
                      "SELECT e.salary + 100, 'tag' FROM employees e WHERE "
                      "e.dept_id = 4"));
  EXPECT_FALSE(matches(*select_list,
                       "SELECT e.salary + 200, 'tag' FROM employees e WHERE "
                       "e.dept_id = 3"));
  EXPECT_FALSE(matches(*select_list,
                       "SELECT e.salary + 100, 'other' FROM employees e "
                       "WHERE e.dept_id = 3"));
  // GROUPING SETS keys are deduplicated by value at parse time.
  auto sets = record_of(
      "SELECT COUNT(*) FROM employees e GROUP BY GROUPING SETS "
      "((e.dept_id = 1), (e.dept_id = 2))");
  EXPECT_FALSE(matches(*sets,
                       "SELECT COUNT(*) FROM employees e GROUP BY GROUPING "
                       "SETS ((e.dept_id = 1), (e.dept_id = 1))"));
}

TEST_F(CursorSharingTest, NullAndTrueKeywordSlotsAreFixed) {
  const std::string sql =
      "SELECT e.employee_name FROM employees e WHERE e.dept_id = NULL AND "
      "e.salary > 10";
  auto tokens = Tokenize(sql);
  FullPath full;
  ASSERT_TRUE(tokens.ok() && RunFullPath(*db_, sql, &full));
  ASSERT_EQ(full.ps.params.size(), 2u);
  auto record =
      BuildCursorRecord(*tokens, StatementShape(*tokens), *full.tree, full.ps,
                        db_->stats_epoch(), db_->catalog(), db_->stats());
  ASSERT_NE(record, nullptr);
  auto other = Tokenize(
      "SELECT e.employee_name FROM employees e WHERE e.dept_id = NULL AND "
      "e.salary > 20");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(record->Matches(*other));
  std::vector<Value> params = record->Params(*other);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_TRUE(params[0].is_null());
  EXPECT_EQ(params[1], Value::Int(20));
}

/// Runs every statement on a cached and an uncached engine over `db` and
/// expects the same row multiset (or the same failure code) from both.
/// Returns the cached engine's cursor hits.
int64_t ExpectSameRows(const Database& db,
                       const std::vector<std::string>& sqls) {
  CbqtConfig cached_cfg;
  cached_cfg.plan_cache.capacity = 64;
  QueryEngine cached(db, cached_cfg);
  QueryEngine uncached(db, CbqtConfig{});
  for (const std::string& sql : sqls) {
    auto got = cached.Run(sql);
    auto want = uncached.Run(sql);
    EXPECT_EQ(got.ok(), want.ok()) << sql;
    if (!got.ok() || !want.ok()) {
      if (!got.ok() && !want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code()) << sql;
      }
      continue;
    }
    SortRowsCanonical(&got->rows);
    SortRowsCanonical(&want->rows);
    EXPECT_EQ(got->rows, want->rows) << sql;
  }
  return cached.plan_cache_stats().cursor_hits;
}

TEST_F(CursorSharingTest, CachedEngineReturnsUncachedRows) {
  std::vector<std::string> sqls;
  for (const std::string& base : CorpusStatements()) {
    sqls.push_back(base);
    std::vector<std::string> variants = Variants(base);
    // Changed literals, equal literals, and a respelled copy: the variants
    // that keep the shape and so exercise the cursor path.
    sqls.push_back(variants[0]);
    sqls.push_back(variants[1]);
    sqls.push_back(variants[variants.size() - 2]);
  }
  EXPECT_GT(ExpectSameRows(*db_, sqls), 0);
}

TEST(CursorSharingFuzzDb, CachedEngineReturnsUncachedRowsOnFuzzCorpus) {
  Database db;
  ASSERT_TRUE(BuildFuzzDatabase(&db).ok());
  std::vector<std::string> sqls;
  for (const std::string& base : FuzzCorpusStatements()) {
    sqls.push_back(base);
    for (std::string& v : Variants(base)) sqls.push_back(std::move(v));
  }
  ExpectSameRows(db, sqls);
}

}  // namespace
}  // namespace cbqt
