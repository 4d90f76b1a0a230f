#include "sql/unparser.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace cbqt {
namespace {

std::string Rendered(const std::string& sql) {
  auto qb = ParseSql(sql);
  EXPECT_TRUE(qb.ok()) << qb.status().ToString();
  return qb.ok() ? BlockToSql(*qb.value()) : "";
}

TEST(Unparser, BasicSelect) {
  std::string s = Rendered("SELECT a, b FROM t WHERE a = 1");
  EXPECT_NE(s.find("SELECT a, b"), std::string::npos);
  EXPECT_NE(s.find("FROM t t"), std::string::npos);
  EXPECT_NE(s.find("WHERE (a = 1)"), std::string::npos);
}

TEST(Unparser, RendersDistinctAndGroupHaving) {
  std::string s = Rendered(
      "SELECT DISTINCT a FROM t GROUP BY a HAVING COUNT(*) > 1");
  EXPECT_NE(s.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(s.find("GROUP BY a"), std::string::npos);
  EXPECT_NE(s.find("HAVING (COUNT(*) > 1)"), std::string::npos);
}

TEST(Unparser, RendersSetOps) {
  std::string s = Rendered("SELECT a FROM t UNION ALL SELECT b FROM s");
  EXPECT_NE(s.find("UNION ALL"), std::string::npos);
  s = Rendered("SELECT a FROM t MINUS SELECT b FROM s");
  EXPECT_NE(s.find("MINUS"), std::string::npos);
}

TEST(Unparser, RendersSubqueries) {
  std::string s = Rendered(
      "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s) AND a IN (SELECT b "
      "FROM r)");
  EXPECT_NE(s.find("EXISTS (SELECT"), std::string::npos);
  EXPECT_NE(s.find("IN (SELECT"), std::string::npos);
}

TEST(Unparser, RendersWindow) {
  std::string s = Rendered(
      "SELECT AVG(b) OVER (PARTITION BY a ORDER BY c) FROM t");
  EXPECT_NE(s.find("AVG(b) OVER (PARTITION BY a ORDER BY c)"),
            std::string::npos);
}

TEST(Unparser, RendersSemiJoinNotation) {
  // Semijoins cannot be spelled in standard SQL; the unparser uses the
  // internal notation the paper also resorts to.
  auto qb = ParseSql("SELECT a FROM t");
  ASSERT_TRUE(qb.ok());
  TableRef semi;
  semi.alias = "s";
  semi.table_name = "s";
  semi.join = JoinKind::kSemi;
  semi.join_conds.push_back(MakeBinary(
      BinaryOp::kEq, MakeColumnRef("t", "a"), MakeColumnRef("s", "b")));
  qb.value()->from.push_back(std::move(semi));
  std::string s = BlockToSql(*qb.value());
  EXPECT_NE(s.find("SEMI JOIN s s ON"), std::string::npos);
}

TEST(Unparser, RendersCase) {
  std::string s =
      Rendered("SELECT CASE WHEN a > 1 THEN 2 ELSE 3 END FROM t");
  EXPECT_NE(s.find("CASE WHEN (a > 1) THEN 2 ELSE 3 END"), std::string::npos);
}

TEST(Unparser, SignatureEqualForEqualBlocks) {
  auto a = ParseSql("SELECT a, b FROM t WHERE a = 1 AND b > 2");
  auto b = ParseSql("SELECT a, b FROM t WHERE a = 1 AND b > 2");
  auto c = ParseSql("SELECT a, b FROM t WHERE a = 2 AND b > 2");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(BlockToSql(*a.value()), BlockToSql(*b.value()));
  EXPECT_NE(BlockToSql(*a.value()), BlockToSql(*c.value()));
  EXPECT_TRUE(BlockEquals(*a.value(), *b.value()));
  EXPECT_FALSE(BlockEquals(*a.value(), *c.value()));
}

TEST(Unparser, SignatureDistinguishesJoinKinds) {
  auto a = ParseSql("SELECT a FROM t JOIN s ON t.x = s.x");
  auto b = ParseSql("SELECT a FROM t LEFT OUTER JOIN s ON t.x = s.x");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(BlockToSql(*a.value()), BlockToSql(*b.value()));
  EXPECT_FALSE(BlockEquals(*a.value(), *b.value()));
}

TEST(Unparser, PrettyBreaksClauses) {
  auto qb = ParseSql("SELECT a FROM t WHERE a = 1 ORDER BY a");
  ASSERT_TRUE(qb.ok());
  std::string pretty = BlockToSqlPretty(*qb.value());
  EXPECT_NE(pretty.find("\nFROM"), std::string::npos);
  EXPECT_NE(pretty.find("\nWHERE"), std::string::npos);
  EXPECT_NE(pretty.find("\nORDER BY"), std::string::npos);
}

}  // namespace
}  // namespace cbqt
