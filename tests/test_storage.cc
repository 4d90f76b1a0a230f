#include "storage/database.h"

#include <gtest/gtest.h>

namespace cbqt {
namespace {

TableDef PointsDef() {
  TableDef t;
  t.name = "points";
  t.columns = {{"id", DataType::kInt64, false},
               {"x", DataType::kInt64, true},
               {"tag", DataType::kString, true}};
  t.primary_key = {"id"};
  t.indexes = {{"pts_x", {"x"}, false}, {"pts_x_tag", {"x", "tag"}, false}};
  return t;
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(PointsDef()).ok());
    // id, x, tag
    ASSERT_TRUE(db_.Insert("points", {Value::Int(0), Value::Int(5),
                                      Value::Str("a")}).ok());
    ASSERT_TRUE(db_.Insert("points", {Value::Int(1), Value::Int(3),
                                      Value::Str("b")}).ok());
    ASSERT_TRUE(db_.Insert("points", {Value::Int(2), Value::Int(5),
                                      Value::Str("b")}).ok());
    ASSERT_TRUE(db_.Insert("points", {Value::Int(3), Value::Null(),
                                      Value::Str("c")}).ok());
    ASSERT_TRUE(db_.Analyze().ok());
  }
  Database db_;
};

TEST_F(StorageTest, InsertValidatesArity) {
  Status st = db_.Insert("points", {Value::Int(9)});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, InsertValidatesNullability) {
  Status st = db_.Insert("points", {Value::Null(), Value::Int(1),
                                    Value::Str("z")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, InsertValidatesType) {
  Status st = db_.Insert("points", {Value::Str("oops"), Value::Int(1),
                                    Value::Str("z")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, IntAcceptedForDoubleColumn) {
  TableDef t;
  t.name = "d";
  t.columns = {{"v", DataType::kDouble, false}};
  ASSERT_TRUE(db_.CreateTable(t).ok());
  EXPECT_TRUE(db_.Insert("d", {Value::Int(3)}).ok());
}

TEST_F(StorageTest, IndexEqualityLookup) {
  const Index* idx = db_.FindIndex("points", "pts_x");
  ASSERT_NE(idx, nullptr);
  auto rows = idx->LookupEqual({Value::Int(5)});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[1], 2);
  EXPECT_TRUE(idx->LookupEqual({Value::Int(99)}).empty());
}

TEST_F(StorageTest, IndexNullProbeMatchesNothing) {
  const Index* idx = db_.FindIndex("points", "pts_x");
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(idx->LookupEqual({Value::Null()}).empty());
}

TEST_F(StorageTest, IndexPrefixLookupOnCompositeKey) {
  const Index* idx = db_.FindIndex("points", "pts_x_tag");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->LookupEqual({Value::Int(5)}).size(), 2u);
  auto exact = idx->LookupEqual({Value::Int(5), Value::Str("b")});
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0], 2);
}

TEST_F(StorageTest, AnalyzeComputesStats) {
  const TableStats* ts = db_.stats().Find("points");
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->rows, 4);
  // x: values {5,3,5,NULL} -> ndv 2, null_frac 0.25, min 3, max 5.
  const ColumnStats& x = ts->columns[1];
  EXPECT_DOUBLE_EQ(x.ndv, 2);
  EXPECT_DOUBLE_EQ(x.null_frac, 0.25);
  EXPECT_EQ(x.min.AsInt(), 3);
  EXPECT_EQ(x.max.AsInt(), 5);
}

TEST_F(StorageTest, MissingTableErrors) {
  EXPECT_EQ(db_.Insert("ghost", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.FindTable("ghost"), nullptr);
  EXPECT_EQ(db_.FindIndex("ghost", "x"), nullptr);
}

}  // namespace
}  // namespace cbqt
