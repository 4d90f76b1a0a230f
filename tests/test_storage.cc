#include "storage/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

// Index::LookupEqual into a fresh vector.
std::vector<int64_t> Lookup(const Index& idx, const Row& key) {
  std::vector<int64_t> out;
  idx.LookupEqual(key, &out);
  return out;
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
  auto rows = Lookup(*idx, {Value::Int(5)});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[1], 2);
  EXPECT_TRUE(Lookup(*idx, {Value::Int(99)}).empty());
}

TEST_F(StorageTest, IndexNullProbeMatchesNothing) {
  const Index* idx = db_.FindIndex("points", "pts_x");
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(Lookup(*idx, {Value::Null()}).empty());
}

TEST_F(StorageTest, IndexPrefixLookupOnCompositeKey) {
  const Index* idx = db_.FindIndex("points", "pts_x_tag");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(Lookup(*idx, {Value::Int(5)}).size(), 2u);
  auto exact = Lookup(*idx, {Value::Int(5), Value::Str("b")});
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

// ---------------------------------------------------------------------------
// Column storage
// ---------------------------------------------------------------------------

// Same kind and the same bits: a double compares by its bit pattern, so NaN
// payloads and the sign of zero count.
bool SameKindAndBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() != ValueKind::kDouble) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectRowAtIsInserted(const Table& table, const std::vector<Row>& rows) {
  ASSERT_EQ(table.NumRows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    Row got = table.RowAt(r);
    ASSERT_EQ(got.size(), rows[r].size()) << "row " << r;
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_TRUE(SameKindAndBits(got[c], rows[r][c]))
          << "row " << r << " column " << table.def().columns[c].name << ": "
          << got[c].ToString() << " vs " << rows[r][c].ToString();
    }
  }
}

double NanWithPayload() {
  uint64_t bits = 0x7ff8000000000123ULL;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(ColumnStorage, RowAtReturnsEveryInsertedValueWithItsKindAndBits) {
  const int64_t p53 = int64_t{1} << 53;
  TableDef def;
  def.name = "w";
  def.columns = {{"i", DataType::kInt64, true},
                 {"r", DataType::kDouble, true},
                 {"ri", DataType::kDouble, true},     // Ints only
                 {"rmix", DataType::kDouble, true},   // an Int among Reals
                 {"s", DataType::kString, true},
                 {"b", DataType::kBool, true},
                 {"u", DataType::kUnknown, true},     // every kind
                 {"n", DataType::kInt64, true}};      // NULLs only
  Database db;
  ASSERT_TRUE(db.CreateTable(def).ok());
  const Value null = Value::Null();
  std::vector<Row> rows = {
      {Value::Int(0), Value::Real(std::nan("")), Value::Int(3),
       Value::Real(2.5), Value::Str(""), Value::Boolean(true), Value::Int(7),
       null},
      {Value::Int(std::numeric_limits<int64_t>::min()), Value::Real(-0.0),
       null, Value::Int(2), Value::Str("a"), Value::Boolean(false),
       Value::Str("x"), null},
      {Value::Int(std::numeric_limits<int64_t>::max()), Value::Real(0.0),
       Value::Int(p53 + 1), Value::Real(-0.0), Value::Str(""), null,
       Value::Real(-0.0), null},
      {Value::Int(p53 + 1), Value::Real(NanWithPayload()),
       Value::Int(-(p53 + 1)), null, Value::Str("a"), Value::Boolean(true),
       Value::Boolean(false), null},
      {null, Value::Real(-std::numeric_limits<double>::infinity()),
       Value::Int(0), Value::Real(std::nan("")),
       Value::Str("a string longer than the small buffer"),
       Value::Boolean(false), null, null},
      {Value::Int(-(p53 + 1)), null, null, Value::Int(p53 + 1), null, null,
       Value::Real(std::nan("")), null},
  };
  for (const Row& row : rows) ASSERT_TRUE(db.Insert("w", row).ok());
  const Table* table = db.FindTable("w");
  ASSERT_NE(table, nullptr);
  ExpectRowAtIsInserted(*table, rows);

  // Each column takes the kind of the values it holds.
  EXPECT_EQ(table->column(0).kind(), ColumnKind::kInt64);
  EXPECT_EQ(table->column(1).kind(), ColumnKind::kDouble);
  EXPECT_EQ(table->column(2).kind(), ColumnKind::kInt64);
  EXPECT_EQ(table->column(3).kind(), ColumnKind::kGeneric);
  EXPECT_EQ(table->column(4).kind(), ColumnKind::kString);
  EXPECT_EQ(table->column(5).kind(), ColumnKind::kBool);
  EXPECT_EQ(table->column(6).kind(), ColumnKind::kGeneric);
  EXPECT_EQ(table->column(7).kind(), ColumnKind::kNull);
  // Repeated strings share one dictionary entry.
  EXPECT_EQ(table->column(4).DictSize(), 3u);

  // After Analyze, inserts keep appending: a Real into the Int-only Double
  // column turns it generic, and every earlier value still reads back.
  ASSERT_TRUE(db.Analyze().ok());
  rows.push_back({Value::Int(9), Value::Real(1.5), Value::Real(0.5), null,
                  Value::Str("b"), Value::Boolean(true), null,
                  Value::Int(4)});
  ASSERT_TRUE(db.Insert("w", rows.back()).ok());
  EXPECT_EQ(table->column(2).kind(), ColumnKind::kGeneric);
  EXPECT_EQ(table->column(7).kind(), ColumnKind::kInt64);
  ExpectRowAtIsInserted(*table, rows);
}

TEST(ColumnStorage, UncheckedInsertOfMixedKindsReadsBack) {
  TableDef def;
  def.name = "m";
  def.columns = {{"k", DataType::kInt64, true}, {"t", DataType::kString, true}};
  Database db;
  ASSERT_TRUE(db.CreateTable(def).ok());
  // The unchecked path lets a string into an Int column and an Int into a
  // String column, after NULLs and typed values.
  std::vector<Row> rows = {{Value::Null(), Value::Str("p")},
                           {Value::Int(4), Value::Str("q")},
                           {Value::Str("s"), Value::Int(5)},
                           {Value::Int(4), Value::Null()},
                           {Value::Boolean(true), Value::Str("p")}};
  ASSERT_TRUE(db.InsertBulk("m", rows).ok());
  const Table* table = db.FindTable("m");
  EXPECT_EQ(table->column(0).kind(), ColumnKind::kGeneric);
  EXPECT_EQ(table->column(1).kind(), ColumnKind::kGeneric);
  ExpectRowAtIsInserted(*table, rows);
}

// ---------------------------------------------------------------------------
// Index lookups against a brute-force scan and against the row-key build
// ---------------------------------------------------------------------------

// A table whose key columns hold many duplicates of every kind (NULLs
// included) and enough rows that std::sort partitions, not just
// insertion-sorts.
class IndexOrderTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 700;

  static void SetUpTestSuite() {
    db_ = new Database();
    TableDef def;
    def.name = "ix";
    def.columns = {{"i", DataType::kInt64, true},
                   {"r", DataType::kDouble, true},
                   {"s", DataType::kString, true},
                   {"b", DataType::kBool, true},
                   {"m", DataType::kUnknown, true},
                   {"nan", DataType::kDouble, true},
                   {"big", DataType::kInt64, true}};
    def.indexes = {{"ix_i", {"i"}, false},     {"ix_r", {"r"}, false},
                   {"ix_s", {"s"}, false},     {"ix_b", {"b"}, false},
                   {"ix_m", {"m"}, false},     {"ix_nan", {"nan"}, false},
                   {"ix_big", {"big"}, false}, {"ix_s_i", {"s", "i"}, false},
                   {"ix_i_r", {"i", "r"}, false}};
    ASSERT_TRUE(db_->CreateTable(def).ok());
    const int64_t p53 = int64_t{1} << 53;
    const std::vector<Value> mixed = {Value::Int(2),    Value::Real(2.0),
                                      Value::Str("2"),  Value::Boolean(true),
                                      Value::Null(),    Value::Int(5),
                                      Value::Real(-0.0), Value::Str("a")};
    const std::vector<Value> nans = {Value::Real(1.0), Value::Real(std::nan("")),
                                     Value::Real(-0.0), Value::Real(0.0),
                                     Value::Null(), Value::Real(-1.0)};
    const std::vector<Value> bigs = {Value::Int(p53), Value::Int(p53 + 1),
                                     Value::Int(p53 - 1), Value::Int(-p53),
                                     Value::Null()};
    std::vector<Row> rows;
    for (size_t k = 0; k < kRows; ++k) {
      const int64_t h = static_cast<int64_t>((k * 7919) % 13);
      rows.push_back(
          {h == 12 ? Value::Null() : Value::Int(h % 6 - 2),
           h == 11 ? Value::Null() : Value::Real(static_cast<double>(k % 5) / 2),
           h == 10 ? Value::Null()
                   : Value::Str(std::string(static_cast<size_t>(k % 4), 'a') +
                                (k % 3 == 0 ? "b" : "")),
           k % 9 == 0 ? Value::Null() : Value::Boolean(k % 2 == 0),
           mixed[(k * 5) % mixed.size()], nans[(k * 3) % nans.size()],
           bigs[(k * 11) % bigs.size()]});
    }
    rows_ = rows;
    ASSERT_TRUE(db_->InsertBulk("ix", std::move(rows)).ok());
    ASSERT_TRUE(db_->Analyze().ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static const Index& Idx(const std::string& name) {
    const Index* idx = db_->FindIndex("ix", name);
    EXPECT_NE(idx, nullptr) << name;
    return *idx;
  }

  /// Rowids whose key columns are non-NULL and CompareValues-equal to the
  /// probe, in rowid order; none when the probe holds a NULL.
  static std::vector<int64_t> BruteForce(const Index& idx, const Row& key) {
    std::vector<int64_t> out;
    for (const Value& v : key) {
      if (v.is_null()) return out;
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      bool match = true;
      for (size_t i = 0; i < key.size(); ++i) {
        const Value& stored =
            rows_[r][static_cast<size_t>(idx.key_columns()[i])];
        if (CompareValues(stored, key[i]) != Ordering::kEqual) match = false;
      }
      if (match) out.push_back(static_cast<int64_t>(r));
    }
    return out;
  }

  /// The row-key index build: (key row, rowid) entries in rowid order,
  /// std::sort-ed by lexicographic TotalLess, probed by binary search for
  /// the lower bound and a forward scan while the prefix is non-NULL and
  /// CompareValues-equal.
  static std::vector<int64_t> RowKeyLookup(const Index& idx, const Row& key) {
    struct Entry {
      Row key;
      int64_t rowid;
    };
    std::vector<Entry> entries;
    for (size_t r = 0; r < rows_.size(); ++r) {
      Row k;
      for (int c : idx.key_columns()) k.push_back(rows_[r][static_cast<size_t>(c)]);
      entries.push_back(Entry{std::move(k), static_cast<int64_t>(r)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                for (size_t i = 0; i < a.key.size(); ++i) {
                  if (TotalLess(a.key[i], b.key[i])) return true;
                  if (TotalLess(b.key[i], a.key[i])) return false;
                }
                return false;
              });
    std::vector<int64_t> out;
    for (const Value& v : key) {
      if (v.is_null()) return out;
    }
    auto lo = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, const Row& probe) {
          for (size_t i = 0; i < probe.size(); ++i) {
            if (TotalLess(e.key[i], probe[i])) return true;
            if (TotalLess(probe[i], e.key[i])) return false;
          }
          return false;
        });
    for (auto it = lo; it != entries.end(); ++it) {
      bool equal = true;
      for (size_t i = 0; i < key.size(); ++i) {
        if (it->key[i].is_null() ||
            CompareValues(it->key[i], key[i]) != Ordering::kEqual) {
          equal = false;
        }
      }
      if (!equal) break;
      out.push_back(it->rowid);
    }
    return out;
  }

  /// Probes of every kind: each stored value of the key columns (so every
  /// equal-key run), Int and Real crossed, absent values and NULL.
  static std::vector<Row> Probes(const Index& idx) {
    std::vector<Row> probes = {{Value::Null()},     {Value::Int(-99)},
                               {Value::Real(0.25)}, {Value::Str("zz")},
                               {Value::Str("")},    {Value::Boolean(true)}};
    for (size_t r = 0; r < rows_.size(); r += 7) {
      Row full;
      for (int c : idx.key_columns()) {
        full.push_back(rows_[r][static_cast<size_t>(c)]);
      }
      probes.push_back({full[0]});
      if (full.size() > 1) probes.push_back(full);
      if (full[0].kind() == ValueKind::kInt64) {
        probes.push_back({Value::Real(static_cast<double>(full[0].AsInt()))});
      } else if (full[0].kind() == ValueKind::kDouble &&
                 !std::isnan(full[0].AsDouble())) {
        probes.push_back({Value::Int(static_cast<int64_t>(full[0].AsDouble()))});
      }
    }
    return probes;
  }

  static Database* db_;
  static std::vector<Row> rows_;
};

Database* IndexOrderTest::db_ = nullptr;
std::vector<Row> IndexOrderTest::rows_;

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST_F(IndexOrderTest, LookupEqualMatchesBruteForceForEveryKeyKind) {
  // The NaN column too: a NaN equals only a NaN and sorts above every
  // number (NumericOrder), so its rows form one run at the end of the
  // numbers.
  for (const char* name : {"ix_i", "ix_r", "ix_s", "ix_b", "ix_m", "ix_nan",
                           "ix_big", "ix_s_i", "ix_i_r"}) {
    const Index& idx = Idx(name);
    EXPECT_EQ(idx.NumEntries(), kRows) << name;
    for (const Row& probe : Probes(idx)) {
      std::string label = std::string(name) + " probe";
      for (const Value& v : probe) label += " " + v.ToString();
      EXPECT_EQ(Sorted(Lookup(idx, probe)), BruteForce(idx, probe)) << label;
    }
  }
  // The Int column read through a Real probe and the reverse.
  EXPECT_EQ(Lookup(Idx("ix_i"), {Value::Real(1.0)}).size(),
            BruteForce(Idx("ix_i"), {Value::Int(1)}).size());
  EXPECT_FALSE(Lookup(Idx("ix_r"), {Value::Int(1)}).empty());
  EXPECT_TRUE(Lookup(Idx("ix_i"), {Value::Real(1.5)}).empty());
  EXPECT_TRUE(Lookup(Idx("ix_s_i"), {Value::Str("aab"), Value::Null()}).empty());
}

TEST_F(IndexOrderTest, EqualKeyRowidOrderMatchesTheRowKeyBuild) {
  for (const char* name : {"ix_i", "ix_r", "ix_s", "ix_b", "ix_m", "ix_nan",
                           "ix_big", "ix_s_i", "ix_i_r"}) {
    const Index& idx = Idx(name);
    for (const Row& probe : Probes(idx)) {
      std::string label = std::string(name) + " probe";
      for (const Value& v : probe) label += " " + v.ToString();
      EXPECT_EQ(Lookup(idx, probe), RowKeyLookup(idx, probe)) << label;
    }
  }
}

TEST_F(IndexOrderTest, LookupEqualReusesTheCallersVector) {
  const Index& idx = Idx("ix_i");
  std::vector<int64_t> out;
  idx.LookupEqual({Value::Int(0)}, &out);
  ASSERT_FALSE(out.empty());
  const size_t capacity = out.capacity();
  const int64_t* data = out.data();
  idx.LookupEqual({Value::Int(-99)}, &out);
  EXPECT_TRUE(out.empty());
  idx.LookupEqual({Value::Int(0)}, &out);
  EXPECT_EQ(out.capacity(), capacity);
  EXPECT_EQ(out.data(), data);
}

}  // namespace
}  // namespace cbqt
