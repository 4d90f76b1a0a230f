#include "common/value.h"

#include "common/result_compare.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace cbqt {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("abc").AsString(), "abc");
  EXPECT_TRUE(Value::Boolean(true).AsBool());
}

TEST(Value, NumericValueCrossesKinds) {
  EXPECT_DOUBLE_EQ(Value::Int(3).NumericValue(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).NumericValue(), 3.5);
  EXPECT_DOUBLE_EQ(Value::Boolean(true).NumericValue(), 1.0);
}

TEST(Value, StructuralEqualityTreatsNullAsEqual) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_NE(Value::Int(7), Value::Real(7.0));  // structural, not numeric
}

TEST(Value, SqlCompareNumericAcrossKinds) {
  EXPECT_EQ(CompareValues(Value::Int(2), Value::Real(2.0)), Ordering::kEqual);
  EXPECT_EQ(CompareValues(Value::Int(1), Value::Real(1.5)), Ordering::kLess);
  EXPECT_EQ(CompareValues(Value::Real(3.0), Value::Int(2)),
            Ordering::kGreater);
}

TEST(Value, SqlCompareNullIsUnknown) {
  EXPECT_EQ(CompareValues(Value::Null(), Value::Int(1)), Ordering::kUnknown);
  EXPECT_EQ(CompareValues(Value::Int(1), Value::Null()), Ordering::kUnknown);
  EXPECT_EQ(CompareValues(Value::Null(), Value::Null()), Ordering::kUnknown);
}

TEST(Value, SqlCompareStrings) {
  EXPECT_EQ(CompareValues(Value::Str("a"), Value::Str("b")), Ordering::kLess);
  EXPECT_EQ(CompareValues(Value::Str("b"), Value::Str("b")), Ordering::kEqual);
  // Date strings compare lexicographically, which is chronological for
  // YYYYMMDD (the paper's Q1 uses '19980101'-style literals).
  EXPECT_EQ(CompareValues(Value::Str("19980101"), Value::Str("20050101")),
            Ordering::kLess);
}

TEST(Value, CrossKindNonNumericIsUnknown) {
  EXPECT_EQ(CompareValues(Value::Str("1"), Value::Int(1)), Ordering::kUnknown);
}

TEST(Value, NullSafeEqual) {
  EXPECT_TRUE(NullSafeEqual(Value::Null(), Value::Null()));
  EXPECT_FALSE(NullSafeEqual(Value::Null(), Value::Int(1)));
  EXPECT_TRUE(NullSafeEqual(Value::Int(2), Value::Real(2.0)));
  EXPECT_FALSE(NullSafeEqual(Value::Int(2), Value::Int(3)));
}

TEST(Value, TotalLessPutsNullLast) {
  EXPECT_TRUE(TotalLess(Value::Int(1), Value::Null()));
  EXPECT_FALSE(TotalLess(Value::Null(), Value::Int(1)));
  EXPECT_FALSE(TotalLess(Value::Null(), Value::Null()));
  EXPECT_TRUE(TotalLess(Value::Int(1), Value::Int(2)));
}

TEST(Value, HashConsistentForNumericKinds) {
  // Int(2) and Real(2.0) must hash identically so mixed numeric join keys
  // land in the same bucket.
  EXPECT_EQ(Value::Int(2).Hash(), Value::Real(2.0).Hash());
}

TEST(Value, RowHashAndEquality) {
  Row a{Value::Int(1), Value::Str("x"), Value::Null()};
  Row b{Value::Int(1), Value::Str("x"), Value::Null()};
  Row c{Value::Int(1), Value::Str("y"), Value::Null()};
  EXPECT_EQ(HashRow(a), HashRow(b));
  EXPECT_TRUE(RowsEqualStructural(a, b));
  EXPECT_FALSE(RowsEqualStructural(a, c));
  EXPECT_FALSE(RowsEqualStructural(a, Row{Value::Int(1)}));
}

TEST(Value, RowsEqualStructuralNumericKinds) {
  Row a{Value::Int(2)};
  Row b{Value::Real(2.0)};
  EXPECT_TRUE(RowsEqualStructural(a, b));
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Boolean(false).ToString(), "FALSE");
}

TEST(ResultCompare, NanEqualsNanAndInfinityItselfOnBothPaths) {
  const double inf = std::numeric_limits<double>::infinity();
  const Value nan = Value::Real(std::nan(""));
  for (bool approx : {false, true}) {
    EXPECT_TRUE(ResultValuesEqual(nan, nan, approx)) << approx;
    EXPECT_TRUE(ResultValuesEqual(Value::Real(inf), Value::Real(inf), approx))
        << approx;
    EXPECT_TRUE(ResultValuesEqual(Value::Real(-inf), Value::Real(-inf), approx))
        << approx;
    EXPECT_TRUE(ResultValuesEqual(Value::Real(-0.0), Value::Real(0.0), approx))
        << approx;
    EXPECT_TRUE(ResultValuesEqual(Value::Real(-0.0), Value::Int(0), approx))
        << approx;
    EXPECT_FALSE(ResultValuesEqual(Value::Real(inf), Value::Real(-inf), approx))
        << approx;
    EXPECT_FALSE(ResultValuesEqual(Value::Real(inf), Value::Real(1e300), approx))
        << approx;
    EXPECT_FALSE(ResultValuesEqual(nan, Value::Real(5.0), approx)) << approx;
    EXPECT_FALSE(ResultValuesEqual(Value::Int(5), nan, approx)) << approx;
    EXPECT_FALSE(ResultValuesEqual(nan, Value::Real(inf), approx)) << approx;
    EXPECT_FALSE(ResultValuesEqual(nan, Value::Null(), approx)) << approx;
  }
  // Value's own equality is left as it is: NaN != NaN structurally.
  EXPECT_FALSE(nan == Value::Real(std::nan("")));
}

TEST(ResultCompare, MultisetsWithNanInfinityAndNegativeZeroCompareEqual) {
  const double inf = std::numeric_limits<double>::infinity();
  const Value nan = Value::Real(std::nan(""));
  // The same multiset in two orders: canonical sorting must pair every NaN
  // row with a NaN row although TotalLess finds NaN equal to every number.
  std::vector<Row> a = {{nan, Value::Int(1)},
                        {Value::Real(1.0), Value::Int(2)},
                        {Value::Real(inf), Value::Int(3)},
                        {Value::Real(-0.0), Value::Int(4)},
                        {Value::Real(-inf), Value::Int(5)},
                        {nan, Value::Int(6)},
                        {Value::Real(0.5), Value::Int(7)}};
  std::vector<Row> b = {{Value::Real(0.5), Value::Int(7)},
                        {Value::Real(0.0), Value::Int(4)},
                        {nan, Value::Int(6)},
                        {Value::Real(-inf), Value::Int(5)},
                        {Value::Real(1.0), Value::Int(2)},
                        {nan, Value::Int(1)},
                        {Value::Real(inf), Value::Int(3)}};
  for (bool approx : {false, true}) {
    RowSetDiff diff = CompareRowMultisets(a, b, approx);
    EXPECT_TRUE(diff.equal) << diff.message;
  }
  // A NaN where a number was is a difference.
  b[1][0] = nan;
  EXPECT_FALSE(RowMultisetsEqual(a, b));
  EXPECT_FALSE(RowMultisetsEqual(a, b, /*approx_doubles=*/false));
  // So is a NaN that moves to another row.
  std::vector<Row> c = {{nan}, {Value::Real(1.0)}, {Value::Real(0.0)}};
  std::vector<Row> d = {{Value::Real(0.0)}, {nan}, {nan}};
  EXPECT_FALSE(RowMultisetsEqual(c, d));
  std::vector<Row> e = {{Value::Real(0.0)}, {nan}, {Value::Real(1.0)}};
  EXPECT_TRUE(RowMultisetsEqual(c, e));
}

}  // namespace
}  // namespace cbqt
