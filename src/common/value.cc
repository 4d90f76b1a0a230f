#include "common/value.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>

namespace cbqt {

double Value::NumericValue() const {
  switch (kind()) {
    case ValueKind::kInt64:
      return static_cast<double>(AsInt());
    case ValueKind::kDouble:
      return AsDouble();
    case ValueKind::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kInt64:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueKind::kString:
      return "'" + AsString() + "'";
    case ValueKind::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueKind::kInt64:
      // Hash through double so Int(2) and Real(2.0) collide on purpose.
      return std::hash<double>()(static_cast<double>(AsInt()));
    case ValueKind::kDouble:
      // Every NaN is one key (ValuesEqualStructural), whatever its bits.
      if (IsNan(*this)) return 0x7ff8000000000000ULL;
      return std::hash<double>()(AsDouble());
    case ValueKind::kString:
      return std::hash<std::string>()(AsString());
    case ValueKind::kBool:
      return AsBool() ? 0x1234567 : 0x89abcde;
  }
  return 0;
}

namespace {

bool IsNumeric(const Value& v) {
  return v.kind() == ValueKind::kInt64 || v.kind() == ValueKind::kDouble;
}

}  // namespace

bool IsNan(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble());
}

Ordering CompareValues(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Ordering::kUnknown;
  if (IsNumeric(a) && IsNumeric(b)) {
    int c = NumericOrder(a.NumericValue(), b.NumericValue());
    if (c < 0) return Ordering::kLess;
    if (c > 0) return Ordering::kGreater;
    return Ordering::kEqual;
  }
  if (a.kind() != b.kind()) return Ordering::kUnknown;
  switch (a.kind()) {
    case ValueKind::kString: {
      int c = a.AsString().compare(b.AsString());
      if (c < 0) return Ordering::kLess;
      if (c > 0) return Ordering::kGreater;
      return Ordering::kEqual;
    }
    case ValueKind::kBool: {
      int x = a.AsBool() ? 1 : 0;
      int y = b.AsBool() ? 1 : 0;
      if (x < y) return Ordering::kLess;
      if (x > y) return Ordering::kGreater;
      return Ordering::kEqual;
    }
    default:
      return Ordering::kUnknown;
  }
}

bool NullSafeEqual(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) return false;
  return CompareValues(a, b) == Ordering::kEqual;
}

bool TotalLess(const Value& a, const Value& b) {
  // NULLs sort last, matching Oracle's default NULLS LAST for ascending.
  if (a.is_null()) return false;
  if (b.is_null()) return true;
  Ordering ord = CompareValues(a, b);
  if (ord == Ordering::kLess) return true;
  if (ord == Ordering::kGreater || ord == Ordering::kEqual) return false;
  // Incomparable kinds: order by kind index to keep the order total.
  return static_cast<int>(a.kind()) < static_cast<int>(b.kind());
}

bool ValuesEqualStructural(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) return false;
  Ordering ord = CompareValues(a, b);
  if (ord == Ordering::kEqual) return true;
  if (ord != Ordering::kUnknown) return false;
  return a == b;
}

bool ValuesIdentical(const Value& a, const Value& b) {
  if (a.kind() == ValueKind::kDouble && b.kind() == ValueKind::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a == b;
}

bool RowsEqualStructural(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesEqualStructural(a[i], b[i])) return false;
  }
  return true;
}

size_t HashStep(size_t h, const Value& v) {
  return (h ^ v.Hash()) * 1099511628211ULL;
}

size_t HashRow(const Row& row) {
  size_t h = kHashRowSeed;
  for (const Value& v : row) h = HashStep(h, v);
  return h;
}

int64_t EstimateValueBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.kind() == ValueKind::kString) {
    // Strings beyond the small-string buffer own a heap allocation.
    bytes += static_cast<int64_t>(v.AsString().capacity());
  }
  return bytes;
}

int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row) bytes += EstimateValueBytes(v);
  return bytes;
}

}  // namespace cbqt
