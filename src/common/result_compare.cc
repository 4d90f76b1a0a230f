#include "common/result_compare.h"

#include <algorithm>
#include <cmath>

namespace cbqt {

void SortRowsCanonical(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (TotalLess(a[i], b[i])) return true;
      if (TotalLess(b[i], a[i])) return false;
    }
    return a.size() < b.size();
  });
}

std::string RowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += "]";
  return out;
}

bool ResultValuesEqual(const Value& a, const Value& b, bool approx_doubles) {
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) return false;
  if (IsNan(a) || IsNan(b)) return IsNan(a) && IsNan(b);
  if (approx_doubles && (a.kind() == ValueKind::kDouble ||
                         b.kind() == ValueKind::kDouble)) {
    if (a.kind() != ValueKind::kInt64 && a.kind() != ValueKind::kDouble) {
      return false;
    }
    if (b.kind() != ValueKind::kInt64 && b.kind() != ValueKind::kDouble) {
      return false;
    }
    double x = a.NumericValue();
    double y = b.NumericValue();
    // An infinity equals only the same infinity (inf - inf is NaN, and the
    // tolerance scales to inf).
    if (std::isinf(x) || std::isinf(y)) return x == y;
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return RowsEqualStructural(Row{a}, Row{b});
}

bool ResultRowsEqual(const Row& a, const Row& b, bool approx_doubles) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ResultValuesEqual(a[i], b[i], approx_doubles)) return false;
  }
  return true;
}

RowSetDiff CompareRowMultisets(const std::vector<Row>& actual,
                               const std::vector<Row>& expected,
                               bool approx_doubles) {
  RowSetDiff diff;
  std::vector<Row> a = actual;
  std::vector<Row> e = expected;
  SortRowsCanonical(&a);
  SortRowsCanonical(&e);
  if (a.size() != e.size()) {
    diff.message = "row count mismatch: actual " + std::to_string(a.size()) +
                   " vs expected " + std::to_string(e.size());
    size_t n = std::min(a.size(), e.size());
    for (size_t i = 0; i < n; ++i) {
      if (ResultRowsEqual(a[i], e[i], approx_doubles)) continue;
      diff.message += "; first diverging row " + std::to_string(i) +
                      ": actual " + RowToString(a[i]) + " vs expected " +
                      RowToString(e[i]);
      return diff;
    }
    if (n < a.size()) {
      diff.message += "; first extra actual row: " + RowToString(a[n]);
    } else if (n < e.size()) {
      diff.message += "; first missing expected row: " + RowToString(e[n]);
    }
    return diff;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (ResultRowsEqual(a[i], e[i], approx_doubles)) continue;
    diff.message = "first diverging row " + std::to_string(i) + " of " +
                   std::to_string(a.size()) + ": actual " + RowToString(a[i]) +
                   " vs expected " + RowToString(e[i]);
    return diff;
  }
  diff.equal = true;
  return diff;
}

}  // namespace cbqt
