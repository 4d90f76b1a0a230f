#ifndef CBQT_COMMON_RESULT_COMPARE_H_
#define CBQT_COMMON_RESULT_COMPARE_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace cbqt {

/// Canonical result-set comparison, shared by the equivalence tests, the
/// batch-executor oracle sweep, and the metamorphic fuzzer. SQL result sets
/// are unordered multisets (unless the top-level block orders them), so two
/// plans are equivalent iff their outputs compare equal after canonical
/// sorting, with NULL-aware structural value equality.

/// Sorts rows into a canonical total order: lexicographic TotalLess
/// (NULLs last, a NaN after every other number), shorter rows first on a
/// common prefix.
void SortRowsCanonical(std::vector<Row>* rows);

/// Renders one row for diff messages: [v1, v2, ...] with SQL-ish values.
std::string RowToString(const Row& row);

/// Value equality for result comparison: structural (NULL == NULL,
/// Int(2) == Real(2.0), -0.0 == 0.0); a NaN equals a NaN and nothing else;
/// when `approx_doubles` is set, doubles compare with a 1e-9 relative
/// tolerance because different plans (and different batch/spill splits) sum
/// doubles in different orders, and an infinity equals the same infinity.
bool ResultValuesEqual(const Value& a, const Value& b, bool approx_doubles);

/// Row equality under ResultValuesEqual.
bool ResultRowsEqual(const Row& a, const Row& b, bool approx_doubles);

/// Outcome of a multiset comparison. When the sets differ, `message` pins
/// the first diverging row after canonical sorting (or the size mismatch).
struct RowSetDiff {
  bool equal = false;
  std::string message;

  explicit operator bool() const { return equal; }
};

/// Order-insensitive multiset compare: canonically sorts copies of both
/// sides (inputs untouched) and compares pairwise. On mismatch the message
/// reports sizes and the first diverging row index with both rows rendered.
RowSetDiff CompareRowMultisets(const std::vector<Row>& actual,
                               const std::vector<Row>& expected,
                               bool approx_doubles = true);

/// Convenience predicate form of CompareRowMultisets.
inline bool RowMultisetsEqual(const std::vector<Row>& actual,
                              const std::vector<Row>& expected,
                              bool approx_doubles = true) {
  return CompareRowMultisets(actual, expected, approx_doubles).equal;
}

}  // namespace cbqt

#endif  // CBQT_COMMON_RESULT_COMPARE_H_
