#ifndef CBQT_COMMON_VALUE_H_
#define CBQT_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace cbqt {

/// Runtime value kinds. SQL NULL is a distinct kind rather than a flag so a
/// Value is always exactly one of these.
enum class ValueKind { kNull = 0, kInt64, kDouble, kString, kBool };

/// A dynamically typed SQL value.
///
/// Values implement SQL three-valued comparison semantics through the free
/// functions below: any comparison involving NULL yields "unknown", which the
/// expression evaluator maps onto a NULL boolean. `operator==` on Value
/// itself is *structural* equality (NULL == NULL is true); it is used by
/// containers and tests, never by SQL predicate evaluation.
class Value {
 public:
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Real(double v) { return Value(Payload(v)); }
  static Value Str(std::string v) { return Value(Payload(std::move(v))); }
  static Value Boolean(bool v) { return Value(Payload(v)); }

  ValueKind kind() const { return static_cast<ValueKind>(data_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }

  /// Numeric view: int64 and double both render as double; other kinds
  /// return 0 (callers must check kind first).
  double NumericValue() const;

  /// Structural equality (NULL equals NULL). For SQL comparison use
  /// CompareValues.
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Renders the value for debugging and result printing ("NULL", 42,
  /// 3.5, 'abc', TRUE).
  std::string ToString() const;

  /// Hash for hash-join/aggregation keys. NULLs hash to a fixed value, and
  /// so do NaNs, whatever their sign or payload; int64 and double with the
  /// same numeric value hash identically so mixed numeric joins work.
  size_t Hash() const;

 private:
  using Payload =
      std::variant<std::monostate, int64_t, double, std::string, bool>;
  explicit Value(Payload data) : data_(std::move(data)) {}
  Payload data_;
};

/// True for a double NaN (of any sign or payload).
bool IsNan(const Value& v);

/// Three-way order of two numbers (< 0 less, 0 equal, > 0 greater), the one
/// numeric rule of SQL comparison. It is Oracle's BINARY_DOUBLE rule: a NaN
/// equals a NaN, whatever its sign or payload, and sorts above every other
/// number, +infinity included.
inline int NumericOrder(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;
  return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
}

/// Three-valued comparison result.
enum class Ordering { kLess, kEqual, kGreater, kUnknown };

/// SQL comparison: returns kUnknown if either side is NULL; numeric kinds
/// compare as doubles by NumericOrder; strings lexicographically; bools
/// false < true. Cross-kind non-numeric comparisons return kUnknown.
Ordering CompareValues(const Value& a, const Value& b);

/// Null-safe equality (SQL "IS NOT DISTINCT FROM"): NULLs match each other.
/// Used by INTERSECT/MINUS conversion where the paper notes nulls match.
bool NullSafeEqual(const Value& a, const Value& b);

/// Total order for sorting: NULLs sort last (Oracle default), otherwise
/// CompareValues order; cross-kind falls back to kind index so the order is
/// total.
bool TotalLess(const Value& a, const Value& b);

/// A row of values. Rows are plain data; operators copy or move them freely.
using Row = std::vector<Value>;

/// Hash of a key row (for hash joins / aggregation): HashStep over its
/// values, in order, from kHashRowSeed.
size_t HashRow(const Row& row);

/// One step of HashRow: folds `v` into the running hash `h`. A one-value key
/// hashes as HashStep(kHashRowSeed, v), bit-identical to HashRow of the row
/// holding just `v`, without building that row.
inline constexpr size_t kHashRowSeed = 14695981039346656037ULL;
size_t HashStep(size_t h, const Value& v);

/// Approximate in-memory footprint of a value / row, used by the memory
/// accounting layer (MemoryTracker) when pipeline-breaking operators buffer
/// rows. Logical estimate (container header + payload), not a malloc audit.
int64_t EstimateValueBytes(const Value& v);
int64_t EstimateRowBytes(const Row& row);

/// Structural value equality (NULLs match; numeric kinds compare by value so
/// Int(2) == Real(2.0) for hashing consistency; a NaN matches every NaN and
/// nothing else). Agrees with Value::Hash: equal values hash equal.
bool ValuesEqualStructural(const Value& a, const Value& b);

/// Structural row equality: same width and ValuesEqualStructural slot by
/// slot.
bool RowsEqualStructural(const Row& a, const Row& b);

/// Value identity: the same kind and the same bits (NULL is NULL). Stricter
/// than ValuesEqualStructural, which matches Int(2) with Real(2.0), 2^53
/// with 2^53 + 1 and -0.0 with 0.0, values that arithmetic or the result
/// kind can tell apart. Agrees with Value::Hash: identical values hash equal.
bool ValuesIdentical(const Value& a, const Value& b);

}  // namespace cbqt

#endif  // CBQT_COMMON_VALUE_H_
