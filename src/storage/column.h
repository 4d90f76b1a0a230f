#ifndef CBQT_STORAGE_COLUMN_H_
#define CBQT_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace cbqt {

/// How a column stores its values. The first five mirror ValueKind, in the
/// same order, so a typed column's kind casts to the ValueKind of every
/// non-NULL value it holds: kNull while every value so far is NULL, then the
/// kind of the first non-NULL value. A column that receives a non-NULL value
/// of a second kind becomes kGeneric for good.
enum class ColumnKind : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  kBool,
  kGeneric
};

/// One stored table column: its values in rowid order, typed by the kind of
/// the values it actually holds rather than by the declared type.
///
///   kInt64 / kDouble  a flat int64_t / double array;
///   kString           uint32_t codes into a per-column dictionary of the
///                     distinct strings, in first-insert order;
///   kBool             a byte array (0 or 1);
///   kGeneric          a std::vector<Value>, for a column that holds values
///                     of more than one kind (an Int in a Double-declared
///                     column next to Reals, a kUnknown column, or anything
///                     Table::InsertUnchecked was given).
///
/// Every kind keeps one validity byte per row; the typed array holds 0 at a
/// NULL row. A stored value reads back (Get) with its exact kind and bits:
/// NaN payloads, -0.0 and int64 beyond 2^53 included.
///
/// The comparison helpers reproduce Value semantics on the stored
/// representation without building a Value: TotalCompare / TotalCompareTo
/// give TotalLess's verdict, EqualsNonNull CompareValues' kEqual, and Hash
/// Value::Hash.
class Column {
 public:
  ColumnKind kind() const { return kind_; }
  size_t size() const { return valid_.size(); }
  bool IsNull(size_t row) const { return valid_[row] == 0; }

  /// Appends one value (any kind, NULL included).
  void Append(const Value& v);

  /// The value at `row`, with its stored kind and bits.
  Value Get(size_t row) const {
    if (valid_[row] == 0) return Value::Null();
    switch (kind_) {
      case ColumnKind::kInt64:
        return Value::Int(ints_[row]);
      case ColumnKind::kDouble:
        return Value::Real(doubles_[row]);
      case ColumnKind::kString:
        return Value::Str(dict_[codes_[row]]);
      case ColumnKind::kBool:
        return Value::Boolean(bools_[row] != 0);
      case ColumnKind::kGeneric:
        return values_[row];
      case ColumnKind::kNull:
        break;
    }
    return Value::Null();
  }

  /// Appends Get(rowids[i]) to rows[i] for each i < n: one kind dispatch for
  /// the whole run of rows.
  void AppendTo(const int64_t* rowids, size_t n, Row* rows) const;

  // The storage of the column's kind, indexed by rowid.
  const uint8_t* validity() const { return valid_.data(); }
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const Value* values() const { return values_.data(); }

  /// The string that dictionary code `code` stands for (kString only).
  const std::string& DictEntry(uint32_t code) const { return dict_[code]; }
  size_t DictSize() const { return dict_.size(); }

  /// The dictionary code of `s`, or -1 when no row of the column holds it
  /// (kString only).
  int64_t FindCode(std::string_view s) const;

  /// Three-way TotalLess between the values at rows a and b: < 0 when
  /// TotalLess(a, b), > 0 when TotalLess(b, a), else 0.
  int TotalCompare(size_t a, size_t b) const;

  /// Three-way TotalLess between the value at `row` and the non-NULL `v`.
  int TotalCompareTo(size_t row, const Value& v) const;

  /// True when the value at `row` is not NULL and CompareValues finds it
  /// equal to the non-NULL `v`.
  bool EqualsNonNull(size_t row, const Value& v) const;

  /// Value::Hash of the value at `row`.
  size_t Hash(size_t row) const;

 private:
  /// Fixes the kind of a column that has held only NULLs so far.
  void SetKind(ColumnKind kind);
  /// Moves every stored value into values_ and drops the typed storage.
  void MakeGeneric();
  /// Appends the NULL placeholder of the column's kind.
  void AppendNull();
  /// The code of `s`, adding it to the dictionary when new.
  uint32_t Intern(const std::string& s);
  /// The hash slot holding `s`, or the empty slot where it would go.
  size_t SlotOf(std::string_view s) const;
  /// Rebuilds the dictionary's hash slots with `slots` slots (a power of 2).
  void Rehash(size_t slots);

  ColumnKind kind_ = ColumnKind::kNull;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::vector<uint8_t> bools_;
  std::vector<Value> values_;
  std::vector<std::string> dict_;
  /// Open-addressing hash over dict_: code + 1 per slot, 0 when empty; at
  /// most half full.
  std::vector<uint32_t> dict_slots_;
};

}  // namespace cbqt

#endif  // CBQT_STORAGE_COLUMN_H_
