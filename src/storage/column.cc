#include "storage/column.h"

#include <algorithm>
#include <functional>

namespace cbqt {

namespace {

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

int ValueOrder(const Value& a, const Value& b) {
  if (TotalLess(a, b)) return -1;
  if (TotalLess(b, a)) return 1;
  return 0;
}

bool IsNumeric(ValueKind k) {
  return k == ValueKind::kInt64 || k == ValueKind::kDouble;
}

// Appends value_of(rowids[i]) to rows[i], or NULL where the row is NULL.
template <typename ValueOf>
void AppendEach(const uint8_t* valid, const int64_t* rowids, size_t n,
                Row* rows, ValueOf value_of) {
  for (size_t i = 0; i < n; ++i) {
    const auto r = static_cast<size_t>(rowids[i]);
    if (valid[r] != 0) {
      rows[i].push_back(value_of(r));
    } else {
      rows[i].emplace_back();
    }
  }
}

}  // namespace

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  const auto vk = static_cast<ColumnKind>(v.kind());
  if (kind_ == ColumnKind::kNull) {
    SetKind(vk);
  } else if (kind_ != vk && kind_ != ColumnKind::kGeneric) {
    MakeGeneric();
  }
  valid_.push_back(1);
  switch (kind_) {
    case ColumnKind::kInt64:
      ints_.push_back(v.AsInt());
      break;
    case ColumnKind::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ColumnKind::kString:
      codes_.push_back(Intern(v.AsString()));
      break;
    case ColumnKind::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case ColumnKind::kGeneric:
      values_.push_back(v);
      break;
    case ColumnKind::kNull:
      break;
  }
}

void Column::AppendNull() {
  valid_.push_back(0);
  switch (kind_) {
    case ColumnKind::kInt64:
      ints_.push_back(0);
      break;
    case ColumnKind::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnKind::kString:
      codes_.push_back(0);
      break;
    case ColumnKind::kBool:
      bools_.push_back(0);
      break;
    case ColumnKind::kGeneric:
      values_.emplace_back();
      break;
    case ColumnKind::kNull:
      break;
  }
}

void Column::SetKind(ColumnKind kind) {
  kind_ = kind;
  // The rows so far are all NULL: their placeholders.
  const size_t n = valid_.size();
  switch (kind) {
    case ColumnKind::kInt64:
      ints_.assign(n, 0);
      break;
    case ColumnKind::kDouble:
      doubles_.assign(n, 0.0);
      break;
    case ColumnKind::kString:
      codes_.assign(n, 0);
      break;
    case ColumnKind::kBool:
      bools_.assign(n, 0);
      break;
    case ColumnKind::kGeneric:
    case ColumnKind::kNull:
      break;
  }
}

void Column::MakeGeneric() {
  std::vector<Value> values;
  values.reserve(size());
  for (size_t r = 0; r < size(); ++r) values.push_back(Get(r));
  values_ = std::move(values);
  kind_ = ColumnKind::kGeneric;
  ints_ = {};
  doubles_ = {};
  codes_ = {};
  bools_ = {};
  dict_ = {};
  dict_slots_ = {};
}

void Column::AppendTo(const int64_t* rowids, size_t n, Row* rows) const {
  const uint8_t* valid = valid_.data();
  switch (kind_) {
    case ColumnKind::kInt64:
      AppendEach(valid, rowids, n, rows,
                 [this](size_t r) { return Value::Int(ints_[r]); });
      break;
    case ColumnKind::kDouble:
      AppendEach(valid, rowids, n, rows,
                 [this](size_t r) { return Value::Real(doubles_[r]); });
      break;
    case ColumnKind::kString:
      AppendEach(valid, rowids, n, rows,
                 [this](size_t r) { return Value::Str(dict_[codes_[r]]); });
      break;
    case ColumnKind::kBool:
      AppendEach(valid, rowids, n, rows,
                 [this](size_t r) { return Value::Boolean(bools_[r] != 0); });
      break;
    case ColumnKind::kGeneric:
      for (size_t i = 0; i < n; ++i) {
        rows[i].push_back(values_[static_cast<size_t>(rowids[i])]);
      }
      break;
    case ColumnKind::kNull:
      for (size_t i = 0; i < n; ++i) rows[i].emplace_back();
      break;
  }
}

int64_t Column::FindCode(std::string_view s) const {
  if (dict_slots_.empty()) return -1;
  const uint32_t slot = dict_slots_[SlotOf(s)];
  return slot == 0 ? -1 : static_cast<int64_t>(slot) - 1;
}

size_t Column::SlotOf(std::string_view s) const {
  const size_t mask = dict_slots_.size() - 1;
  size_t i = std::hash<std::string_view>()(s) & mask;
  while (dict_slots_[i] != 0 && dict_[dict_slots_[i] - 1] != s) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t Column::Intern(const std::string& s) {
  if ((dict_.size() + 1) * 2 > dict_slots_.size()) {
    Rehash(std::max<size_t>(16, dict_slots_.size() * 2));
  }
  const size_t i = SlotOf(s);
  if (dict_slots_[i] != 0) return dict_slots_[i] - 1;
  dict_.push_back(s);
  dict_slots_[i] = static_cast<uint32_t>(dict_.size());
  return static_cast<uint32_t>(dict_.size() - 1);
}

void Column::Rehash(size_t slots) {
  dict_slots_.assign(slots, 0);
  for (size_t code = 0; code < dict_.size(); ++code) {
    dict_slots_[SlotOf(dict_[code])] = static_cast<uint32_t>(code + 1);
  }
}

int Column::TotalCompare(size_t a, size_t b) const {
  const bool a_null = valid_[a] == 0;
  const bool b_null = valid_[b] == 0;
  // NULLs sort last and tie with each other.
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? 1 : -1);
  switch (kind_) {
    case ColumnKind::kInt64:
      return NumericOrder(static_cast<double>(ints_[a]),
                          static_cast<double>(ints_[b]));
    case ColumnKind::kDouble:
      return NumericOrder(doubles_[a], doubles_[b]);
    case ColumnKind::kString:
      if (codes_[a] == codes_[b]) return 0;
      return Sign(dict_[codes_[a]].compare(dict_[codes_[b]]));
    case ColumnKind::kBool:
      return static_cast<int>(bools_[a]) - static_cast<int>(bools_[b]);
    case ColumnKind::kGeneric:
      return ValueOrder(values_[a], values_[b]);
    case ColumnKind::kNull:
      break;
  }
  return 0;
}

int Column::TotalCompareTo(size_t row, const Value& v) const {
  if (valid_[row] == 0) return 1;  // NULL sorts after every value
  const ValueKind vk = v.kind();
  switch (kind_) {
    case ColumnKind::kInt64:
      if (IsNumeric(vk)) {
        return NumericOrder(static_cast<double>(ints_[row]), v.NumericValue());
      }
      break;
    case ColumnKind::kDouble:
      if (IsNumeric(vk)) return NumericOrder(doubles_[row], v.NumericValue());
      break;
    case ColumnKind::kString:
      if (vk == ValueKind::kString) {
        return Sign(dict_[codes_[row]].compare(v.AsString()));
      }
      break;
    case ColumnKind::kBool:
      if (vk == ValueKind::kBool) {
        return static_cast<int>(bools_[row]) - (v.AsBool() ? 1 : 0);
      }
      break;
    case ColumnKind::kGeneric:
      return ValueOrder(values_[row], v);
    case ColumnKind::kNull:
      break;
  }
  // Kinds CompareValues cannot order rank by kind index, as in TotalLess.
  return static_cast<int>(kind_) < static_cast<int>(vk) ? -1 : 1;
}

bool Column::EqualsNonNull(size_t row, const Value& v) const {
  if (valid_[row] == 0) return false;
  const ValueKind vk = v.kind();
  switch (kind_) {
    case ColumnKind::kInt64:
      return IsNumeric(vk) &&
             NumericOrder(static_cast<double>(ints_[row]),
                          v.NumericValue()) == 0;
    case ColumnKind::kDouble:
      return IsNumeric(vk) && NumericOrder(doubles_[row], v.NumericValue()) == 0;
    case ColumnKind::kString:
      return vk == ValueKind::kString && dict_[codes_[row]] == v.AsString();
    case ColumnKind::kBool:
      return vk == ValueKind::kBool && (bools_[row] != 0) == v.AsBool();
    case ColumnKind::kGeneric:
      return CompareValues(values_[row], v) == Ordering::kEqual;
    case ColumnKind::kNull:
      break;
  }
  return false;
}

size_t Column::Hash(size_t row) const {
  if (valid_[row] == 0) return Value::Null().Hash();
  switch (kind_) {
    case ColumnKind::kInt64:
      return Value::Int(ints_[row]).Hash();
    case ColumnKind::kDouble:
      return Value::Real(doubles_[row]).Hash();
    case ColumnKind::kString:
      // Value::Hash of a string, without copying it into a Value.
      return std::hash<std::string>()(dict_[codes_[row]]);
    case ColumnKind::kBool:
      return Value::Boolean(bools_[row] != 0).Hash();
    case ColumnKind::kGeneric:
      return values_[row].Hash();
    case ColumnKind::kNull:
      break;
  }
  return Value::Null().Hash();
}

}  // namespace cbqt
