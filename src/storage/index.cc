#include "storage/index.h"

#include <algorithm>

namespace cbqt {

namespace {

// TotalLess over one numeric column: NULLs last, numbers compared as double
// by NumericOrder (as CompareValues compares them, so NaNs sort last among
// the numbers).
template <typename T>
struct NumericLess {
  const uint8_t* valid;
  const T* xs;
  bool operator()(int64_t a, int64_t b) const {
    return valid[a] != 0 &&
           (valid[b] == 0 || NumericOrder(static_cast<double>(xs[a]),
                                          static_cast<double>(xs[b])) < 0);
  }
};

// LookupEqual on one numeric key column with a numeric probe `y`.
template <typename T>
void LookupNumeric(const std::vector<int64_t>& order, const uint8_t* valid,
                   const T* xs, double y, std::vector<int64_t>* out) {
  auto it = std::lower_bound(
      order.begin(), order.end(), y, [valid, xs](int64_t r, double probe) {
        return valid[r] != 0 &&
               NumericOrder(static_cast<double>(xs[r]), probe) < 0;
      });
  for (; it != order.end() && valid[*it] != 0; ++it) {
    if (NumericOrder(static_cast<double>(xs[*it]), y) != 0) break;
    out->push_back(*it);
  }
}

}  // namespace

Index::Index(std::string name, const Table& table, std::vector<int> key_columns)
    : name_(std::move(name)), key_columns_(std::move(key_columns)) {
  for (int c : key_columns_) keys_.push_back(&table.column(static_cast<size_t>(c)));
  order_.resize(table.NumRows());
  for (size_t r = 0; r < order_.size(); ++r) order_[r] = static_cast<int64_t>(r);
  // Lexicographic TotalLess over the key columns. std::sort is not stable:
  // the rowid order within equal keys follows from the sort's comparison
  // outcomes over the initial rowid order, which match a sort of
  // (key row, rowid) entries compared by TotalLess.
  const Column* only = keys_.size() == 1 ? keys_[0] : nullptr;
  if (only != nullptr && only->kind() == ColumnKind::kInt64) {
    std::sort(order_.begin(), order_.end(),
              NumericLess<int64_t>{only->validity(), only->ints()});
  } else if (only != nullptr && only->kind() == ColumnKind::kDouble) {
    std::sort(order_.begin(), order_.end(),
              NumericLess<double>{only->validity(), only->doubles()});
  } else {
    std::sort(order_.begin(), order_.end(), [this](int64_t a, int64_t b) {
      for (const Column* key : keys_) {
        const int c = key->TotalCompare(static_cast<size_t>(a),
                                        static_cast<size_t>(b));
        if (c != 0) return c < 0;
      }
      return false;
    });
  }
}

void Index::LookupEqual(const Row& key, std::vector<int64_t>* out) const {
  out->clear();
  for (const Value& v : key) {
    if (v.is_null()) return;  // NULL probe matches nothing
  }
  if (key.size() == 1 && (key[0].kind() == ValueKind::kInt64 ||
                          key[0].kind() == ValueKind::kDouble)) {
    const Column& col = *keys_[0];
    if (col.kind() == ColumnKind::kInt64) {
      LookupNumeric(order_, col.validity(), col.ints(), key[0].NumericValue(),
                    out);
      return;
    }
    if (col.kind() == ColumnKind::kDouble) {
      LookupNumeric(order_, col.validity(), col.doubles(),
                    key[0].NumericValue(), out);
      return;
    }
  }
  // Binary search for the lower bound of the probe prefix.
  auto lo = std::lower_bound(
      order_.begin(), order_.end(), key, [this](int64_t rowid, const Row& probe) {
        for (size_t i = 0; i < probe.size(); ++i) {
          const int c = keys_[i]->TotalCompareTo(static_cast<size_t>(rowid), probe[i]);
          if (c != 0) return c < 0;
        }
        return false;
      });
  for (auto it = lo; it != order_.end(); ++it) {
    const auto rowid = static_cast<size_t>(*it);
    for (size_t i = 0; i < key.size(); ++i) {
      if (!keys_[i]->EqualsNonNull(rowid, key[i])) return;
    }
    out->push_back(*it);
  }
}

}  // namespace cbqt
