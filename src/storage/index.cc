#include "storage/index.h"

#include <algorithm>

namespace cbqt {

namespace {

// Total order over key rows (prefix-wise TotalLess).
bool KeyLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (TotalLess(a[i], b[i])) return true;
    if (TotalLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

bool KeyPrefixEqualNonNull(const Row& entry_key, const Row& probe) {
  for (size_t i = 0; i < probe.size(); ++i) {
    if (entry_key[i].is_null() || probe[i].is_null()) return false;
    if (CompareValues(entry_key[i], probe[i]) != Ordering::kEqual) return false;
  }
  return true;
}

}  // namespace

Index::Index(std::string name, const Table& table, std::vector<int> key_columns)
    : name_(std::move(name)), key_columns_(std::move(key_columns)) {
  entries_.reserve(table.NumRows());
  const auto& rows = table.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    Row key;
    key.reserve(key_columns_.size());
    for (int c : key_columns_) key.push_back(rows[r][static_cast<size_t>(c)]);
    entries_.push_back(Entry{std::move(key), static_cast<int64_t>(r)});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return KeyLess(a.key, b.key); });
}

std::vector<int64_t> Index::LookupEqual(const Row& key) const {
  std::vector<int64_t> out;
  for (const Value& v : key) {
    if (v.is_null()) return out;  // NULL probe matches nothing
  }
  // Binary search for the lower bound of the probe prefix.
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [&](const Entry& e, const Row& probe) {
        for (size_t i = 0; i < probe.size(); ++i) {
          if (TotalLess(e.key[i], probe[i])) return true;
          if (TotalLess(probe[i], e.key[i])) return false;
        }
        return false;
      });
  for (auto it = lo; it != entries_.end(); ++it) {
    if (!KeyPrefixEqualNonNull(it->key, key)) break;
    out.push_back(it->rowid);
  }
  return out;
}

}  // namespace cbqt
