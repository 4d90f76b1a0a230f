#ifndef CBQT_EXEC_KEY_TABLE_H_
#define CBQT_EXEC_KEY_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace cbqt {

/// The executor's one answer to "have I seen this key?": the hash join's
/// build table, aggregate groups, COUNT(DISTINCT), the DISTINCT and
/// set-operation seen sets, window partitions and the TIS subquery caches.
///
/// Distinct keys sit back to back in one value array (a key is copied only
/// the first time it is seen), each with its HashRow, and get dense ids 0,
/// 1, 2, ... in first-seen order. An open-addressed bucket array maps a
/// hash to a key id. Keys hash with HashRow and compare slot by slot with
/// `kEq`: in a KeyTable, with ValuesEqualStructural (RowsEqualStructural),
/// so Int(2) finds Real(2.0) and NULL finds NULL; in an IdenticalKeyTable,
/// with ValuesIdentical, so a key finds only the same value of the same
/// kind. Every key of one table has the same width.
/// A one-column table is also probed and filled by a bare value, hashed with
/// one HashStep (the same hash as its one-value key row), so no key row is
/// built. A caller that keeps something per key keeps it in a vector indexed
/// by key id.
template <bool (*kEq)(const Value&, const Value&)>
class BasicKeyTable {
 public:
  static constexpr int kNone = -1;

  /// Drops every key, keeping the allocations for the next use.
  void Clear() {
    keys_.clear();
    hashes_.clear();
    std::fill(buckets_.begin(), buckets_.end(), kNone);
  }

  /// The number of distinct keys; their ids are 0 .. size() - 1.
  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  /// The id of `key`, or kNone.
  int Find(const Row& key) const {
    if (empty() || key.size() != width_) return kNone;
    return buckets_[Bucket(key.data(), HashRow(key))];
  }

  /// Find() on a one-column table, by the key value itself.
  int Find(const Value& key) const {
    if (empty()) return kNone;
    return buckets_[Bucket(&key, HashStep(kHashRowSeed, key))];
  }

  /// The id of `key`, which gets the next id when it is new; second is
  /// true then.
  std::pair<int, bool> Insert(const Row& key) {
    return Insert(key.data(), key.size(), HashRow(key));
  }

  /// Insert() on a one-column table, by the key value itself.
  std::pair<int, bool> Insert(const Value& key) {
    return Insert(&key, 1, HashStep(kHashRowSeed, key));
  }

  /// Key `id`: width() values, and its HashRow.
  const Value* key(int id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }
  size_t hash(int id) const { return hashes_[static_cast<size_t>(id)]; }
  size_t width() const { return width_; }

 private:
  std::pair<int, bool> Insert(const Value* key, size_t width, size_t hash) {
    if (empty()) width_ = static_cast<uint32_t>(width);
    if ((hashes_.size() + 1) * 2 > buckets_.size()) Grow();
    const size_t b = Bucket(key, hash);
    if (buckets_[b] != kNone) return {buckets_[b], false};
    const int id = static_cast<int>(hashes_.size());
    buckets_[b] = id;
    keys_.insert(keys_.end(), key, key + width);
    hashes_.push_back(hash);
    return {id, true};
  }

  // Fibonacci hashing: the top bits of hash * 2^64/phi pick the bucket.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // The bucket holding the id of the key at `key` (width_ values), or the
  // empty bucket where it belongs.
  size_t Bucket(const Value* key, size_t hash) const {
    const size_t mask = buckets_.size() - 1;
    for (size_t b = Home(hash);; b = (b + 1) & mask) {
      const int k = buckets_[b];
      if (k == kNone) return b;
      if (hashes_[static_cast<size_t>(k)] == hash && KeyEquals(k, key)) {
        return b;
      }
    }
  }

  bool KeyEquals(int k, const Value* key) const {
    const Value* stored = this->key(k);
    for (size_t i = 0; i < width_; ++i) {
      if (!kEq(stored[i], key[i])) return false;
    }
    return true;
  }

  // Doubles the bucket array (16 at first) and re-places every key id from
  // its stored hash; the load factor stays at most 1/2.
  void Grow() {
    const size_t n = buckets_.empty() ? 16 : buckets_.size() * 2;
    buckets_.assign(n, kNone);
    shift_ = 64;
    for (size_t i = n; i > 1; i >>= 1) --shift_;
    const size_t mask = n - 1;
    for (size_t k = 0; k < hashes_.size(); ++k) {
      size_t b = Home(hashes_[k]);
      while (buckets_[b] != kNone) b = (b + 1) & mask;
      buckets_[b] = static_cast<int>(k);
    }
  }

  std::vector<Value> keys_;     // width_ values per distinct key, by id
  std::vector<size_t> hashes_;  // HashRow per distinct key, by id
  std::vector<int> buckets_;    // distinct key id, or kNone
  uint32_t width_ = 0;
  int shift_ = 64;  // 64 - log2(buckets_.size())
};

/// The hash join's build table, aggregate groups, COUNT(DISTINCT), the
/// DISTINCT and set-operation seen sets, window partitions and the IN /
/// NOT IN probe index of a subquery result.
using KeyTable = BasicKeyTable<ValuesEqualStructural>;

/// The TIS subquery caches' correlation keys: a cached result stands for a
/// re-run of the subquery only under an identical outer value.
using IdenticalKeyTable = BasicKeyTable<ValuesIdentical>;

}  // namespace cbqt

#endif  // CBQT_EXEC_KEY_TABLE_H_
