#ifndef CBQT_STORAGE_INDEX_H_
#define CBQT_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace cbqt {

/// Secondary index: key column values -> row ids, stored as a sorted vector
/// of (key, rowid). Supports equality probes on a key prefix, which is what
/// the planner's index access paths and index nested-loop joins need.
class Index {
 public:
  /// Builds the index over `table` for `key_columns` (column indices into
  /// the table schema, probe order).
  Index(std::string name, const Table& table, std::vector<int> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<int>& key_columns() const { return key_columns_; }

  /// Row ids whose first `key.size()` key columns equal `key`
  /// (NULL keys never match, per SQL index semantics).
  std::vector<int64_t> LookupEqual(const Row& key) const;

  size_t NumEntries() const { return entries_.size(); }

 private:
  struct Entry {
    Row key;
    int64_t rowid;
  };

  std::string name_;
  std::vector<int> key_columns_;
  std::vector<Entry> entries_;
};

}  // namespace cbqt

#endif  // CBQT_STORAGE_INDEX_H_
