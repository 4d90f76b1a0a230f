#ifndef CBQT_STORAGE_INDEX_H_
#define CBQT_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace cbqt {

/// Secondary index: the table's rowids sorted by their key column values,
/// compared column by column with TotalLess. The keys stay in the table's
/// columns; the index holds only the permutation. Supports equality probes
/// on a key prefix, which is what the planner's index access paths and index
/// nested-loop joins need.
///
/// The index covers the rows the table held when it was built; the table
/// must outlive it (Database rebuilds both together).
class Index {
 public:
  /// Builds the index over `table` for `key_columns` (column indices into
  /// the table schema, probe order).
  Index(std::string name, const Table& table, std::vector<int> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<int>& key_columns() const { return key_columns_; }

  /// Fills `out` (cleared first, capacity kept) with the rowids whose first
  /// `key.size()` key columns equal `key`, in index order (NULL keys never
  /// match, per SQL index semantics).
  void LookupEqual(const Row& key, std::vector<int64_t>* out) const;

  size_t NumEntries() const { return order_.size(); }

 private:
  std::string name_;
  std::vector<int> key_columns_;
  std::vector<const Column*> keys_;  // the key columns, probe order
  std::vector<int64_t> order_;       // rowids in key order
};

}  // namespace cbqt

#endif  // CBQT_STORAGE_INDEX_H_
