#ifndef CBQT_STORAGE_TABLE_H_
#define CBQT_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/column.h"

namespace cbqt {

/// In-memory column-store table: one typed Column per declared column, all
/// of the same length. A row's position is its rowid, which doubles as the
/// implicit ROWID pseudo-column (paper Q11 groups by `j.rowid` after
/// group-by view merging, so ROWIDs are first-class here).
///
/// Scans and indexes read the columns directly; RowAt rebuilds one whole row
/// for the few callers that want it (the reference interpreter, tests,
/// benches).
class Table {
 public:
  explicit Table(TableDef def)
      : def_(std::move(def)), columns_(def_.columns.size()) {}

  const TableDef& def() const { return def_; }
  size_t NumRows() const { return num_rows_; }

  /// Column `c` of the table, in declaration order.
  const Column& column(size_t c) const { return columns_[c]; }

  /// The row at `rowid`, each value with its stored kind and bits.
  Row RowAt(size_t rowid) const;

  /// Appends a row. The row must have exactly one value per column; type
  /// and nullability are validated.
  Status Insert(const Row& row);

  /// Appends without validation (bulk loads from the generator). The row
  /// holds one value per column, of any kind.
  void InsertUnchecked(const Row& row);

 private:
  TableDef def_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace cbqt

#endif  // CBQT_STORAGE_TABLE_H_
