#ifndef CBQT_CATALOG_CATALOG_H_
#define CBQT_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/type.h"

namespace cbqt {

/// A column definition. `nullable` participates in transformation legality:
/// e.g. NOT IN unnesting without a null-aware antijoin requires the joining
/// columns to be non-nullable (paper §2.1.1).
struct ColumnDef {
  std::string name;
  DataType type = DataType::kUnknown;
  bool nullable = true;
};

/// Referential constraint: `columns` of this table reference `ref_columns`
/// (a key) of `ref_table`. Drives join elimination (paper §2.1.2, Q4).
struct ForeignKeyDef {
  std::vector<std::string> columns;
  std::string ref_table;
  std::vector<std::string> ref_columns;
};

/// Secondary index over `columns` (in order). Equality probes on a prefix
/// of the key are supported by the storage layer; the optimizer uses index
/// availability for access-path selection and for TIS costing of
/// non-unnested subqueries.
struct IndexDef {
  std::string name;
  std::vector<std::string> columns;
  bool unique = false;
};

/// Table definition: columns, keys, constraints, indexes.
struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> primary_key;
  std::vector<std::vector<std::string>> unique_keys;  // besides the PK
  std::vector<ForeignKeyDef> foreign_keys;
  std::vector<IndexDef> indexes;

  /// Index of `column_name` in `columns`, or -1.
  int FindColumn(const std::string& column_name) const;

  /// True if `cols` (as a set) equals the primary key or a unique key.
  bool IsUniqueKey(const std::vector<std::string>& cols) const;

  /// Name of an index whose key prefix covers `cols` for equality probes,
  /// or empty string.
  std::string FindIndexCovering(const std::vector<std::string>& cols) const;

  /// True if `column_name` is declared NOT NULL.
  bool IsNotNull(const std::string& column_name) const;
};

/// The schema catalog: a name -> TableDef map. Table names are
/// case-insensitive and stored lower-cased.
class Catalog {
 public:
  Status AddTable(TableDef def);

  /// nullptr if absent.
  const TableDef* FindTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Order-independent-of-insertion structural hash of the whole schema:
  /// table names, column names/types/nullability, keys, foreign keys, and
  /// indexes. Persisted plan artifacts (plan-cache snapshot files) stamp
  /// this fingerprint and are discarded when it no longer matches, so a plan optimized against one schema is never executed
  /// against another.
  uint64_t Fingerprint() const;

 private:
  std::map<std::string, TableDef> tables_;
};

}  // namespace cbqt

#endif  // CBQT_CATALOG_CATALOG_H_
