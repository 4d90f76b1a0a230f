#include "storage/table.h"

namespace cbqt {

namespace {

bool KindMatches(DataType t, const Value& v) {
  switch (t) {
    case DataType::kInt64:
      return v.kind() == ValueKind::kInt64;
    case DataType::kDouble:
      return v.kind() == ValueKind::kDouble || v.kind() == ValueKind::kInt64;
    case DataType::kString:
      return v.kind() == ValueKind::kString;
    case DataType::kBool:
      return v.kind() == ValueKind::kBool;
    case DataType::kUnknown:
      return true;
  }
  return false;
}

}  // namespace

Row Table::RowAt(size_t rowid) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.Get(rowid));
  return row;
}

void Table::InsertUnchecked(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
}

Status Table::Insert(const Row& row) {
  if (row.size() != def_.columns.size()) {
    return Status::InvalidArgument("row arity mismatch for table " + def_.name);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = def_.columns[i];
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in NOT NULL column " + col.name);
      }
      continue;
    }
    if (!KindMatches(col.type, row[i])) {
      return Status::InvalidArgument("type mismatch in column " + col.name);
    }
  }
  InsertUnchecked(row);
  return Status::OK();
}

}  // namespace cbqt
