#include "storage/database.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/str_util.h"

namespace cbqt {

Status Database::CreateTable(TableDef def) {
  std::string name = ToLower(def.name);
  CBQT_RETURN_IF_ERROR(catalog_.AddTable(def));
  const TableDef* stored = catalog_.FindTable(name);
  tables_.emplace(name, std::make_unique<Table>(*stored));
  indexes_.emplace(name, std::vector<std::unique_ptr<Index>>{});
  return Status::OK();
}

Status Database::Insert(const std::string& table, Row row) {
  Table* t = FindMutableTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  return t->Insert(std::move(row));
}

Status Database::InsertBulk(const std::string& table, std::vector<Row> rows) {
  Table* t = FindMutableTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  for (const Row& row : rows) t->InsertUnchecked(row);
  return Status::OK();
}

Status Database::BuildIndexes(const std::string& table) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  return BuildIndexesLocked(table);
}

Status Database::BuildIndexesLocked(const std::string& table) {
  std::string name = ToLower(table);
  const Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  auto& built = indexes_[name];
  built.clear();
  for (const IndexDef& idef : t->def().indexes) {
    std::vector<int> cols;
    for (const auto& c : idef.columns) {
      int ci = t->def().FindColumn(ToLower(c));
      if (ci < 0) {
        return Status::InvalidArgument("index " + idef.name +
                                       " references unknown column " + c);
      }
      cols.push_back(ci);
    }
    built.push_back(std::make_unique<Index>(idef.name, *t, cols));
  }
  return Status::OK();
}

Status Database::Analyze() {
  // Exclusive against engine operations (Database::ReadLock): statistics
  // and index rebuilds never race an in-flight plan or scan.
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  for (auto& [name, table] : tables_) {
    CBQT_RETURN_IF_ERROR(BuildIndexesLocked(name));
    const size_t num_rows = table->NumRows();
    TableStats ts;
    ts.rows = static_cast<double>(num_rows);
    ts.blocks = std::max(1.0, std::ceil(ts.rows / kRowsPerBlock));
    ts.columns.resize(table->def().columns.size());
    for (size_t c = 0; c < table->def().columns.size(); ++c) {
      const Column& col = table->column(c);
      ColumnStats& cs = ts.columns[c];
      std::vector<size_t> hashes;  // ndv counts distinct Value::Hash values
      hashes.reserve(num_rows);
      double nulls = 0;
      // The rows holding the first-seen minimum and maximum, by TotalLess.
      size_t min_row = num_rows;
      size_t max_row = num_rows;
      for (size_t r = 0; r < num_rows; ++r) {
        if (col.IsNull(r)) {
          nulls += 1;
          continue;
        }
        hashes.push_back(col.Hash(r));
        if (min_row == num_rows) {
          min_row = r;
          max_row = r;
        } else {
          if (col.TotalCompare(r, min_row) < 0) min_row = r;
          if (col.TotalCompare(max_row, r) < 0) max_row = r;
        }
      }
      if (min_row < num_rows) {
        cs.min = col.Get(min_row);
        cs.max = col.Get(max_row);
      }
      std::sort(hashes.begin(), hashes.end());
      cs.ndv = static_cast<double>(
          std::unique(hashes.begin(), hashes.end()) - hashes.begin());
      cs.null_frac = num_rows == 0 ? 0.0 : nulls / static_cast<double>(num_rows);
    }
    stats_.Put(name, std::move(ts));
  }
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return nullptr;
  return it->second.get();
}

Table* Database::FindMutableTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return nullptr;
  return it->second.get();
}

const Index* Database::FindIndex(const std::string& table,
                                 const std::string& index_name) const {
  auto it = indexes_.find(ToLower(table));
  if (it == indexes_.end()) return nullptr;
  for (const auto& idx : it->second) {
    if (idx->name() == index_name) return idx.get();
  }
  return nullptr;
}

}  // namespace cbqt
