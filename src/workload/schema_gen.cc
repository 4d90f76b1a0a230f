#include "workload/schema_gen.h"

#include "common/rng.h"
#include "common/str_util.h"

namespace cbqt {

namespace {

const char* kCountries[] = {"US", "UK", "DE", "JP", "IN", "BR", "FR", "CA"};
const char* kStatuses[] = {"OPEN", "SHIPPED", "CLOSED", "CANCELLED"};
const char* kSegments[] = {"RETAIL", "CORP", "GOV", "SMB"};

std::string DateString(int64_t day_index) {
  // Dates as sortable strings "YYYYMMDD" starting at 1995-01-01, ~30-day
  // months for simplicity (only ordering matters).
  int64_t year = 1995 + day_index / 360;
  int64_t month = 1 + (day_index % 360) / 30;
  int64_t day = 1 + (day_index % 30);
  return StrFormat("%04d%02d%02d", static_cast<int>(year),
                   static_cast<int>(month), static_cast<int>(day));
}

// Appends a table's generated rows in chunks of kChunkRows. Each chunk's
// rows are freed as it is stored, and the next chunk reuses that memory, so
// the load never holds, and then frees at once, a whole table of rows whose
// scattered free blocks later allocations would inherit.
class ChunkedLoad {
 public:
  ChunkedLoad(Database* db, std::string table)
      : db_(db), table_(std::move(table)) {}

  void Add(Row row) {
    rows_.push_back(std::move(row));
    if (rows_.size() == kChunkRows) Flush();
  }

  Status Finish() {
    Flush();
    return status_;
  }

 private:
  static constexpr size_t kChunkRows = 1024;

  void Flush() {
    if (status_.ok() && !rows_.empty()) {
      status_ = db_->InsertBulk(table_, std::move(rows_));
    }
    rows_.clear();
  }

  Database* db_;
  std::string table_;
  std::vector<Row> rows_;
  Status status_;
};

}  // namespace

Status BuildHrDatabase(const SchemaConfig& cfg, Database* db) {
  Rng rng(cfg.seed);
  Zipf dept_skew(cfg.departments, cfg.skew);
  Zipf cust_skew(cfg.customers, cfg.skew);
  Zipf prod_skew(cfg.products, cfg.skew);

  // ---- locations ----
  {
    TableDef t;
    t.name = "locations";
    t.columns = {{"loc_id", DataType::kInt64, false},
                 {"city", DataType::kString, false},
                 {"country_id", DataType::kString, false}};
    t.primary_key = {"loc_id"};
    t.indexes = {{"loc_pk", {"loc_id"}, true}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "locations");
    for (int i = 0; i < cfg.locations; ++i) {
      rows.Add(Row{Value::Int(i),
                         Value::Str("city_" + std::to_string(i)),
                         Value::Str(kCountries[i % 8])});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- departments ----
  {
    TableDef t;
    t.name = "departments";
    t.columns = {{"dept_id", DataType::kInt64, false},
                 {"dept_name", DataType::kString, false},
                 {"loc_id", DataType::kInt64, false},
                 {"budget", DataType::kDouble, true}};
    t.primary_key = {"dept_id"};
    t.foreign_keys = {{{"loc_id"}, "locations", {"loc_id"}}};
    t.indexes = {{"dept_pk", {"dept_id"}, true},
                 {"dept_loc_idx", {"loc_id"}, false}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "departments");
    for (int i = 0; i < cfg.departments; ++i) {
      rows.Add(Row{Value::Int(i),
                         Value::Str("dept_" + std::to_string(i)),
                         Value::Int(static_cast<int64_t>(rng.NextUint(
                             static_cast<uint64_t>(cfg.locations)))),
                         rng.NextBool(0.05)
                             ? Value::Null()
                             : Value::Real(1e5 + rng.NextDouble() * 9e5)});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- jobs ----
  {
    TableDef t;
    t.name = "jobs";
    t.columns = {{"job_id", DataType::kInt64, false},
                 {"job_title", DataType::kString, false},
                 {"min_salary", DataType::kDouble, true}};
    t.primary_key = {"job_id"};
    t.indexes = {{"jobs_pk", {"job_id"}, true}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "jobs");
    for (int i = 0; i < cfg.jobs; ++i) {
      rows.Add(Row{Value::Int(i),
                         Value::Str("title_" + std::to_string(i)),
                         Value::Real(30000 + 1000.0 * i)});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- employees ----
  {
    TableDef t;
    t.name = "employees";
    t.columns = {{"emp_id", DataType::kInt64, false},
                 {"employee_name", DataType::kString, false},
                 {"dept_id", DataType::kInt64, false},
                 {"salary", DataType::kDouble, false},
                 {"mgr_id", DataType::kInt64, true},
                 {"job_id", DataType::kInt64, false},
                 {"hire_date", DataType::kString, false}};
    t.primary_key = {"emp_id"};
    t.foreign_keys = {{{"dept_id"}, "departments", {"dept_id"}},
                      {{"job_id"}, "jobs", {"job_id"}}};
    t.indexes = {{"emp_pk", {"emp_id"}, true}};
    if (cfg.index_on_correlations) {
      t.indexes.push_back({"emp_dept_idx", {"dept_id"}, false});
    }
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "employees");
    for (int i = 0; i < cfg.employees; ++i) {
      int64_t dept = dept_skew.Sample(rng);
      rows.Add(
          Row{Value::Int(i), Value::Str("emp_" + std::to_string(i)),
              Value::Int(dept),
              Value::Real(30000 + rng.NextDouble() * 120000),
              rng.NextBool(0.1)
                  ? Value::Null()
                  : Value::Int(static_cast<int64_t>(rng.NextUint(
                        static_cast<uint64_t>(cfg.employees)))),
              Value::Int(static_cast<int64_t>(
                  rng.NextUint(static_cast<uint64_t>(cfg.jobs)))),
              Value::Str(DateString(static_cast<int64_t>(
                  rng.NextUint(360 * 12))))});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- job_history ----
  {
    TableDef t;
    t.name = "job_history";
    t.columns = {{"emp_id", DataType::kInt64, false},
                 {"job_id", DataType::kInt64, false},
                 {"job_title", DataType::kString, false},
                 {"dept_id", DataType::kInt64, false},
                 {"start_date", DataType::kString, false}};
    t.foreign_keys = {{{"emp_id"}, "employees", {"emp_id"}}};
    t.indexes = {{"jh_emp_idx", {"emp_id"}, false}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "job_history");
    for (int i = 0; i < cfg.job_history; ++i) {
      int64_t emp = static_cast<int64_t>(
          rng.NextUint(static_cast<uint64_t>(cfg.employees)));
      int64_t job = static_cast<int64_t>(
          rng.NextUint(static_cast<uint64_t>(cfg.jobs)));
      rows.Add(Row{Value::Int(emp), Value::Int(job),
                         Value::Str("title_" + std::to_string(job)),
                         Value::Int(dept_skew.Sample(rng)),
                         Value::Str(DateString(static_cast<int64_t>(
                             rng.NextUint(360 * 12))))});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- customers ----
  {
    TableDef t;
    t.name = "customers";
    t.columns = {{"cust_id", DataType::kInt64, false},
                 {"cust_name", DataType::kString, false},
                 {"country_id", DataType::kString, false},
                 {"segment", DataType::kString, false}};
    t.primary_key = {"cust_id"};
    t.indexes = {{"cust_pk", {"cust_id"}, true}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "customers");
    for (int i = 0; i < cfg.customers; ++i) {
      rows.Add(Row{Value::Int(i),
                         Value::Str("cust_" + std::to_string(i)),
                         Value::Str(kCountries[rng.NextUint(8)]),
                         Value::Str(kSegments[rng.NextUint(4)])});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- products ----
  {
    TableDef t;
    t.name = "products";
    t.columns = {{"product_id", DataType::kInt64, false},
                 {"product_name", DataType::kString, false},
                 {"category_id", DataType::kInt64, false},
                 {"list_price", DataType::kDouble, false}};
    t.primary_key = {"product_id"};
    t.indexes = {{"prod_pk", {"product_id"}, true}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "products");
    for (int i = 0; i < cfg.products; ++i) {
      rows.Add(Row{Value::Int(i),
                         Value::Str("prod_" + std::to_string(i)),
                         Value::Int(static_cast<int64_t>(rng.NextUint(40))),
                         Value::Real(5 + rng.NextDouble() * 995)});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- orders ----
  {
    TableDef t;
    t.name = "orders";
    t.columns = {{"order_id", DataType::kInt64, false},
                 {"cust_id", DataType::kInt64, false},
                 {"emp_id", DataType::kInt64, true},
                 {"order_date", DataType::kString, false},
                 {"status", DataType::kString, false},
                 {"total", DataType::kDouble, false}};
    t.primary_key = {"order_id"};
    t.foreign_keys = {{{"cust_id"}, "customers", {"cust_id"}}};
    t.indexes = {{"ord_pk", {"order_id"}, true}};
    if (cfg.index_on_correlations) {
      t.indexes.push_back({"ord_cust_idx", {"cust_id"}, false});
    }
    if (cfg.oltp_indexes) {
      t.indexes.push_back({"ord_emp_idx", {"emp_id"}, false});
    }
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "orders");
    for (int i = 0; i < cfg.orders; ++i) {
      rows.Add(
          Row{Value::Int(i), Value::Int(cust_skew.Sample(rng)),
              rng.NextBool(0.05)
                  ? Value::Null()
                  : Value::Int(static_cast<int64_t>(rng.NextUint(
                        static_cast<uint64_t>(cfg.employees)))),
              Value::Str(DateString(static_cast<int64_t>(
                  rng.NextUint(360 * 12)))),
              Value::Str(kStatuses[rng.NextUint(4)]),
              Value::Real(10 + rng.NextDouble() * 4990)});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- order_items ----
  {
    TableDef t;
    t.name = "order_items";
    t.columns = {{"order_id", DataType::kInt64, false},
                 {"product_id", DataType::kInt64, false},
                 {"quantity", DataType::kInt64, false},
                 {"price", DataType::kDouble, false}};
    t.foreign_keys = {{{"order_id"}, "orders", {"order_id"}},
                      {{"product_id"}, "products", {"product_id"}}};
    t.indexes = {{"oi_order_idx", {"order_id"}, false},
                 {"oi_prod_idx", {"product_id"}, false}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "order_items");
    for (int i = 0; i < cfg.order_items; ++i) {
      rows.Add(Row{Value::Int(static_cast<int64_t>(rng.NextUint(
                             static_cast<uint64_t>(cfg.orders)))),
                         Value::Int(prod_skew.Sample(rng)),
                         Value::Int(1 + static_cast<int64_t>(rng.NextUint(9))),
                         Value::Real(5 + rng.NextDouble() * 495)});
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  // ---- accounts (time series for window-function queries, paper Q7) ----
  {
    TableDef t;
    t.name = "accounts";
    t.columns = {{"acct_id", DataType::kInt64, false},
                 {"time", DataType::kInt64, false},
                 {"balance", DataType::kDouble, false}};
    t.indexes = {{"acct_idx", {"acct_id"}, false}};
    CBQT_RETURN_IF_ERROR(db->CreateTable(t));
    ChunkedLoad rows(db, "accounts");
    for (int a = 0; a < cfg.accounts; ++a) {
      double balance = 1000 + rng.NextDouble() * 9000;
      for (int m = 1; m <= cfg.months; ++m) {
        balance += rng.NextDouble() * 400 - 180;
        rows.Add(Row{Value::Int(a), Value::Int(m), Value::Real(balance)});
      }
    }
    CBQT_RETURN_IF_ERROR(rows.Finish());
  }

  return db->Analyze();
}

}  // namespace cbqt
