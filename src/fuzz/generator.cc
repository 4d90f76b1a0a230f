#include "fuzz/generator.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"

namespace cbqt {

namespace {

// ---- schema catalog -------------------------------------------------------

enum class ColType { kId, kInt, kReal, kDate, kEnum, kName };

const char* const kCountries[] = {"US", "UK", "DE", "JP",
                                  "IN", "BR", "FR", "CA"};
const char* const kStatuses[] = {"OPEN", "SHIPPED", "CLOSED", "CANCELLED"};
const char* const kSegments[] = {"RETAIL", "CORP", "GOV", "SMB"};

struct GenCol {
  std::string name;
  ColType type = ColType::kInt;
  double lo = 0, hi = 0;       // kInt / kReal value range
  int id_range = 0;            // kId: ids are uniform in [0, id_range)
  int enum_set = 0;            // kEnum: 0 countries, 1 statuses, 2 segments
  std::string name_prefix;     // kName: values are "<prefix><i>"
  int name_range = 0;
  bool nullable = false;
};

struct TableDef {
  std::string name;
  int64_t card = 0;
  std::vector<GenCol> cols;
};

// A relation instance in the block being generated: a base table or a
// derived view, with the columns it exposes to the enclosing block.
struct GenRel {
  std::string alias;
  std::string text;  // "employees" or "(SELECT ... ) " (no alias)
  std::vector<GenCol> cols;
  int64_t card = 1;
  int table = -1;
  bool left_joined = false;
};

struct JoinEdge {
  int ta;
  const char* ca;
  int tb;
  const char* cb;
};

// Table indices (order matters for the edge list below).
enum : int {
  kLocations = 0,
  kDepartments,
  kJobs,
  kEmployees,
  kJobHistory,
  kCustomers,
  kProducts,
  kOrders,
  kOrderItems,
  kAccounts,
  kNumTables,
};

const JoinEdge kEdges[] = {
    {kEmployees, "dept_id", kDepartments, "dept_id"},
    {kDepartments, "loc_id", kLocations, "loc_id"},
    {kJobHistory, "emp_id", kEmployees, "emp_id"},
    {kEmployees, "job_id", kJobs, "job_id"},
    {kJobHistory, "dept_id", kDepartments, "dept_id"},
    {kJobHistory, "job_id", kJobs, "job_id"},
    {kOrders, "cust_id", kCustomers, "cust_id"},
    {kOrders, "emp_id", kEmployees, "emp_id"},
    {kOrderItems, "order_id", kOrders, "order_id"},
    {kOrderItems, "product_id", kProducts, "product_id"},
};

GenCol IdCol(const char* name, int range, bool nullable = false) {
  GenCol c;
  c.name = name;
  c.type = ColType::kId;
  c.id_range = range;
  c.nullable = nullable;
  return c;
}

GenCol IntCol(const char* name, double lo, double hi) {
  GenCol c;
  c.name = name;
  c.type = ColType::kInt;
  c.lo = lo;
  c.hi = hi;
  return c;
}

GenCol RealCol(const char* name, double lo, double hi,
               bool nullable = false) {
  GenCol c;
  c.name = name;
  c.type = ColType::kReal;
  c.lo = lo;
  c.hi = hi;
  c.nullable = nullable;
  return c;
}

GenCol DateCol(const char* name) {
  GenCol c;
  c.name = name;
  c.type = ColType::kDate;
  return c;
}

GenCol EnumCol(const char* name, int set) {
  GenCol c;
  c.name = name;
  c.type = ColType::kEnum;
  c.enum_set = set;
  return c;
}

GenCol NameCol(const char* name, const char* prefix, int range) {
  GenCol c;
  c.name = name;
  c.type = ColType::kName;
  c.name_prefix = prefix;
  c.name_range = range;
  return c;
}

std::vector<TableDef> BuildCatalog(const SchemaConfig& s) {
  std::vector<TableDef> t(kNumTables);
  t[kLocations] = {"locations",
                   s.locations,
                   {IdCol("loc_id", s.locations),
                    NameCol("city", "city_", s.locations),
                    EnumCol("country_id", 0)}};
  t[kDepartments] = {"departments",
                     s.departments,
                     {IdCol("dept_id", s.departments),
                      NameCol("dept_name", "dept_", s.departments),
                      IdCol("loc_id", s.locations),
                      RealCol("budget", 1e5, 1e6, /*nullable=*/true)}};
  t[kJobs] = {"jobs",
              s.jobs,
              {IdCol("job_id", s.jobs), NameCol("job_title", "title_", s.jobs),
               RealCol("min_salary", 30000, 30000 + 1000.0 * s.jobs)}};
  t[kEmployees] = {"employees",
                   s.employees,
                   {IdCol("emp_id", s.employees),
                    NameCol("employee_name", "emp_", s.employees),
                    IdCol("dept_id", s.departments),
                    RealCol("salary", 30000, 150000),
                    IdCol("mgr_id", s.employees, /*nullable=*/true),
                    IdCol("job_id", s.jobs), DateCol("hire_date")}};
  t[kJobHistory] = {"job_history",
                    s.job_history,
                    {IdCol("emp_id", s.employees), IdCol("job_id", s.jobs),
                     NameCol("job_title", "title_", s.jobs),
                     IdCol("dept_id", s.departments),
                     DateCol("start_date")}};
  t[kCustomers] = {"customers",
                   s.customers,
                   {IdCol("cust_id", s.customers),
                    NameCol("cust_name", "cust_", s.customers),
                    EnumCol("country_id", 0), EnumCol("segment", 2)}};
  t[kProducts] = {"products",
                  s.products,
                  {IdCol("product_id", s.products),
                   NameCol("product_name", "prod_", s.products),
                   IntCol("category_id", 0, 39),
                   RealCol("list_price", 5, 1000)}};
  t[kOrders] = {"orders",
                s.orders,
                {IdCol("order_id", s.orders), IdCol("cust_id", s.customers),
                 IdCol("emp_id", s.employees, /*nullable=*/true),
                 DateCol("order_date"), EnumCol("status", 1),
                 RealCol("total", 10, 5000)}};
  t[kOrderItems] = {"order_items",
                    s.order_items,
                    {IdCol("order_id", s.orders),
                     IdCol("product_id", s.products),
                     IntCol("quantity", 1, 9), RealCol("price", 5, 500)}};
  t[kAccounts] = {"accounts",
                  static_cast<int64_t>(s.accounts) * s.months,
                  {IdCol("acct_id", s.accounts),
                   IntCol("time", 1, s.months),
                   RealCol("balance", 800, 11000)}};
  return t;
}

// ---- generator ------------------------------------------------------------

class FuzzGen {
 public:
  FuzzGen(uint64_t seed, const SchemaConfig& schema, const FuzzGenConfig& cfg)
      : rng_(seed), cfg_(cfg), tables_(BuildCatalog(schema)) {}

  std::string Generate() {
    double shape = rng_.NextDouble();
    if (shape < cfg_.window_prob) return WindowShape();
    shape -= cfg_.window_prob;
    if (shape < cfg_.rownum_prob) return RownumShape();
    shape -= cfg_.rownum_prob;
    if (shape < cfg_.setop_prob) return SetOpShape();
    return PlainBlock(/*allow_subquery=*/true);
  }

 private:
  std::string FreshAlias(const char* prefix) {
    return std::string(prefix) + std::to_string(alias_counter_++);
  }

  const GenCol* FindCol(const GenRel& rel, const std::string& name) const {
    for (const auto& c : rel.cols) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }

  std::string DateLiteral() {
    int64_t day = static_cast<int64_t>(rng_.NextUint(360 * 12));
    int64_t year = 1995 + day / 360;
    int64_t month = 1 + (day % 360) / 30;
    int64_t dd = 1 + (day % 30);
    return StrFormat("'%04d%02d%02d'", static_cast<int>(year),
                     static_cast<int>(month), static_cast<int>(dd));
  }

  std::string Literal(const GenCol& col) {
    switch (col.type) {
      case ColType::kId:
        return std::to_string(
            rng_.NextUint(static_cast<uint64_t>(std::max(col.id_range, 1))));
      case ColType::kInt:
        return std::to_string(static_cast<int64_t>(
            col.lo + rng_.NextDouble() * (col.hi - col.lo)));
      case ColType::kReal: {
        double v = col.lo + rng_.NextDouble() * (col.hi - col.lo);
        // Occasionally a full-precision literal to stress unparser
        // round-tripping of doubles.
        if (rng_.NextBool(0.15)) return StrFormat("%.13f", v);
        return StrFormat("%.2f", v);
      }
      case ColType::kDate:
        return DateLiteral();
      case ColType::kEnum: {
        const char* const* set = col.enum_set == 0   ? kCountries
                                 : col.enum_set == 1 ? kStatuses
                                                     : kSegments;
        int n = col.enum_set == 0 ? 8 : 4;
        return std::string("'") + set[rng_.NextUint(n)] + "'";
      }
      case ColType::kName:
        // Mostly a value that exists; sometimes a quote/comment-stress
        // literal that matches nothing but must survive unparse → reparse.
        if (rng_.NextBool(0.12)) return "'O''Brien; -- '";
        return "'" + col.name_prefix +
               std::to_string(rng_.NextUint(
                   static_cast<uint64_t>(std::max(col.name_range, 1)))) +
               "'";
    }
    return "0";
  }

  const char* CmpOp() {
    switch (rng_.NextUint(6)) {
      case 0: return "=";
      case 1: return "<>";
      case 2: return "<";
      case 3: return "<=";
      case 4: return ">";
      default: return ">=";
    }
  }

  // One single-relation predicate over `rel` (qualified by its alias).
  std::string FilterPred(const GenRel& rel) {
    // Prefer typed columns a comparison makes sense on.
    std::vector<const GenCol*> cands;
    for (const auto& c : rel.cols) cands.push_back(&c);
    const GenCol& col = *cands[rng_.NextUint(cands.size())];
    std::string ref = rel.alias + "." + col.name;
    if (col.nullable && rng_.NextBool(0.25)) {
      return "(" + ref + (rng_.NextBool(0.5) ? " IS NULL)" : " IS NOT NULL)");
    }
    switch (col.type) {
      case ColType::kEnum:
      case ColType::kName:
        if (rng_.NextBool(0.3) && col.type == ColType::kEnum) {
          // IN-list (the parser expands it to an OR chain).
          std::string a = Literal(col);
          std::string b = Literal(col);
          return ref + " IN (" + a + ", " + b + ")";
        }
        return "(" + ref + (rng_.NextBool(0.7) ? " = " : " <> ") +
               Literal(col) + ")";
      case ColType::kId:
      case ColType::kInt:
        if (rng_.NextBool(0.2)) {
          std::string a = Literal(col);
          std::string b = Literal(col);
          std::string c = Literal(col);
          return ref + " IN (" + a + ", " + b + ", " + c + ")";
        }
        return "(" + ref + " " + CmpOp() + " " + Literal(col) + ")";
      case ColType::kReal:
      case ColType::kDate: {
        if (rng_.NextBool(0.2)) {
          std::string lo = Literal(col);
          std::string hi = Literal(col);
          return "(" + ref + " BETWEEN " + lo + " AND " + hi + ")";
        }
        return "(" + ref + " " + CmpOp() + " " + Literal(col) + ")";
      }
    }
    return "(1 = 1)";
  }

  // A filterable (non-left-joined) relation index, or -1.
  int PickFilterRel(const std::vector<GenRel>& rels) {
    std::vector<int> c;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (!rels[i].left_joined) c.push_back(static_cast<int>(i));
    }
    if (c.empty()) return -1;
    return c[rng_.NextUint(c.size())];
  }

  // ---- derived views ----

  // A view over base table `t` that must export column `need` (join key).
  GenRel ViewRel(int t, const std::string& need) {
    const TableDef& td = tables_[static_cast<size_t>(t)];
    GenRel base;
    base.alias = FreshAlias("i");
    base.text = td.name;
    base.cols = td.cols;
    base.card = td.card;
    base.table = t;

    GenRel view;
    view.table = t;
    view.alias = FreshAlias("v");
    double kind = rng_.NextDouble();
    if (kind < 0.3) {
      // GROUP BY view: the join key is the group key.
      const GenCol* key = FindCol(base, need);
      std::vector<const GenCol*> nums;
      for (const auto& c : base.cols) {
        if ((c.type == ColType::kReal || c.type == ColType::kInt) &&
            !c.nullable) {
          nums.push_back(&c);
        }
      }
      std::string agg_arg = nums.empty()
                                ? base.alias + "." + need
                                : base.alias + "." +
                                      nums[rng_.NextUint(nums.size())]->name;
      const char* agg = rng_.NextBool(0.5) ? "SUM" : "MAX";
      std::string sql = "SELECT " + base.alias + "." + need + " AS " + need +
                        ", " + agg + "(" + agg_arg + ") AS agg_0, COUNT(*) " +
                        "AS cnt_0 FROM " + td.name + " " + base.alias;
      if (rng_.NextBool(0.5)) sql += " WHERE " + FilterPred(base);
      sql += " GROUP BY " + base.alias + "." + need;
      view.text = "(" + sql + ")";
      view.cols = {*key, RealCol("agg_0", 0, 1e7), IntCol("cnt_0", 0, 1e5)};
      view.card = std::min<int64_t>(base.card, key->id_range + 1);
      return view;
    }
    // Filtered / DISTINCT / UNION ALL view exporting all columns.
    std::vector<std::string> items;
    for (const auto& c : base.cols) {
      items.push_back(base.alias + "." + c.name + " AS " + c.name);
    }
    std::string select = JoinStrings(items, ", ");
    std::string sql = "SELECT ";
    if (kind < 0.5) sql += "DISTINCT ";
    sql += select + " FROM " + td.name + " " + base.alias;
    if (rng_.NextBool(0.7)) sql += " WHERE " + FilterPred(base);
    if (kind >= 0.8) {
      // UNION ALL view: second branch over the same table, different filter.
      GenRel b2 = base;
      b2.alias = FreshAlias("i");
      std::vector<std::string> items2;
      for (const auto& c : b2.cols) {
        items2.push_back(b2.alias + "." + c.name);
      }
      sql += " UNION ALL SELECT " + JoinStrings(items2, ", ") + " FROM " +
             td.name + " " + b2.alias + " WHERE " + FilterPred(b2);
    }
    view.text = "(" + sql + ")";
    view.cols = base.cols;
    view.card = base.card;
    return view;
  }

  // ---- subqueries ----

  // A correlated conjunct between `inner` and `outer` column refs: mostly
  // `inner = outer`, sometimes with <, >= or <> instead, the operands
  // mirrored, or `outer + k` on the outer side.
  std::string CorrelatedPred(const std::string& inner,
                             const std::string& outer) {
    const char* op = "=";
    if (rng_.NextBool(0.35)) {
      const char* const kOps[] = {"<", ">=", "<>"};
      op = kOps[rng_.NextUint(3)];
    }
    std::string rhs = outer;
    if (rng_.NextBool(0.2)) {
      rhs = "(" + outer + " + " + std::to_string(1 + rng_.NextUint(3)) + ")";
    }
    if (rng_.NextBool(0.3)) return rhs + " " + op + " " + inner;
    return inner + " " + op + " " + rhs;
  }

  // One subquery predicate correlated (or not) with `outer` via a join edge.
  std::string SubqueryPred(const std::vector<GenRel>& rels) {
    // Candidate (outer rel, edge, direction) pairs where the outer side's
    // join column is exported.
    struct Cand {
      int rel;
      int inner_table;
      const char* outer_col;
      const char* inner_col;
    };
    std::vector<Cand> cands;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].table < 0) continue;
      for (const auto& e : kEdges) {
        if (e.ta == rels[i].table && FindCol(rels[i], e.ca) != nullptr) {
          cands.push_back({static_cast<int>(i), e.tb, e.ca, e.cb});
        }
        if (e.tb == rels[i].table && FindCol(rels[i], e.cb) != nullptr) {
          cands.push_back({static_cast<int>(i), e.ta, e.cb, e.ca});
        }
      }
    }
    if (cands.empty()) return "";
    const Cand& c = cands[rng_.NextUint(cands.size())];
    const GenRel& outer = rels[static_cast<size_t>(c.rel)];
    const TableDef& inner = tables_[static_cast<size_t>(c.inner_table)];
    GenRel in;
    in.alias = FreshAlias("s");
    in.text = inner.name;
    in.cols = inner.cols;
    in.card = inner.card;
    in.table = c.inner_table;
    std::string corr = CorrelatedPred(in.alias + "." + c.inner_col,
                                      outer.alias + "." + c.outer_col);
    if (rng_.NextBool(0.25)) {
      // A second correlated conjunct on a nullable outer column, so a
      // tuple-iteration scan also meets NULL outer values.
      std::vector<const GenCol*> nullable;
      for (const auto& col : outer.cols) {
        if (col.nullable) nullable.push_back(&col);
      }
      std::vector<const GenCol*> numeric;
      for (const auto& col : in.cols) {
        if (col.type == ColType::kId || col.type == ColType::kInt ||
            col.type == ColType::kReal) {
          numeric.push_back(&col);
        }
      }
      if (!nullable.empty() && !numeric.empty()) {
        const GenCol& ic = *numeric[rng_.NextUint(numeric.size())];
        const GenCol& oc = *nullable[rng_.NextUint(nullable.size())];
        corr += " AND " + CorrelatedPred(in.alias + "." + ic.name,
                                         outer.alias + "." + oc.name);
      }
    }
    switch (rng_.NextUint(5)) {
      case 0:
        return "EXISTS (SELECT 1 FROM " + inner.name + " " + in.alias +
               " WHERE " + corr + " AND " + FilterPred(in) + ")";
      case 1:
        return "NOT EXISTS (SELECT 1 FROM " + inner.name + " " + in.alias +
               " WHERE " + corr + " AND " + FilterPred(in) + ")";
      case 2:
        return outer.alias + "." + c.outer_col + " IN (SELECT " + in.alias +
               "." + c.inner_col + " FROM " + inner.name + " " + in.alias +
               " WHERE " + FilterPred(in) + ")";
      case 3:
        return outer.alias + "." + c.outer_col + " NOT IN (SELECT " +
               in.alias + "." + c.inner_col + " FROM " + inner.name + " " +
               in.alias + " WHERE " + FilterPred(in) + ")";
      default: {
        // Correlated scalar aggregate comparison on a numeric column.
        std::vector<const GenCol*> outs;
        for (const auto& col : outer.cols) {
          if (col.type == ColType::kReal && !col.nullable) outs.push_back(&col);
        }
        std::vector<const GenCol*> ins;
        for (const auto& col : in.cols) {
          if ((col.type == ColType::kReal || col.type == ColType::kInt) &&
              !col.nullable) {
            ins.push_back(&col);
          }
        }
        if (outs.empty() || ins.empty()) {
          return "EXISTS (SELECT 1 FROM " + inner.name + " " + in.alias +
                 " WHERE " + corr + ")";
        }
        std::string lhs = outer.alias + "." +
                          outs[rng_.NextUint(outs.size())]->name;
        std::string arg = in.alias + "." +
                          ins[rng_.NextUint(ins.size())]->name;
        const char* agg = rng_.NextBool(0.6) ? "AVG" : "MIN";
        return lhs + " " + (rng_.NextBool(0.5) ? ">" : "<=") + " (SELECT " +
               agg + "(" + arg + ") FROM " + inner.name + " " + in.alias +
               " WHERE " + corr + ")";
      }
    }
  }

  // ---- block shapes ----

  // Chooses 1..max_relations connected relations under the cross-row cap.
  // Returns rels plus join predicate texts (comma-join form) and the FROM
  // clause text (which may embed LEFT OUTER JOIN ... ON for some rels).
  void PickRelations(bool has_subquery, std::vector<GenRel>* rels,
                     std::vector<std::string>* join_preds, std::string* from) {
    int64_t cap = has_subquery ? cfg_.max_cross_rows_with_subquery
                               : cfg_.max_cross_rows;
    int want = 1 + static_cast<int>(rng_.NextUint(
                       static_cast<uint64_t>(cfg_.max_relations)));
    // Start anywhere but accounts (no join edges).
    int first = static_cast<int>(rng_.NextUint(kNumTables - 1));
    GenRel r0;
    const TableDef& t0 = tables_[static_cast<size_t>(first)];
    r0.alias = FreshAlias("f");
    r0.text = t0.name;
    r0.cols = t0.cols;
    r0.card = t0.card;
    r0.table = first;
    int64_t product = std::max<int64_t>(r0.card, 1);
    *from = r0.text + " " + r0.alias;
    rels->push_back(std::move(r0));

    for (int k = 1; k < want; ++k) {
      // Edges touching exactly the chosen set on one side, where the
      // existing rel still exports the join column.
      struct Cand {
        int rel;
        const char* have_col;
        int new_table;
        const char* new_col;
      };
      std::vector<Cand> cands;
      for (size_t i = 0; i < rels->size(); ++i) {
        const GenRel& rel = (*rels)[i];
        if (rel.table < 0) continue;
        for (const auto& e : kEdges) {
          if (e.ta == rel.table && FindCol(rel, e.ca) != nullptr) {
            cands.push_back({static_cast<int>(i), e.ca, e.tb, e.cb});
          }
          if (e.tb == rel.table && FindCol(rel, e.cb) != nullptr) {
            cands.push_back({static_cast<int>(i), e.cb, e.ta, e.ca});
          }
        }
      }
      // Drop candidates that blow the reference-cost cap.
      std::vector<Cand> ok;
      for (const auto& c : cands) {
        int64_t card = tables_[static_cast<size_t>(c.new_table)].card;
        if (product * std::max<int64_t>(card, 1) <= cap) ok.push_back(c);
      }
      if (ok.empty()) break;
      const Cand& c = ok[rng_.NextUint(ok.size())];
      GenRel nr;
      if (rng_.NextBool(cfg_.view_prob)) {
        nr = ViewRel(c.new_table, c.new_col);
      } else {
        const TableDef& td = tables_[static_cast<size_t>(c.new_table)];
        nr.alias = FreshAlias("f");
        nr.text = td.name;
        nr.cols = td.cols;
        nr.card = td.card;
        nr.table = c.new_table;
      }
      product *= std::max<int64_t>(nr.card, 1);
      std::string pred = "(" + (*rels)[static_cast<size_t>(c.rel)].alias +
                         "." + c.have_col + " = " + nr.alias + "." +
                         c.new_col + ")";
      if (rng_.NextBool(cfg_.left_join_prob)) {
        nr.left_joined = true;
        std::string on = pred;
        if (rng_.NextBool(0.4)) on += " AND " + FilterPred(nr);
        *from += " LEFT OUTER JOIN " + nr.text + " " + nr.alias + " ON " + on;
      } else {
        *from += ", " + nr.text + " " + nr.alias;
        join_preds->push_back(std::move(pred));
      }
      rels->push_back(std::move(nr));
    }
  }

  std::string PlainBlock(bool allow_subquery) {
    bool want_subquery = allow_subquery && rng_.NextBool(cfg_.subquery_prob);
    std::vector<GenRel> rels;
    std::vector<std::string> join_preds;
    std::string from;
    PickRelations(want_subquery, &rels, &join_preds, &from);

    // WHERE: join predicates first (the reference evaluates conjuncts in
    // order with early exit, so this keeps the naive cost sane), then
    // filters, then subqueries.
    std::vector<std::string> where = join_preds;
    int nfilters = static_cast<int>(rng_.NextUint(3));
    for (int i = 0; i < nfilters; ++i) {
      int r = PickFilterRel(rels);
      if (r < 0) break;
      std::string p = FilterPred(rels[static_cast<size_t>(r)]);
      if (rng_.NextBool(cfg_.disjunct_prob)) {
        int r2 = PickFilterRel(rels);
        if (r2 >= 0) {
          p = "(" + p + " OR " + FilterPred(rels[static_cast<size_t>(r2)]) +
              ")";
        }
      }
      if (rng_.NextBool(0.1)) p = "(NOT " + p + ")";
      where.push_back(std::move(p));
    }
    // The classic left-join anti pattern: IS NULL on the nullable side.
    for (const auto& rel : rels) {
      if (rel.left_joined && rng_.NextBool(0.2) && !rel.cols.empty()) {
        where.push_back("(" + rel.alias + "." + rel.cols[0].name +
                        " IS NULL)");
        break;
      }
    }
    if (want_subquery) {
      std::string sq = SubqueryPred(rels);
      if (!sq.empty()) where.push_back(std::move(sq));
    }

    std::string sql = "SELECT ";
    bool grouped = rng_.NextBool(cfg_.groupby_prob);
    if (grouped) {
      // Keys from filterable relations; aggregates over numeric columns.
      std::vector<std::string> keys;
      int nkeys = 1 + static_cast<int>(rng_.NextUint(2));
      for (int i = 0; i < nkeys; ++i) {
        int r = PickFilterRel(rels);
        if (r < 0) r = 0;
        const GenRel& rel = rels[static_cast<size_t>(r)];
        const GenCol& c = rel.cols[rng_.NextUint(rel.cols.size())];
        std::string k = rel.alias + "." + c.name;
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(std::move(k));
        }
      }
      std::vector<std::string> items = keys;
      std::vector<std::string> numeric;
      for (const auto& rel : rels) {
        for (const auto& c : rel.cols) {
          if (c.type == ColType::kReal || c.type == ColType::kInt) {
            numeric.push_back(rel.alias + "." + c.name);
          }
        }
      }
      int naggs = 1 + static_cast<int>(rng_.NextUint(2));
      for (int i = 0; i < naggs; ++i) {
        if (numeric.empty() || rng_.NextBool(0.3)) {
          items.push_back("COUNT(*) AS cnt_" + std::to_string(i));
          continue;
        }
        const char* agg;
        switch (rng_.NextUint(4)) {
          case 0: agg = "SUM"; break;
          case 1: agg = "AVG"; break;
          case 2: agg = "MIN"; break;
          default: agg = "MAX"; break;
        }
        items.push_back(std::string(agg) + "(" +
                        numeric[rng_.NextUint(numeric.size())] + ") AS agg_" +
                        std::to_string(i));
      }
      sql += JoinStrings(items, ", ") + " FROM " + from;
      if (!where.empty()) sql += " WHERE " + JoinStrings(where, " AND ");
      sql += " GROUP BY " + JoinStrings(keys, ", ");
      if (rng_.NextBool(0.3)) {
        sql += " HAVING COUNT(*) >= " + std::to_string(1 + rng_.NextUint(3));
      }
      return sql;
    }

    if (rng_.NextBool(cfg_.distinct_prob)) sql += "DISTINCT ";
    std::vector<std::string> items;
    int nitems = 1 + static_cast<int>(rng_.NextUint(4));
    for (int i = 0; i < nitems; ++i) {
      const GenRel& rel = rels[rng_.NextUint(rels.size())];
      const GenCol& c = rel.cols[rng_.NextUint(rel.cols.size())];
      std::string item = rel.alias + "." + c.name;
      if ((c.type == ColType::kReal || c.type == ColType::kInt ||
           c.type == ColType::kId) &&
          rng_.NextBool(0.15)) {
        item = "(" + item + (rng_.NextBool(0.5) ? " + " : " * ") +
               std::to_string(1 + rng_.NextUint(5)) + ")";
      } else if (rng_.NextBool(0.08) && !rel.left_joined) {
        item = "CASE WHEN " + FilterPred(rel) + " THEN " + item + " END";
      }
      items.push_back(std::move(item));
    }
    sql += JoinStrings(items, ", ") + " FROM " + from;
    if (!where.empty()) sql += " WHERE " + JoinStrings(where, " AND ");
    return sql;
  }

  std::string SetOpShape() {
    // Branches over the same base table with identical projections and
    // different filters (join-factorization territory for UNION ALL).
    int t = static_cast<int>(rng_.NextUint(kNumTables));
    const TableDef& td = tables_[static_cast<size_t>(t)];
    std::vector<size_t> proj;
    size_t ncols = 1 + rng_.NextUint(std::min<size_t>(td.cols.size(), 3));
    for (size_t i = 0; i < td.cols.size() && proj.size() < ncols; ++i) {
      proj.push_back(i);
    }
    const char* op;
    int branches = 2;
    switch (rng_.NextUint(4)) {
      case 0:
        op = " UNION ALL ";
        branches = 2 + static_cast<int>(rng_.NextUint(2));
        break;
      case 1: op = " UNION "; break;
      case 2: op = " INTERSECT "; break;
      default: op = " MINUS "; break;
    }
    std::vector<std::string> parts;
    for (int b = 0; b < branches; ++b) {
      GenRel rel;
      rel.alias = FreshAlias("f");
      rel.text = td.name;
      rel.cols = td.cols;
      rel.card = td.card;
      rel.table = t;
      std::vector<std::string> items;
      for (size_t i : proj) {
        items.push_back(rel.alias + "." + td.cols[i].name);
      }
      std::string branch = "SELECT " + JoinStrings(items, ", ") + " FROM " +
                           td.name + " " + rel.alias;
      if (rng_.NextBool(0.8)) branch += " WHERE " + FilterPred(rel);
      parts.push_back(std::move(branch));
    }
    return JoinStrings(parts, op);
  }

  std::string RownumShape() {
    // The pullup shape: an ordered (deterministic: ORDER BY every exported
    // column) view under an outer ROWNUM cutoff, sometimes with an
    // expensive predicate the optimizer can pull above the cutoff.
    int t = static_cast<int>(rng_.NextUint(kNumTables));
    const TableDef& td = tables_[static_cast<size_t>(t)];
    GenRel rel;
    rel.alias = FreshAlias("i");
    rel.text = td.name;
    rel.cols = td.cols;
    rel.card = td.card;
    rel.table = t;
    std::vector<std::string> items, order, outer;
    std::string v = FreshAlias("v");
    for (size_t i = 0; i < td.cols.size() && i < 4; ++i) {
      items.push_back(rel.alias + "." + td.cols[i].name + " AS c" +
                      std::to_string(i));
      order.push_back(rel.alias + "." + td.cols[i].name);
      outer.push_back(v + ".c" + std::to_string(i));
    }
    std::string inner = "SELECT " + JoinStrings(items, ", ") + " FROM " +
                        td.name + " " + rel.alias;
    std::vector<std::string> where;
    if (rng_.NextBool(0.4) && td.cols[0].type == ColType::kId) {
      where.push_back("expensive_filter(" + rel.alias + "." +
                      td.cols[0].name + ", " +
                      std::to_string(2 + rng_.NextUint(20)) + ") = 1");
    }
    if (rng_.NextBool(0.6)) where.push_back(FilterPred(rel));
    if (!where.empty()) inner += " WHERE " + JoinStrings(where, " AND ");
    inner += " ORDER BY " + JoinStrings(order, ", ");
    return "SELECT " + JoinStrings(outer, ", ") + " FROM (" + inner + ") " +
           v + " WHERE rownum <= " + std::to_string(1 + rng_.NextUint(30));
  }

  std::string WindowShape() {
    const TableDef& td = tables_[kAccounts];
    GenRel rel;
    rel.alias = FreshAlias("i");
    rel.cols = td.cols;
    rel.table = kAccounts;
    std::string v = FreshAlias("v");
    const char* agg;
    switch (rng_.NextUint(3)) {
      case 0: agg = "AVG"; break;
      case 1: agg = "SUM"; break;
      default: agg = "MIN"; break;
    }
    std::string inner =
        "SELECT " + rel.alias + ".acct_id AS acct_id, " + rel.alias +
        ".time AS t, " + agg + "(" + rel.alias +
        ".balance) OVER (PARTITION BY " + rel.alias + ".acct_id ORDER BY " +
        rel.alias + ".time) AS r FROM accounts " + rel.alias;
    std::string sql = "SELECT " + v + ".acct_id, " + v + ".t, " + v +
                      ".r FROM (" + inner + ") " + v;
    std::vector<std::string> where;
    if (rng_.NextBool(0.7)) {
      where.push_back("(" + v + ".t <= " +
                      std::to_string(1 + rng_.NextUint(12)) + ")");
    }
    if (rng_.NextBool(0.5)) {
      where.push_back("(" + v + ".acct_id = " +
                      std::to_string(rng_.NextUint(static_cast<uint64_t>(
                          std::max(td.cols[0].id_range, 1)))) +
                      ")");
    }
    if (!where.empty()) sql += " WHERE " + JoinStrings(where, " AND ");
    return sql;
  }

  Rng rng_;
  FuzzGenConfig cfg_;
  std::vector<TableDef> tables_;
  int alias_counter_ = 0;
};

}  // namespace

std::string GenerateFuzzQuery(uint64_t seed, const SchemaConfig& schema,
                              const FuzzGenConfig& cfg) {
  FuzzGen gen(seed, schema, cfg);
  return gen.Generate();
}

}  // namespace cbqt
