#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/str_util.h"
#include "workload/query_gen.h"
#include "workload/runner.h"

namespace perfbench {

namespace {

using cbqt::Rng;
using cbqt::StrFormat;

// Stream sizes. The analytic and search pools are large enough that the
// slowest percent of a run is drawn from dozens of distinct statements; the
// oltp pool only needs to outnumber the shapes of its generator.
constexpr int kAnalyticPool = 2400;
constexpr int kSearchPool = 1000;
constexpr int kOltpPool = 20000;

// Plan-cache capacity of the measured engines: above the shape counts of
// the oltp stream (about 10) and the analytic stream (about 40), so neither
// evicts.
constexpr size_t kPlanCacheCapacity = 64;
// The search stream never repeats a shape, so any capacity only misses,
// inserts and evicts. A search plan takes about 125 KB in the cache, and a
// full cache slowed every layer of the process: at 256 entries (31 MB) parse
// time tripled within 20 s, and at 64 entries (8 MB) the run-to-run spread of
// p50 on a busy shared host was 1.7 times that at 8 entries (1 MB).
constexpr size_t kSearchPlanCacheCapacity = 8;

const char* const kCountries[] = {"US", "UK", "DE", "JP", "IN", "BR", "FR",
                                  "CA"};
const char* const kStatuses[] = {"OPEN", "SHIPPED", "CLOSED", "CANCELLED"};

// The search marker a statement's tag replaces.
constexpr const char* kTagMarker = "{TAG}";

// A date after which about `keep` of a uniform 12-year range lies.
std::string DateCut(double keep) {
  int day = static_cast<int>((1.0 - keep) * 360 * 12);
  return StrFormat("%04d%02d%02d", 1995 + day / 360, 1 + (day % 360) / 30,
                   1 + day % 30);
}

double Between(Rng& rng, double lo, double hi) {
  return lo + rng.NextDouble() * (hi - lo);
}

// Objects in the shape of the transformable query_gen families that a
// search statement may add to the Table-2 query (see SearchBody).
constexpr size_t kSearchFamilies = 7;

// One search statement body: the Table-2 query of paper §4.4 (employees,
// departments, locations with four unnestable three-table subqueries of
// NOT IN / EXISTS / NOT EXISTS / IN type) with fresh literals, plus the
// family objects numbered in `picks` (correlated aggregate subqueries,
// single-table semi/anti joins, GROUP BY and DISTINCT views), all in random
// order. Each statement thus opens a CBQT search over 4 + picks.size()
// objects. The outer salary cut, which sets how many employees reach the
// subqueries, lies at `salary_at` of its range.
std::string SearchBody(Rng& rng, const std::vector<size_t>& picks,
                       double salary_at) {
  struct Piece {
    std::string from;   // added to the outer FROM list ("" for subqueries)
    std::string where;  // conjunct of the outer WHERE
  };
  std::vector<Piece> table2 = {
      {"", StrFormat("e.emp_id NOT IN (SELECT o1.emp_id FROM orders o1, "
                     "customers c1, products p1 WHERE o1.cust_id = c1.cust_id "
                     "AND p1.product_id = o1.order_id AND o1.emp_id IS NOT "
                     "NULL AND o1.total > %.0f)",
                     Between(rng, 500, 4500))},
      {"", StrFormat("EXISTS (SELECT 1 FROM job_history j2, jobs jb2, "
                     "employees e2 WHERE j2.job_id = jb2.job_id AND "
                     "e2.emp_id = j2.emp_id AND j2.emp_id = e.emp_id AND "
                     "j2.start_date > '%s')",
                     DateCut(Between(rng, 0.3, 0.95)).c_str())},
      {"", StrFormat("NOT EXISTS (SELECT 1 FROM orders o3, customers c3, "
                     "locations l3 WHERE o3.cust_id = c3.cust_id AND "
                     "c3.country_id = l3.country_id AND o3.emp_id = e.emp_id "
                     "AND o3.status = '%s')",
                     kStatuses[rng.NextUint(4)])},
      {"", StrFormat("e.dept_id IN (SELECT d4.dept_id FROM departments d4, "
                     "locations l4, jobs jb4 WHERE d4.loc_id = l4.loc_id AND "
                     "jb4.job_id = d4.dept_id AND l4.country_id = '%s')",
                     kCountries[rng.NextUint(8)])},
  };
  std::vector<Piece> families = {
      {"", StrFormat("e.salary > (SELECT AVG(e5.salary) FROM employees e5 "
                     "WHERE e5.dept_id = e.dept_id AND e5.hire_date > '%s')",
                     DateCut(Between(rng, 0.2, 0.9)).c_str())},
      {"", StrFormat("EXISTS (SELECT 1 FROM job_history j6 WHERE j6.dept_id "
                     "= d.dept_id AND j6.start_date > '%s')",
                     DateCut(Between(rng, 0.05, 0.6)).c_str())},
      {"", StrFormat("e.job_id IN (SELECT jb7.job_id FROM jobs jb7 WHERE "
                     "jb7.min_salary > %.0f)",
                     Between(rng, 30000, 70000))},
      {"", StrFormat("NOT EXISTS (SELECT 1 FROM orders o8 WHERE o8.emp_id = "
                     "e.emp_id AND o8.total > %.0f)",
                     Between(rng, 2500, 4900))},
      {"", "d.budget > (SELECT AVG(d9.budget) FROM departments d9 WHERE "
           "d9.loc_id = d.loc_id)"},
      {StrFormat("(SELECT o10.emp_id AS emp_id, COUNT(o10.order_id) AS cnt "
                 "FROM orders o10 WHERE o10.order_date > '%s' GROUP BY "
                 "o10.emp_id) v10",
                 DateCut(Between(rng, 0.3, 0.9)).c_str()),
       "v10.emp_id = e.emp_id"},
      {StrFormat("(SELECT DISTINCT j11.emp_id AS emp_id FROM job_history j11 "
                 "WHERE j11.start_date > '%s') v11",
                 DateCut(Between(rng, 0.3, 0.9)).c_str()),
       "v11.emp_id = e.emp_id"},
  };
  // The picked family objects, then a shuffle of the whole conjunct list.
  std::vector<Piece> pieces = std::move(table2);
  for (size_t f : picks) pieces.push_back(families[f]);
  for (size_t i = pieces.size(); i > 1; --i) {
    std::swap(pieces[i - 1], pieces[rng.NextUint(i)]);
  }
  std::string from = "employees e, departments d, locations l";
  std::string where = StrFormat(
      "e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND e.salary > %.0f",
      90000 + salary_at * 54000);
  for (const Piece& p : pieces) {
    if (!p.from.empty()) from += ", " + p.from;
    where += " AND " + p.where;
  }
  // Only employee columns are selected, as in the paper's query: join
  // elimination may then drop departments and locations.
  return StrFormat("SELECT e.employee_name AS n%s, e.salary FROM %s WHERE %s",
                   kTagMarker, from.c_str(), where.c_str());
}

// The statement with its literals blanked: numbers become '#', quoted
// strings '?'. Statements of one generator template share this shape.
std::string Shape(const std::string& sql) {
  std::string out;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') {
      size_t close = sql.find('\'', i + 1);
      i = close == std::string::npos ? sql.size() : close;
      out += '?';
    } else if (std::isdigit(static_cast<unsigned char>(c)) &&
               (out.empty() || !std::isalnum(static_cast<unsigned char>(
                                   out.back())))) {
      while (i + 1 < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i + 1])) ||
              sql[i + 1] == '.')) {
        ++i;
      }
      out += '#';
    } else {
      out += c;
    }
  }
  return out;
}

// Left out of the analytic stream: the join-factorization template whose
// second UNION ALL branch joins job_history to employees on the skewed
// dept_id. It returns up to ~10^6 rows in ~0.5 s, so the handful of them in
// a pool would decide qps, CPU per query and peak memory by their literals
// alone.
constexpr const char* kExcludedPredicate = "j.dept_id = e.dept_id";

// The analytic stream: GenerateMixedWorkload's paper §4 mix, stratified so
// that its composition does not depend on the seed. `count` statements are
// drawn from four times as many candidates: exactly `transformable` of them
// spread evenly over the transformable families, the rest SPJ, and within
// each family an equal number per template (round-robin over shapes). The
// stream then interleaves the templates evenly, so that every prefix of it
// (a run measures a prefix) has the same mix. Only literals and order vary
// with the seed. Without this the binomial draw of templates moves the
// median across a gap between template clusters from seed to seed.
std::vector<std::string> AnalyticStream(int count, double transformable,
                                        const cbqt::SchemaConfig& schema,
                                        uint64_t seed) {
  auto candidates =
      cbqt::GenerateMixedWorkload(4 * count, transformable, schema, seed);
  // family -> shape -> statements, in generation order.
  std::map<cbqt::QueryFamily, std::map<std::string, std::vector<std::string>>>
      by_family;
  for (auto& q : candidates) {
    if (q.sql.find(kExcludedPredicate) != std::string::npos) continue;
    by_family[q.family][Shape(q.sql)].push_back(std::move(q.sql));
  }
  const int n_transformable =
      static_cast<int>(std::lround(transformable * count));
  const int n_families = static_cast<int>(by_family.size()) - 1;  // not SPJ
  // The chosen statements, one list per template.
  std::vector<std::vector<std::string>> buckets;
  int family_rank = 0;
  for (auto& [family, shapes] : by_family) {
    int quota = count - n_transformable;
    if (family != cbqt::QueryFamily::kSpj) {
      quota = n_transformable / n_families +
              (family_rank++ < n_transformable % n_families ? 1 : 0);
    }
    size_t first = buckets.size();
    buckets.resize(first + shapes.size());
    int taken = 0;
    for (size_t round = 0; taken < quota; ++round) {
      size_t k = first;
      for (auto& [shape, sqls] : shapes) {
        if (taken < quota) {
          buckets[k].push_back(sqls[round % sqls.size()]);
          ++taken;
        }
        ++k;
      }
    }
  }
  // Even interleave: statement j of a bucket of n sits at (j + u) / n, with
  // a random phase u per bucket.
  Rng rng(seed ^ 0xa7a1a7a1ull);
  std::vector<std::pair<double, std::string*>> order;
  for (auto& bucket : buckets) {
    double phase = rng.NextDouble();
    for (size_t j = 0; j < bucket.size(); ++j) {
      order.emplace_back((static_cast<double>(j) + phase) /
                             static_cast<double>(bucket.size()),
                         &bucket[j]);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::string> out;
  out.reserve(order.size());
  for (auto& [key, sql] : order) out.push_back(std::move(*sql));
  return out;
}

cbqt::CbqtConfig MeasuredConfig() {
  cbqt::CbqtConfig config;  // full cost-based transformation
  config.plan_cache.capacity = kPlanCacheCapacity;
  return config;
}

// 0.1 of the default bench schema's fact and large dimension tables.
cbqt::SchemaConfig SmallSchema() {
  cbqt::SchemaConfig s;
  s.employees = 2000;
  s.job_history = 3000;
  s.customers = 400;
  s.orders = 3000;
  s.order_items = 6000;
  return s;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.config = MeasuredConfig();
  if (name == "analytic") {
    // Paper §4 shape: 8% transformable statements, the rest SPJ.
    w.pool = AnalyticStream(kAnalyticPool, 0.08, w.schema, seed);
    w.count_prefix = 600;
  } else if (name == "search") {
    w.schema = SmallSchema();
    // The object count cycles 4, 5, 6, the added family objects cycle
    // through every family and every pair of families, and the outer salary
    // cuts follow a golden-ratio sequence from a seeded start, so every
    // stretch of the stream has the same mix whatever the seed. The slowest
    // percent of statements are six-object ones with a low salary cut; with
    // both drawn at random, p99 against p50 moved by up to 20% from seed to
    // seed.
    std::vector<std::vector<size_t>> picks;
    for (size_t a = 0; a < kSearchFamilies; ++a) picks.push_back({a});
    const size_t singles = picks.size();
    for (size_t a = 0; a < kSearchFamilies; ++a) {
      for (size_t b = a + 1; b < kSearchFamilies; ++b) picks.push_back({a, b});
    }
    const size_t pairs = picks.size() - singles;
    const double salary_start = Rng(seed ^ 0x5a1a5a1aull).NextDouble();
    for (int k = 0; k < kSearchPool; ++k) {
      Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(k));
      const size_t round = static_cast<size_t>(k / 3);
      const double salary_at =
          std::fmod(salary_start + k * 0.6180339887498949, 1.0);
      switch (k % 3) {
        case 0:
          w.pool.push_back(SearchBody(rng, {}, salary_at));
          break;
        case 1:
          w.pool.push_back(
              SearchBody(rng, picks[round % singles], salary_at));
          break;
        default:
          w.pool.push_back(
              SearchBody(rng, picks[singles + round % pairs], salary_at));
      }
    }
    w.unique_shapes = true;
    w.config.plan_cache.capacity = kSearchPlanCacheCapacity;
    w.count_prefix = 300;
  } else if (name == "oltp") {
    w.schema.oltp_indexes = true;
    for (auto& q : cbqt::GenerateOltpWorkload(kOltpPool, w.schema, seed)) {
      w.pool.push_back(std::move(q.sql));
    }
    w.sessions = 4;
    w.session_tenants = {"tenant-a", "tenant-b", "tenant-a", "tenant-b"};
    w.count_prefix = 4000;
    // Two equal-weight interactive tenants, two sessions each, admitted
    // through the tenant scheduler with one slot per session. With fewer
    // slots than sessions every queued admission waits on a cross-thread
    // wake-up, and on a shared host that wake-up's latency swung p99 from
    // 0.17 ms to 2.6 ms between identical runs; admission here costs its
    // bookkeeping but never queues.
    cbqt::SchedulerConfig& sched = w.config.guardrails.scheduler;
    sched.enabled = true;
    sched.max_concurrent = w.sessions;
    sched.queue_timeout_ms = 2000;
    for (const char* tenant : {"tenant-a", "tenant-b"}) {
      cbqt::TenantSpec spec;
      spec.name = tenant;
      spec.weight = 1;
      spec.priority = 0;
      spec.max_queued = 16;
      sched.tenants.push_back(spec);
    }
  } else {
    return false;
  }
  if (w.session_tenants.empty()) {
    w.session_tenants.assign(static_cast<size_t>(w.sessions), "");
  }
  *out = std::move(w);
  return true;
}

std::string StatementAt(const Workload& w, int64_t i) {
  const std::string& body = w.pool[static_cast<size_t>(
      i % static_cast<int64_t>(w.pool.size()))];
  if (!w.unique_shapes) return body;
  std::string sql = body;
  size_t at = sql.find(kTagMarker);
  sql.replace(at, std::string(kTagMarker).size(), std::to_string(i));
  return sql;
}

const char* WarmupStatement() {
  return "SELECT l.city, d.dept_name FROM locations l, departments d WHERE "
         "d.loc_id = l.loc_id AND l.country_id = 'US'";
}

cbqt::CbqtConfig ReferenceConfig() {
  cbqt::CbqtConfig config =
      cbqt::ConfigForMode(cbqt::OptimizerMode::kHeuristicOnly);
  config.plan_cache.capacity = 4096;
  return config;
}

}  // namespace perfbench
