// The benchmark's three workloads: data size, query stream, loop model and
// engine configuration of each. See ../README.md for why each exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cbqt/framework.h"
#include "workload/schema_gen.h"

namespace perfbench {

struct Workload {
  std::string name;
  cbqt::SchemaConfig schema;
  /// Closed-loop client sessions (one thread each).
  int sessions = 1;
  /// Scheduler tenant of each session ("" = no scheduler).
  std::vector<std::string> session_tenants;
  /// Distinct statement bodies; the stream cycles through them.
  std::vector<std::string> pool;
  /// When set, statement i carries the tag i in a select alias, so every
  /// statement of the stream has its own plan-cache shape while its rows
  /// stay those of pool[i % pool.size()].
  bool unique_shapes = false;
  /// Statements whose per-query counts the traced run reports; the traced
  /// run always completes at least this many, so on a single-session
  /// workload the counts repeat exactly at a fixed seed.
  int count_prefix = 0;
  /// The measured engine configuration.
  cbqt::CbqtConfig config;
};

/// Builds the named workload's stream from `seed`; false for an unknown
/// name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Statement `i` of the workload's stream.
std::string StatementAt(const Workload& w, int64_t i);

/// The statement that warms an engine up before timing: not part of any
/// stream, so it leaves no plan-cache entry a timed statement could hit.
const char* WarmupStatement();

/// The configuration expected rows are computed with: heuristic-only
/// transformation decisions, a different configuration from every measured
/// one.
cbqt::CbqtConfig ReferenceConfig();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
