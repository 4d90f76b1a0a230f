// The traced run's hand-wired pipeline: the steps QueryEngine::Prepare and
// QueryEngine::Execute take for one statement, re-assembled from each
// module's public entry point so that every step can carry its own span.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cbqt/framework.h"
#include "cbqt/plan_cache.h"
#include "common/value.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"
#include "storage/database.h"
#include "trace.h"

namespace perfbench {

/// Span durations (microseconds) of one statement through the pipeline.
struct StepTimes {
  double parse_us = 0;
  double bind_us = 0;       ///< one BindQuery of the parsed tree
  double heuristic_us = 0;  ///< ApplyHeuristicTransformations on it
  double plan_cache_us = 0; ///< parameterize, look up, serve or insert
  double optimize_us = 0;   ///< CbqtOptimizer::Optimize (misses only)
  double final_plan_us = 0; ///< PhysicalOptimizer::Optimize of the chosen tree
  double execute_us = 0;
  bool hit = false;         ///< served from the pipeline's plan cache
};

struct PipelineResult {
  cbqt::Status status;
  StepTimes times;
  std::unique_ptr<cbqt::PlanNode> plan;
  std::vector<cbqt::Row> rows;
};

/// Mirrors the engine's plan-cache and optimizer path with the same
/// configuration, over its own plan cache. Thread-safe like the engine.
///
/// Binding and heuristic rewriting run once more on their own, outside the
/// optimizer, so that their cost has a span; the final physical plan is
/// likewise re-planned once on its own. Inside CbqtOptimizer::Optimize they
/// are not separable without tracing in the engine, so the search's self
/// time is Optimize minus those three spans.
class Pipeline {
 public:
  Pipeline(const cbqt::Database& db, const cbqt::CbqtConfig& config);

  /// Runs `sql` end to end, recording its spans under `query` in `log`.
  PipelineResult Run(int64_t query, const std::string& sql,
                     SpanLog* log) const;

 private:
  const cbqt::Database& db_;
  cbqt::CbqtConfig config_;
  cbqt::CbqtOptimizer optimizer_;
  cbqt::PhysicalOptimizer physical_;
  mutable cbqt::PlanCache cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
