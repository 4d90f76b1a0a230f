#include "pipeline.h"

#include <utility>

#include "binder/binder.h"
#include "exec/executor.h"
#include "optimizer/card_est.h"
#include "parser/parser.h"
#include "sql/parameterize.h"
#include "transform/transform_util.h"

namespace perfbench {

namespace {

constexpr const char* kRoot = "pipeline";

bool IsDegraded(const cbqt::CbqtStats& stats) {
  return stats.budget_exhausted || stats.searches_degraded > 0;
}

}  // namespace

Pipeline::Pipeline(const cbqt::Database& db, const cbqt::CbqtConfig& config)
    : db_(db),
      config_(config),
      optimizer_(db, config),
      physical_(db),
      cache_(config.plan_cache) {}

PipelineResult Pipeline::Run(int64_t query, const std::string& sql,
                             SpanLog* log) const {
  PipelineResult out;
  StepTimes& t = out.times;

  auto parsed = log->Time(query, "parser.ParseSql", kRoot,
                          [&] { return cbqt::ParseSql(sql); });
  t.parse_us = log->last_us();
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }

  // Binding and the heuristic battery, each on its own span, on a copy.
  auto bound = parsed.value()->Clone();
  out.status = log->Time(query, "binder.BindQuery", kRoot, [&] {
    return cbqt::BindQuery(db_, bound.get());
  });
  t.bind_us = log->last_us();
  if (!out.status.ok()) return out;
  out.status = log->Time(
      query, "transform.ApplyHeuristicTransformations", kRoot, [&] {
        cbqt::TransformContext ctx{bound.get(), &db_};
        cbqt::HeuristicOptions opts;
        opts.subquery_unnest =
            config_.transforms.enabled(cbqt::Transform::kUnnest);
        return cbqt::ApplyHeuristicTransformations(ctx, opts);
      });
  t.heuristic_us = log->last_us();
  if (!out.status.ok()) return out;

  // Plan-cache lookup, exactly as QueryEngine::Prepare does it: parameterize
  // the literals, find the shape, and serve it only when the literals fall
  // in the selectivity bands the cached plan was optimized for.
  int64_t lookup_start = NowNs();
  cbqt::ParameterizedStatement ps = cbqt::ParameterizeQuery(parsed->get());
  uint64_t epoch = db_.stats_epoch();
  std::vector<int> bands;
  if (!ps.params.empty()) {
    bands = cbqt::ComputeParamBands(**parsed, ps.params.size(),
                                    db_.catalog(), db_.stats());
  }
  auto entry = cache_.Find(ps.key, epoch);
  if (entry != nullptr && (ps.params.empty() || bands == entry->param_bands)) {
    t.hit = true;
    auto tree = entry->tree->Clone();
    cbqt::BindTreeParams(tree.get(), ps.params);
    out.plan = entry->plan->Clone();
    cbqt::RebindPlanParams(out.plan.get(), ps.params);
    log->Add({query, "plan_cache.serve", kRoot, lookup_start, NowNs()});
    t.plan_cache_us = log->last_us();
  } else {
    log->Add({query, "plan_cache.lookup", kRoot, lookup_start, NowNs()});
    t.plan_cache_us = log->last_us();

    auto optimized =
        log->Time(query, "cbqt.CbqtOptimizer::Optimize", kRoot,
                  [&] { return optimizer_.Optimize(**parsed); });
    t.optimize_us = log->last_us();
    if (!optimized.ok()) {
      out.status = optimized.status();
      return out;
    }
    auto final_plan =
        log->Time(query, "optimizer.PhysicalOptimizer::Optimize", kRoot,
                  [&] { return physical_.Optimize(*optimized->tree); });
    t.final_plan_us = log->last_us();
    if (!final_plan.ok()) {
      out.status = final_plan.status();
      return out;
    }

    log->Time(query, "plan_cache.insert", kRoot, [&] {
      auto fresh = std::make_shared<cbqt::CachedPlanEntry>();
      fresh->key = std::move(ps.key);
      fresh->stats_epoch = epoch;
      fresh->tree = optimized->tree->Clone();
      fresh->plan = optimized->plan->Clone();
      fresh->source_tree = parsed.value()->Clone();
      fresh->cost = optimized->cost;
      fresh->stats = optimized->stats;
      fresh->num_params = ps.params.size();
      fresh->param_bands = std::move(bands);
      fresh->degraded = IsDegraded(fresh->stats);
      fresh->planned_budget = config_.budget;
      fresh->bytes = cbqt::EstimateEntryBytes(*fresh);
      cache_.Put(std::move(fresh));
    });
    t.plan_cache_us += log->last_us();
    out.plan = std::move(optimized->plan);
  }

  auto executed = log->Time(query, "exec.Executor::Execute", kRoot, [&] {
    cbqt::Executor executor(db_, config_.exec);
    return executor.Execute(*out.plan);
  });
  t.execute_us = log->last_us();
  if (!executed.ok()) {
    out.status = executed.status();
    return out;
  }
  out.rows = std::move(executed->rows);
  return out;
}

}  // namespace perfbench
