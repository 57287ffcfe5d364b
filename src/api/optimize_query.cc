#include "api/optimize_query.h"

#include <utility>

#include "baseline/greedy.h"
#include "common/strings.h"
#include "core/table_arena.h"
#include "obs/metrics.h"
#include "obs/profiler/profiler.h"
#include "obs/trace.h"
#include "plan/algorithm_choice.h"
#include "plan/evaluate.h"
#include "simd/dispatch.h"

namespace blitz {

namespace {

/// Phase timing helper: accumulates into `*slot` only when a report is
/// being collected, so the default path pays no clock reads per phase.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double* slot) : slot_(enabled ? slot : nullptr) {}

  ~PhaseTimer() {
    if (slot_ != nullptr) *slot_ += timer_.ElapsedSeconds();
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* slot_;
  MetricTimer timer_;
};

/// True for the status codes that step the degradation ladder down one
/// tier. Cancellation is deliberately excluded: a caller that cancelled
/// wants the call to stop, not to burn more time in a cheaper tier.
bool IsDegradable(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// The call's one blitzsplit pass, built from the top-level knobs: the
/// exhaustive tier runs it and the hybrid tier configures its block solves
/// from it. `profile` is the per-phase DP attribution sink (null unless a
/// profile was requested; a null sink compiles the hooks out).
OptimizerOptions PassOptions(const QueryOptimizerOptions& options,
                             PassProfile* profile) {
  OptimizerOptions pass;
  pass.cost_model = options.cost_model;
  pass.count_operations = options.collect_report && options.count_operations;
  pass.budget = options.budget;
  pass.parallel = options.parallel;
  pass.simd = options.simd;
  pass.profile = profile;
  pass.estimator = options.estimator;
  pass.table_arena = options.table_arena;
  return pass;
}

}  // namespace

const char* OptimizerTierName(OptimizerTier tier) {
  switch (tier) {
    case OptimizerTier::kExhaustive:
      return "exhaustive";
    case OptimizerTier::kHybrid:
      return "hybrid";
    case OptimizerTier::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::string OptimizedQuery::ReportToString() const {
  if (!report.has_value()) {
    return StrFormat("tier %s (no report collected)", OptimizerTierName(tier));
  }
  const OptimizeReport& r = *report;
  std::string out = StrFormat(
      "total %.3f ms (optimize %.3f, extract %.3f, evaluate %.3f, "
      "attach %.3f); tier %s; simd %s; estimator %s; "
      "peak DP table %llu bytes",
      r.total_seconds * 1e3, r.optimize_seconds * 1e3,
      r.extract_seconds * 1e3, r.evaluate_seconds * 1e3,
      r.attach_seconds * 1e3, OptimizerTierName(tier),
      SimdLevelName(r.simd_level), EstimatorKindName(r.estimator),
      static_cast<unsigned long long>(r.peak_dp_table_bytes));
  if (r.tiers_attempted > 1) {
    out += StrFormat(" (%d tier attempts", r.tiers_attempted);
    for (const std::string& step : r.degradations) out += "; " + step;
    out += ")";
  }
  if (!r.thresholds_tried.empty()) {
    out += "; thresholds";
    for (const float threshold : r.thresholds_tried) {
      out += StrFormat(" %g", static_cast<double>(threshold));
    }
  }
  if (r.counters.loop_iterations > 0) {
    out += "; counts " + r.counters.ToString();
  }
  if (r.profile.has_value() && !r.profile->empty()) {
    out += StrFormat("; dp profile: %.3f ms attributed over %llu pass(es)",
                     r.profile->AttributedSeconds() * 1e3,
                     static_cast<unsigned long long>(r.profile->passes));
  }
  return out;
}

Status QueryOptimizerOptions::Validate() const {
  if (exhaustive_limit < 1) {
    return Status::InvalidArgument("exhaustive_limit must be >= 1");
  }
  if (initial_cost_threshold.has_value() &&
      !(*initial_cost_threshold > 0)) {
    return Status::InvalidArgument(
        "initial_cost_threshold must be positive when set");
  }
  BLITZ_RETURN_IF_ERROR(parallel.Validate());
  return hybrid.Validate();
}

Result<OptimizedQuery> OptimizeQuery(const Catalog& catalog,
                                     const JoinGraph& graph,
                                     const QueryOptimizerOptions& options) {
  if (graph.num_relations() != catalog.num_relations()) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  BLITZ_RETURN_IF_ERROR(options.Validate());
  if (options.estimator != nullptr &&
      options.estimator->num_relations() != catalog.num_relations()) {
    return Status::InvalidArgument(StrFormat(
        "estimator covers %d relations but the catalog has %d",
        options.estimator->num_relations(), catalog.num_relations()));
  }

  const MetricTimer total_timer;
  TraceSpan span("OptimizeQuery", "api");
  span.AddArg("n", catalog.num_relations());
  // Profiled region for the observatory: nests under the trace span above
  // and accrues wall time + hardware counters when a global Profiler is
  // installed (one atomic load otherwise).
  ProfileScope prof_scope("OptimizeQuery");

  OptimizedQuery result;
  OptimizeReport report;
  // Per-phase DP attribution sink; wired into the pass only when requested.
  PassProfile dp_profile;
  const bool profile_requested =
      options.collect_report && options.collect_profile;
  const OptimizerOptions pass =
      PassOptions(options, profile_requested ? &dp_profile : nullptr);
  // The per-pass kernel choice: every tier's DP passes share one resolved
  // request, so resolve it once up front (the exhaustive tier re-reports
  // its pass's actual level, which matches — including the flat-ablation,
  // gate-tightness, and minimum-n refinements folded into
  // EffectivePassSimdLevel).
  report.simd_level = EffectivePassSimdLevel(pass, catalog.num_relations());
  report.estimator = options.estimator != nullptr
                         ? options.estimator->kind()
                         : EstimatorKind::kPaperFanout;

  // The degradation ladder: the natural tier for this problem size first,
  // then each cheaper tier. Budget exhaustion (deadline, memory cap) steps
  // down; cancellation and genuine errors return immediately. Each tier
  // attempt is governed by a fresh copy of the budget — the ladder is what
  // bounds the total, and the last-resort greedy tier is polynomial.
  std::vector<OptimizerTier> ladder;
  if (catalog.num_relations() <= options.exhaustive_limit) {
    ladder.push_back(OptimizerTier::kExhaustive);
  }
  ladder.push_back(OptimizerTier::kHybrid);
  ladder.push_back(OptimizerTier::kGreedy);
  if (!options.degrade_on_budget) ladder.resize(1);

  const auto run_exhaustive = [&]() -> Status {
    Result<OptimizeOutcome> outcome = Status::Internal("unset");
    {
      PhaseTimer phase(options.collect_report, &report.optimize_seconds);
      if (options.initial_cost_threshold.has_value()) {
        ThresholdLadderOptions thresholds;
        thresholds.initial_threshold = *options.initial_cost_threshold;
        Result<LadderOutcome> laddered = OptimizeJoinWithThresholds(
            catalog, graph, pass, thresholds);
        if (!laddered.ok()) return laddered.status();
        result.passes = laddered->passes;
        report.thresholds_tried = std::move(laddered->thresholds_tried);
        outcome = std::move(laddered->outcome);
      } else {
        outcome = OptimizeJoin(catalog, graph, pass);
        if (!outcome.ok()) return outcome.status();
      }
    }
    report.counters = outcome->counters;
    report.peak_dp_table_bytes = outcome->table.MemoryBytes();
    report.simd_level = outcome->simd_level;
    PhaseTimer phase(options.collect_report, &report.extract_seconds);
    TraceSpan extract_span("extract_plan", "api");
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    if (!plan.ok()) return plan.status();
    result.plan = std::move(plan).value();
    // The table's job is done; recycle its buffers for the next call.
    if (options.table_arena != nullptr) {
      options.table_arena->Release(std::move(outcome->table));
    }
    return Status::OK();
  };

  const auto run_hybrid = [&]() -> Status {
    PhaseTimer phase(options.collect_report, &report.optimize_seconds);
    Result<HybridResult> outcome =
        OptimizeHybrid(catalog, graph, pass, options.hybrid);
    if (!outcome.ok()) return outcome.status();
    result.plan = std::move(outcome->plan);
    return Status::OK();
  };

  const auto run_greedy = [&]() -> Status {
    PhaseTimer phase(options.collect_report, &report.optimize_seconds);
    Result<GreedyResult> outcome =
        OptimizeGreedy(catalog, graph, options.cost_model,
                       GreedyCriterion::kMinOutputCardinality,
                       options.estimator);
    if (!outcome.ok()) return outcome.status();
    result.plan = std::move(outcome->plan);
    return Status::OK();
  };

  for (size_t attempt = 0; attempt < ladder.size(); ++attempt) {
    const OptimizerTier tier = ladder[attempt];
    report.tiers_attempted = static_cast<int>(attempt) + 1;
    Status tier_status;
    switch (tier) {
      case OptimizerTier::kExhaustive:
        tier_status = run_exhaustive();
        break;
      case OptimizerTier::kHybrid:
        tier_status = run_hybrid();
        break;
      case OptimizerTier::kGreedy:
        tier_status = run_greedy();
        break;
    }
    if (tier_status.ok()) {
      result.tier = tier;
      break;
    }
    if (attempt + 1 == ladder.size() || !IsDegradable(tier_status)) {
      return tier_status;
    }
    report.degradations.push_back(
        StrFormat("%s: %s", OptimizerTierName(tier),
                  tier_status.ToString().c_str()));
    if (MetricsRegistry* metrics = GlobalMetrics()) {
      metrics->AddCounter("api.degradations");
    }
  }
  {
    PhaseTimer phase(options.collect_report, &report.evaluate_seconds);
    result.cost =
        EvaluateCost(result.plan, catalog, graph, options.cost_model);
  }
  if (options.attach_algorithms) {
    PhaseTimer phase(options.collect_report, &report.attach_seconds);
    TraceSpan attach_span("choose_algorithms", "api");
    ChooseAlgorithms(&result.plan, catalog, graph, options.cost_model);
  }

  span.AddArg("cost", result.cost);
  span.AddArg("passes", result.passes);
  span.AddArg("tier", static_cast<double>(result.tier));
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter("api.queries");
    metrics->AddCounter(result.exact() ? "api.exhaustive_queries"
                                       : "api.hybrid_queries");
    switch (result.tier) {
      case OptimizerTier::kExhaustive:
        metrics->AddCounter("api.tier_exhaustive");
        break;
      case OptimizerTier::kHybrid:
        metrics->AddCounter("api.tier_hybrid");
        break;
      case OptimizerTier::kGreedy:
        metrics->AddCounter("api.tier_greedy");
        break;
    }
    metrics->RecordLatency("api.query_seconds", total_timer.ElapsedSeconds());
    // Provenance labels: the facts a single --metrics-out artifact needs
    // to tell the whole story of the last query.
    metrics->SetLabel("api.simd_resolved", SimdLevelName(report.simd_level));
    metrics->SetLabel("api.tier", OptimizerTierName(result.tier));
    metrics->SetLabel("api.estimator", EstimatorKindName(report.estimator));
    std::string degradation_log;
    for (const std::string& step : report.degradations) {
      if (!degradation_log.empty()) degradation_log += "; ";
      degradation_log += step;
    }
    metrics->SetLabel("api.degradations", degradation_log);
  }
  if (options.collect_report) {
    report.total_seconds = total_timer.ElapsedSeconds();
    if (profile_requested) report.profile = dp_profile;
    result.report = std::move(report);
  }
  return result;
}

}  // namespace blitz
