#include "core/optimizer.h"

#include <cmath>
#include <utility>

#include "common/strings.h"
#include "core/blitzsplit.h"
#include "core/table_arena.h"
#include "governor/faultpoints.h"
#include "governor/governor.h"
#include "obs/metrics.h"
#include "obs/profiler/profiler.h"
#include "obs/trace.h"
#include "parallel/blitzsplit_ranked.h"

namespace blitz {

namespace {

/// Tallies a governor abort into the metrics registry and returns the
/// abort status for propagation.
Status RecordGovernorAbort(Status status) {
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    switch (status.code()) {
      case StatusCode::kDeadlineExceeded:
        metrics->AddCounter("governor.deadline_exceeded");
        break;
      case StatusCode::kCancelled:
        metrics->AddCounter("governor.cancelled");
        break;
      case StatusCode::kResourceExhausted:
        metrics->AddCounter("governor.admission_rejected");
        break;
      default:
        metrics->AddCounter("governor.aborts");
        break;
    }
  }
  return status;
}

/// Folds one pass's operation counters into the global metrics registry
/// (no-op unless a registry is installed and counting was requested).
void FoldCountersIntoMetrics(const CountingInstrumentation& counters) {
  MetricsRegistry* metrics = GlobalMetrics();
  if (metrics == nullptr) return;
  metrics->AddCounter("optimizer.subsets_visited", counters.subsets_visited);
  metrics->AddCounter("optimizer.loop_iterations", counters.loop_iterations);
  metrics->AddCounter("optimizer.operand_passes", counters.operand_passes);
  metrics->AddCounter("optimizer.kappa2_evaluations",
                      counters.kappa2_evaluations);
  metrics->AddCounter("optimizer.improvements", counters.improvements);
  metrics->AddCounter("optimizer.threshold_skips", counters.threshold_skips);
}

std::vector<double> BaseCards(const Catalog& catalog) {
  std::vector<double> cards(catalog.num_relations());
  for (int i = 0; i < catalog.num_relations(); ++i) {
    cards[i] = catalog.cardinality(i);
  }
  return cards;
}

/// Whether the model's kappa'' is identically zero, making the batched
/// operand gate the complete cost comparison (kSplitGateTight in
/// cost/cost_model.h).
bool ModelGateTight(CostModelKind kind) {
  return DispatchCostModel(kind, [](auto model) {
    return decltype(model)::kSplitGateTight;
  });
}

/// Resolves the pass's SIMD kernel exactly once: cpuid probe plus the
/// BLITZ_SIMD / options.simd override (simd/dispatch.h), folded into a
/// build/filter pair every driver and worker of the pass shares. The flat
/// nested_ifs = false ablation has no model-independent gate to batch, so
/// it reports (and runs) kScalar regardless of the request. An auto-chosen
/// level additionally engages only for gate-tight models (kappa'' = 0) —
/// elsewhere the filter passes nearly every split and batching is pure
/// overhead — and only for problems of at least kSimdMinAutoRelations
/// relations, where the dense build amortizes (BENCH_fig2.json measured
/// sub-1x auto speedups at n = 5-11). An explicit --simd= / BLITZ_SIMD
/// request is always honored so ablations and benchmarks can measure any
/// combination.
SimdLevel ResolvePassSimd(const OptimizerOptions& options, int num_relations,
                          const SplitKernel** split_kernel) {
  if (!options.nested_ifs) {
    *split_kernel = nullptr;
    return SimdLevel::kScalar;
  }
  const SimdResolution res = ResolveSimdLevelDetailed(options.simd);
  if (res.from_auto && (!ModelGateTight(options.cost_model) ||
                        num_relations < kSimdMinAutoRelations)) {
    *split_kernel = nullptr;
    return SimdLevel::kScalar;
  }
  *split_kernel = GetSplitKernel(res.level);
  return res.level;
}

/// Tallies the per-pass kernel choice (one counter per dispatch level).
void RecordSimdMetric(SimdLevel resolved) {
  MetricsRegistry* metrics = GlobalMetrics();
  if (metrics == nullptr) return;
  switch (resolved) {
    case SimdLevel::kAvx512:
      metrics->AddCounter("optimizer.simd_avx512_passes");
      break;
    case SimdLevel::kAvx2:
      metrics->AddCounter("optimizer.simd_avx2_passes");
      break;
    case SimdLevel::kBlock:
      metrics->AddCounter("optimizer.simd_block_passes");
      break;
    default:
      metrics->AddCounter("optimizer.simd_scalar_passes");
      break;
  }
}

/// Runs one pass on the blitzsplit instantiation the runtime options
/// select. The instrumentation policy (profile / count / none) and the
/// nested_ifs ablation are chosen here, once; whether the pass runs
/// sequentially or rank-parallel is RunBlitzSplitRanked's decision.
/// `cards` and `graph` follow RunBlitzSplit's contract for kCards;
/// `resolved` is options.budget pinned via Resolved() so the parallel
/// workers' per-thread governors share the caller's clock. Returns the
/// pass's resolved SIMD level through *simd_level (never kAuto).
template <CardSource kCards>
float Dispatch(const OptimizerOptions& options,
               const ResourceBudget& resolved,
               const std::vector<double>& cards, const JoinGraph* graph,
               DpTable* table, CountingInstrumentation* counters,
               GovernorState* governor, SimdLevel* simd_level) {
  const SplitKernel* split_kernel = nullptr;
  *simd_level =
      ResolvePassSimd(options, table->num_relations(), &split_kernel);
  RecordSimdMetric(*simd_level);
  return DispatchCostModel(options.cost_model, [&](auto model) -> float {
    using Model = decltype(model);
    const auto run = [&](auto* instr) -> float {
      if (options.nested_ifs) {
        return RunBlitzSplitRanked<Model, kCards, true>(
            model, cards, graph, options.cost_threshold, table, instr,
            options.parallel, resolved, governor, split_kernel);
      }
      return RunBlitzSplitRanked<Model, kCards, false>(
          model, cards, graph, options.cost_threshold, table, instr,
          options.parallel, resolved, governor, split_kernel);
    };
    if (options.profile != nullptr) {
      // Performance-observatory pass: phase/rank tick attribution plus
      // survivor tallies, folded into the caller's sink and the global
      // profiler. Takes precedence over count_operations (the profile
      // carries the loop/kappa'' counts itself).
      ProfilingInstrumentation instr;
      const float cost = run(&instr);
      *options.profile += instr.profile;
      if (Profiler* profiler = GlobalProfiler()) {
        profiler->FoldPass(instr.profile);
      }
      return cost;
    }
    if (options.count_operations) {
      CountingInstrumentation instr;
      const float cost = run(&instr);
      *counters += instr;
      return cost;
    }
    NoInstrumentation no_instr;
    return run(&no_instr);
  });
}

/// Shared entry gate for the three governed entry points: fault injection
/// (kFaultOptimizePass, kFailStatus only), then an immediate governor check
/// so an already-expired deadline or pre-cancelled token fails fast even
/// for problems too small to reach an amortized in-loop check.
Status AdmitPass(GovernorState* governor) {
  if (std::optional<FaultSpec> fault = FaultHit(kFaultOptimizePass)) {
    if (fault->kind == FaultKind::kFailStatus) {
      return RecordGovernorAbort(fault->status);
    }
  }
  if (governor->active() && governor->CheckNow()) {
    return RecordGovernorAbort(governor->status());
  }
  return Status::OK();
}

bool ModelNeedsAux(CostModelKind kind) {
  return DispatchCostModel(kind, [](auto model) {
    return decltype(model)::kNeedsAux;
  });
}

/// True when the pass resolves cardinalities through the built-in exact
/// derivation: no estimator handle, or an exact one (PaperFanoutEstimator).
/// Exact passes ride the fused Pi_fan hot path untouched.
bool UsesExactCards(const OptimizerOptions& options) {
  return options.estimator == nullptr || options.estimator->exact();
}

EstimatorKind ResolvedEstimatorKind(const OptimizerOptions& options) {
  return options.estimator != nullptr ? options.estimator->kind()
                                      : EstimatorKind::kPaperFanout;
}

Status ValidateEstimator(const OptimizerOptions& options, int num_relations) {
  if (options.estimator != nullptr &&
      options.estimator->num_relations() != num_relations) {
    return Status::InvalidArgument(StrFormat(
        "estimator covers %d relations but the problem has %d",
        options.estimator->num_relations(), num_relations));
  }
  return Status::OK();
}

/// What tells the three entry points' passes apart.
struct PassSpec {
  const char* span_name;
  const char* calls_metric;
  const char* seconds_metric;
  const JoinGraph* graph;  ///< Null for the pure Cartesian product.
  DpTable* in_place;       ///< The caller's table to refill; null acquires.
};

/// The one pass runner behind OptimizeJoin, OptimizeCartesian and
/// ReoptimizeJoinInPlace. In order: validate, span, resolve the budget,
/// AdmitPass, admit and acquire the table (skipped in place), pick the
/// card source, dispatch, check for an abort, record metrics. An in-place
/// pass leaves outcome.table empty; its rows are in *spec.in_place.
Result<OptimizeOutcome> RunPass(const PassSpec& spec, const Catalog& catalog,
                                const OptimizerOptions& options) {
  const int n = catalog.num_relations();
  BLITZ_RETURN_IF_ERROR(options.Validate());
  if (spec.graph != nullptr) {
    if (spec.graph->num_relations() != n) {
      return Status::InvalidArgument(
          StrFormat("graph has %d relations but catalog has %d",
                    spec.graph->num_relations(), n));
    }
    // OptimizeCartesian has no predicates to estimate over, so only join
    // passes consult (and validate) the estimator.
    BLITZ_RETURN_IF_ERROR(ValidateEstimator(options, n));
  }
  const CardSource source = spec.graph == nullptr ? CardSource::kProduct
                            : UsesExactCards(options) ? CardSource::kFanout
                                                      : CardSource::kPreloaded;
  const bool with_pi_fan = source == CardSource::kFanout;
  const bool needs_aux = ModelNeedsAux(options.cost_model);
  if (spec.in_place != nullptr) {
    if (spec.in_place->num_relations() != n) {
      return Status::InvalidArgument("relation-count mismatch");
    }
    if (!spec.in_place->has_pi_fan() ||
        spec.in_place->has_aux() != needs_aux) {
      return Status::FailedPrecondition(
          "table columns do not match the requested configuration");
    }
    if (!with_pi_fan) {
      return Status::FailedPrecondition(
          "in-place reoptimization requires the exact (paper) estimator");
    }
  }

  const MetricTimer timer;
  TraceSpan span(spec.span_name);
  span.AddArg("n", n);
  span.AddArg("threshold", options.cost_threshold);
  // Resolve the budget once so the pass governor and every parallel
  // worker's governor share one absolute deadline.
  const ResourceBudget resolved = options.budget.Resolved();
  GovernorState governor(resolved);
  BLITZ_RETURN_IF_ERROR(AdmitPass(&governor));

  OptimizeOutcome outcome;
  DpTable* table = spec.in_place;
  if (table == nullptr) {
    if (governor.active()) {
      Status admitted = governor.AdmitAllocation(
          DpTable::EstimateBytes(n, with_pi_fan, needs_aux));
      if (!admitted.ok()) return RecordGovernorAbort(std::move(admitted));
    }
    Result<DpTable> acquired =
        options.table_arena != nullptr
            ? options.table_arena->Acquire(n, with_pi_fan, needs_aux)
            : DpTable::Create(n, with_pi_fan, needs_aux);
    if (!acquired.ok()) return acquired.status();
    outcome.table = std::move(acquired).value();
    table = &outcome.table;
  }
  if (spec.graph != nullptr) outcome.estimator = ResolvedEstimatorKind(options);

  // Exact passes fuse the Pi_fan recurrence into the DP; non-exact passes
  // preload the card column from the estimator instead.
  GovernorState* const pass_governor =
      governor.active() ? &governor : nullptr;
  switch (source) {
    case CardSource::kProduct:
      outcome.cost = Dispatch<CardSource::kProduct>(
          options, resolved, BaseCards(catalog), nullptr, table,
          &outcome.counters, pass_governor, &outcome.simd_level);
      break;
    case CardSource::kFanout:
      outcome.cost = Dispatch<CardSource::kFanout>(
          options, resolved, BaseCards(catalog), spec.graph, table,
          &outcome.counters, pass_governor, &outcome.simd_level);
      break;
    case CardSource::kPreloaded: {
      std::vector<double> all_cards;
      options.estimator->EstimateAll(&all_cards);
      outcome.cost = Dispatch<CardSource::kPreloaded>(
          options, resolved, all_cards, nullptr, table, &outcome.counters,
          pass_governor, &outcome.simd_level);
      break;
    }
  }
  // A governed abort leaves the table partially overwritten, which is safe
  // to reuse in place: whether a pass runs sequentially (integer order) or
  // rank-parallel (every rank rewritten before the next is read), the next
  // pass rewrites every row before depending on it.
  if (governor.aborted()) return RecordGovernorAbort(governor.status());
  span.AddArg("cost", outcome.cost);
  span.AddArg("simd", static_cast<double>(outcome.simd_level));
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter(spec.calls_metric);
    if (spec.in_place == nullptr) {
      metrics->MaxGauge("optimizer.peak_dp_table_bytes",
                        static_cast<double>(table->MemoryBytes()));
    }
    metrics->RecordLatency(spec.seconds_metric, timer.ElapsedSeconds());
    if (options.count_operations) FoldCountersIntoMetrics(outcome.counters);
  }
  return outcome;
}

}  // namespace

SimdLevel EffectivePassSimdLevel(const OptimizerOptions& options,
                                 int num_relations) {
  const SplitKernel* ignored = nullptr;
  return ResolvePassSimd(options, num_relations, &ignored);
}

Status OptimizerOptions::Validate() const {
  if (std::isnan(cost_threshold) || cost_threshold <= 0.0f) {
    return Status::InvalidArgument(
        "cost_threshold must be positive (use kRejectedCost to disable)");
  }
  return parallel.Validate();
}

Result<OptimizeOutcome> OptimizeJoin(const Catalog& catalog,
                                     const JoinGraph& graph,
                                     const OptimizerOptions& options) {
  return RunPass({"OptimizeJoin", "optimizer.join_calls",
                  "optimizer.join_seconds", &graph, nullptr},
                 catalog, options);
}

Result<OptimizeOutcome> OptimizeCartesian(const Catalog& catalog,
                                          const OptimizerOptions& options) {
  return RunPass({"OptimizeCartesian", "optimizer.cartesian_calls",
                  "optimizer.cartesian_seconds", nullptr, nullptr},
                 catalog, options);
}

Result<float> ReoptimizeJoinInPlace(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    const OptimizerOptions& options,
                                    DpTable* table,
                                    CountingInstrumentation* counters) {
  Result<OptimizeOutcome> outcome =
      RunPass({"ReoptimizeJoinInPlace", "optimizer.reoptimize_calls",
               "optimizer.join_seconds", &graph, table},
              catalog, options);
  if (!outcome.ok()) return outcome.status();
  // `counters` accumulates across calls; the pass reports only its own.
  if (counters != nullptr) *counters += outcome->counters;
  return outcome->cost;
}

Result<LadderOutcome> OptimizeJoinWithThresholds(
    const Catalog& catalog, const JoinGraph& graph,
    const OptimizerOptions& options, const ThresholdLadderOptions& ladder) {
  if (!(ladder.initial_threshold > 0) || !(ladder.growth_factor > 1)) {
    return Status::InvalidArgument(
        "threshold ladder requires positive threshold and growth factor > 1");
  }
  const MetricTimer timer;
  TraceSpan ladder_span("OptimizeJoinWithThresholds");
  ladder_span.AddArg("n", catalog.num_relations());
  LadderOutcome result;
  OptimizerOptions pass_options = options;
  pass_options.cost_threshold = ladder.initial_threshold;
  // Pin the deadline to an absolute time point so every ladder pass shares
  // one clock — a re-optimization must not grant itself a fresh allowance.
  pass_options.budget = options.budget.Resolved();
  const auto finish = [&](LadderOutcome finished) {
    ladder_span.AddArg("passes", finished.passes);
    if (MetricsRegistry* metrics = GlobalMetrics()) {
      metrics->AddCounter("optimizer.ladder_calls");
      metrics->AddCounter("optimizer.ladder_passes",
                          static_cast<std::uint64_t>(finished.passes));
      metrics->RecordLatency("optimizer.ladder_seconds",
                             timer.ElapsedSeconds());
    }
    return finished;
  };
  for (int pass = 0; pass < ladder.max_thresholded_passes; ++pass) {
    TraceSpan pass_span("ladder_pass");
    pass_span.AddArg("pass", pass);
    pass_span.AddArg("threshold", pass_options.cost_threshold);
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(catalog, graph, pass_options);
    if (!outcome.ok()) return outcome.status();
    result.thresholds_tried.push_back(pass_options.cost_threshold);
    ++result.passes;
    pass_span.AddArg("found_plan", outcome->found_plan() ? 1 : 0);
    if (outcome->found_plan()) {
      result.outcome = std::move(outcome).value();
      return finish(std::move(result));
    }
    pass_options.cost_threshold *= ladder.growth_factor;
    // Once the threshold stops being representable there is no point in
    // another thresholded pass.
    if (!(pass_options.cost_threshold < kRejectedCost)) break;
  }
  // Last resort: unbounded pass (Section 6.3 overflow rejection only).
  pass_options.cost_threshold = kRejectedCost;
  TraceSpan pass_span("ladder_pass");
  pass_span.AddArg("pass", result.passes);
  pass_span.AddArg("threshold", pass_options.cost_threshold);
  Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, pass_options);
  if (!outcome.ok()) return outcome.status();
  result.thresholds_tried.push_back(kRejectedCost);
  ++result.passes;
  pass_span.AddArg("found_plan", 1);
  result.outcome = std::move(outcome).value();
  return finish(std::move(result));
}

}  // namespace blitz
