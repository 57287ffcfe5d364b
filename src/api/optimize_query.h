#ifndef BLITZ_API_OPTIMIZE_QUERY_H_
#define BLITZ_API_OPTIMIZE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baseline/hybrid.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "cost/cost_model.h"
#include "parallel/parallel_options.h"
#include "plan/plan.h"
#include "query/join_graph.h"

namespace blitz {

class DpTableArena;

/// Which optimizer tier produced a query's plan. Tiers are ordered from
/// most to least thorough; the degradation ladder walks them downward when
/// the resource budget runs out.
enum class OptimizerTier {
  kExhaustive = 0,  ///< Full blitzsplit DP (exact optimum).
  kHybrid,          ///< Randomized block decomposition + per-block DP.
  kGreedy,          ///< O(n^3) greedy operator ordering (last resort).
};

/// Short lowercase name ("exhaustive", "hybrid", "greedy").
const char* OptimizerTierName(OptimizerTier tier);

/// One-call configuration for the top-level entry point.
///
/// Every knob is declared once. OptimizeQuery builds one OptimizerOptions
/// pass from the top-level knobs (nested ifs on, no single-pass threshold):
/// the exhaustive tier runs it, and the hybrid tier's block solves take its
/// cost_model, budget, parallel and simd (see OptimizeHybrid). `hybrid`
/// holds only the hybrid tier's search knobs.
struct QueryOptimizerOptions {
  CostModelKind cost_model = CostModelKind::kNaive;

  /// Largest n optimized exhaustively (O(3^n) time, O(2^n) space); larger
  /// queries fall back to the hybrid randomized/DP optimizer.
  int exhaustive_limit = 16;

  /// If set, exhaustive optimization runs under the Section 6.4 threshold
  /// ladder starting at this value.
  std::optional<float> initial_cost_threshold;

  /// Search knobs of the fallback for n > exhaustive_limit.
  HybridOptions hybrid;

  /// Multicore configuration shared by every tier's DP passes (sequential
  /// by default; see parallel/parallel_options.h).
  ParallelOptimizerOptions parallel;

  /// SIMD kernel request shared by every tier's DP passes (see
  /// simd/dispatch.h). kAuto probes the CPU and honors BLITZ_SIMD; the
  /// resolved per-pass choice is reported in OptimizeReport::simd_level.
  SimdLevel simd = SimdLevel::kAuto;

  /// Cardinality estimator shared by every tier (card/estimator.h). Null —
  /// the default — and an exact estimator resolve to the paper's Section
  /// 5.1 derivation: bit-identical DP tables, tie-breaks, and counters. A
  /// non-exact estimator (hist, noest) supplies every cardinality the
  /// tiers consume; OptimizedQuery::cost is still re-evaluated under the
  /// *true* statistics, so (cost under estimator plan) / (cost under exact
  /// plan) is the estimator's regret. The resolved name is reported in
  /// OptimizeReport::estimator. Not owned; must outlive the call.
  const CardinalityEstimator* estimator = nullptr;

  /// Attach physical join algorithms to the plan (Section 6.5 post-pass).
  bool attach_algorithms = true;

  /// Fill OptimizedQuery::report with per-phase wall times and optimizer
  /// bookkeeping (small constant overhead per query).
  bool collect_report = false;

  /// Tally the Section 3.3 / 6.2 operation counters into the report
  /// (requires collect_report; adds the counting-policy overhead to the
  /// exhaustive path).
  bool count_operations = false;

  /// Collect the performance observatory's per-phase, per-rank DP
  /// attribution into OptimizeReport::profile (requires collect_report;
  /// exhaustive tier only — see OptimizerOptions::profile for the cost and
  /// semantics). Takes precedence over count_operations on the DP passes.
  bool collect_profile = false;

  /// DP-table pool shared across calls (core/table_arena.h; null = allocate
  /// per call). The exhaustive tier acquires its 2^n table here and
  /// OptimizeQuery releases it back after plan extraction, so a long-lived
  /// caller (the blitzd serving tier) reuses buffers instead of churning
  /// the allocator. Memory admission control still runs against the
  /// budget's cap before acquisition. Not owned.
  DpTableArena* table_arena = nullptr;

  /// Resource limits (inactive by default; see governor/budget.h). The
  /// deadline and memory cap govern each tier attempt individually — the
  /// ladder bounds the number of attempts and the last-resort greedy tier
  /// is polynomial and ungoverned, so a governed call always terminates
  /// promptly, with or without degradation.
  ResourceBudget budget;

  /// Graceful degradation: when a tier exhausts the budget (deadline or
  /// memory cap), retry with the next cheaper tier (exhaustive -> hybrid ->
  /// greedy) instead of failing. Cancellation never degrades — a cancelled
  /// call returns kCancelled immediately. With degradation off the first
  /// tier's budget error is returned as-is.
  bool degrade_on_budget = true;

  /// Canonical validation of the whole option tree: the top-level knobs,
  /// ParallelOptimizerOptions::Validate(), and HybridOptions::Validate().
  Status Validate() const;
};

/// Per-query observability report (attached when collect_report is set).
/// Wall times are phase-exclusive: total_seconds covers the whole call,
/// the phase fields its non-overlapping stages.
struct OptimizeReport {
  double total_seconds = 0;
  double optimize_seconds = 0;   ///< DP passes or hybrid search.
  double extract_seconds = 0;    ///< Plan extraction from the DP table.
  double evaluate_seconds = 0;   ///< Independent cost re-evaluation.
  double attach_seconds = 0;     ///< Algorithm attachment post-pass.

  /// One entry per threshold-ladder pass (empty when no ladder ran);
  /// +inf marks the last-resort unbounded pass.
  std::vector<float> thresholds_tried;

  /// Section 3.3 / 6.2 operation counters (all zero unless
  /// count_operations was set; exhaustive path only).
  CountingInstrumentation counters;

  /// Peak DP-table footprint (0 on the hybrid path, which sizes its
  /// tables per block inside OptimizeJoin).
  std::uint64_t peak_dp_table_bytes = 0;

  /// The SIMD dispatch level the DP passes ran (options.simd resolved
  /// against the CPU and BLITZ_SIMD — the per-pass kernel choice; all
  /// passes of one call share it). Never kAuto.
  SimdLevel simd_level = SimdLevel::kScalar;

  /// The estimator the call resolved cardinalities through (kPaperFanout
  /// when options.estimator was null — the built-in exact derivation).
  EstimatorKind estimator = EstimatorKind::kPaperFanout;

  /// Tier attempts consumed (1 = no degradation).
  int tiers_attempted = 1;

  /// One human-readable entry per degradation step: the abandoned tier and
  /// the budget error that forced the step down.
  std::vector<std::string> degradations;

  /// Per-phase, per-rank DP attribution (engaged iff collect_profile was
  /// set and the exhaustive tier ran; ladder re-optimizations accumulate).
  std::optional<PassProfile> profile;
};

/// The result of OptimizeQuery. The tier that produced the plan lives here
/// (and only here — OptimizeReport carries timings and counters, not a
/// duplicate copy); exactness is derived from it.
struct OptimizedQuery {
  Plan plan;

  /// Double-precision cost of `plan` under the chosen model (re-evaluated
  /// by the independent plan evaluator, so it is comparable across the
  /// exhaustive and hybrid paths).
  double cost = 0;

  /// The tier that produced the plan (always set, report or not).
  OptimizerTier tier = OptimizerTier::kExhaustive;

  /// Optimizer passes (> 1 only when a threshold ladder re-optimized).
  int passes = 1;

  /// Observability report; engaged iff options.collect_report was set.
  std::optional<OptimizeReport> report;

  /// True when this result was answered from the serving tier's plan cache
  /// (src/serve/plancache.h) rather than a fresh optimizer run; `tier`
  /// still names the tier that originally produced the stored plan, so
  /// provenance survives reuse. OptimizeQuery itself always leaves this
  /// false.
  bool from_cache = false;

  /// True if the plan is a guaranteed optimum (exhaustive tier).
  bool exact() const { return tier == OptimizerTier::kExhaustive; }

  /// Human-readable summary of the tier, passes, and (when collected) the
  /// report's timings, counters, and degradation history.
  std::string ReportToString() const;
};

/// The library's front door: optimizes the join of all catalog relations
/// under `graph`, choosing exhaustive blitzsplit or the hybrid fallback by
/// problem size, applying the optional threshold ladder, enforcing the
/// resource budget (degrading exhaustive -> hybrid -> greedy on exhaustion
/// rather than failing), and attaching physical algorithms. This is the
/// call a downstream system embeds: under an armed budget it never hangs
/// and, with degradation on, always returns *some* plan — OptimizedQuery
/// and OptimizeReport name the tier that produced it.
Result<OptimizedQuery> OptimizeQuery(const Catalog& catalog,
                                     const JoinGraph& graph,
                                     const QueryOptimizerOptions& options);

}  // namespace blitz

#endif  // BLITZ_API_OPTIMIZE_QUERY_H_
