#ifndef BLITZ_CORE_OPTIMIZER_H_
#define BLITZ_CORE_OPTIMIZER_H_

#include <vector>

#include "card/estimator.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "core/dp_table.h"
#include "core/instrumentation.h"
#include "cost/cost_model.h"
#include "governor/budget.h"
#include "parallel/parallel_options.h"
#include "query/join_graph.h"
#include "simd/dispatch.h"

namespace blitz {

class DpTableArena;

/// Runtime-configurable options for one optimizer pass. Each distinct
/// (cost_model, nested_ifs, count_operations) combination dispatches to its
/// own compiled instantiation of the blitzsplit core.
struct OptimizerOptions {
  /// Which kappa to optimize under.
  CostModelKind cost_model = CostModelKind::kNaive;

  /// Section 4.2 nested-if short-circuiting (disable only for ablations).
  bool nested_ifs = true;

  /// Tally the operation counts of Section 3.3 / 6.2 (small overhead).
  bool count_operations = false;

  /// Section 6.4 plan-cost threshold for a single pass; plans costing this
  /// much or more are rejected. +infinity disables thresholding (leaving
  /// only genuine float overflow, Section 6.3).
  float cost_threshold = kRejectedCost;

  /// Resource limits for this pass (inactive by default). An armed memory
  /// cap is enforced by admission control before the 2^n DP table is
  /// allocated (ResourceExhausted); an armed deadline or cancellation token
  /// is checked cooperatively every GovernorState::kCheckStride subsets
  /// (DeadlineExceeded / Cancelled).
  ResourceBudget budget;

  /// Multicore configuration (sequential by default). With num_threads > 1
  /// the DP runs rank-synchronously — each cardinality rank sharded across
  /// a thread pool with one barrier per rank — producing a bit-identical
  /// table; see parallel/blitzsplit_ranked.h. Problems too small for any
  /// rank to reach parallel.min_parallel_rank keep the sequential driver.
  ParallelOptimizerOptions parallel;

  /// SIMD realization of the best-split filter (see simd/dispatch.h).
  /// kAuto (default) probes the CPU once, honors the BLITZ_SIMD
  /// environment override, and engages the batched kernel only for
  /// gate-tight cost models (kSplitGateTight — kappa'' = 0, where the
  /// batched operand gate is the complete comparison) on problems of at
  /// least kSimdMinAutoRelations relations (below that the dense-build
  /// overhead outruns the filter's win; see BENCH_fig2.json); a concrete
  /// level forces that kernel for any model and size (clamped to what the
  /// machine supports). Resolved once per pass; every kernel fills a
  /// bit-identical table, so this knob trades nothing but speed. Ignored
  /// by the flat nested_ifs = false ablation, which has no
  /// model-independent gate to batch.
  SimdLevel simd = SimdLevel::kAuto;

  /// Performance-observatory sink (obs/profiler/phase_profile.h). When
  /// non-null the pass runs the ProfilingInstrumentation policy — every
  /// tick attributed to a {phase, subset-size rank} bucket, plus SIMD
  /// survivor-rate tallies — and folds the result here and into the
  /// global Profiler (if one is installed). Costs ~2 rdtsc per split-loop
  /// kappa'' evaluation; null (the default) compiles the hooks out
  /// entirely. A profiled pass reports operation counts through the
  /// profile, not through OptimizeOutcome::counters, so count_operations
  /// is ignored while this is set.
  PassProfile* profile = nullptr;

  /// Cardinality estimator (card/estimator.h). Null — the default — and an
  /// exact estimator both run the fused Pi_fan recurrence over the
  /// catalog's cardinalities and the graph's selectivities, so the DP
  /// tables, tie-breaks, and operation counts are bit-identical to the
  /// paper's derivation. A non-exact estimator (hist, noest) preloads the
  /// card column from EstimateAll (CardSource::kPreloaded): no pi_fan
  /// column; threshold, SIMD, parallel and governor machinery unchanged.
  /// Must cover the catalog's relation count. Not owned; must outlive the
  /// pass. Ignored by OptimizeCartesian (no predicates to estimate over).
  const CardinalityEstimator* estimator = nullptr;

  /// DP-table pool (core/table_arena.h). When non-null the pass acquires
  /// its 2^n table from the arena instead of allocating — the serving
  /// tier's steady-state path. The pass hands the table out through
  /// OptimizeOutcome as usual; recycling it is the *caller's* job (the api
  /// layer releases it after plan extraction). Null (the default) keeps the
  /// paper's allocate-per-pass behavior. Not owned.
  DpTableArena* table_arena = nullptr;

  /// Canonical validation of every knob, including the nested parallel
  /// options; called by the optimizer entry points before a pass runs.
  Status Validate() const;
};

/// The result of one optimizer pass: the filled DP table (from which plans
/// are extracted — see plan/plan.h), the cost of the best overall plan, and
/// the operation counters (all zero unless count_operations was set).
struct OptimizeOutcome {
  DpTable table;
  float cost = kRejectedCost;
  CountingInstrumentation counters;

  /// The kernel the pass actually ran (options.simd resolved against the
  /// CPU and BLITZ_SIMD; kScalar when the flat ablation bypassed the
  /// blocked filter). Never kAuto.
  SimdLevel simd_level = SimdLevel::kScalar;

  /// The estimator the pass resolved cardinalities through (kPaperFanout
  /// when options.estimator was null — the built-in exact derivation).
  EstimatorKind estimator = EstimatorKind::kPaperFanout;

  /// False if every complete plan was rejected by the cost threshold (the
  /// "optimization fails ... reoptimize with a higher threshold" case of
  /// Section 6.4).
  bool found_plan() const { return cost < kRejectedCost; }
};

/// The concrete kernel level a pass with these options would run on a
/// problem of `num_relations` relations, without running it — what
/// OptimizeOutcome::simd_level will report: kScalar for the flat ablation,
/// for kAuto over a gate-loose model, and for kAuto below
/// kSimdMinAutoRelations; otherwise the resolved request (simd/dispatch.h).
SimdLevel EffectivePassSimdLevel(const OptimizerOptions& options,
                                 int num_relations);

/// Optimizes the join of all relations in `catalog` under the predicates of
/// `graph` (Section 5). The graph must have the same relation count as the
/// catalog.
Result<OptimizeOutcome> OptimizeJoin(const Catalog& catalog,
                                     const JoinGraph& graph,
                                     const OptimizerOptions& options);

/// Optimizes the pure Cartesian product of all relations in `catalog`
/// (Sections 3-4) — the predicate machinery is compiled out entirely.
Result<OptimizeOutcome> OptimizeCartesian(const Catalog& catalog,
                                          const OptimizerOptions& options);

/// Re-runs a pass in-place against an existing table (avoids reallocation
/// across the repetitions of a timing loop or the passes of a threshold
/// ladder). The table's columns must match the options and problem shape.
/// Requires the default/exact estimator (the in-place contract is defined
/// over pi_fan tables); a non-exact estimator is kFailedPrecondition. As
/// for OptimizeJoin, an estimator over another relation count is
/// kInvalidArgument.
Result<float> ReoptimizeJoinInPlace(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    const OptimizerOptions& options,
                                    DpTable* table,
                                    CountingInstrumentation* counters);

/// Configuration of the Section 6.4 multi-pass scheme: try the initial
/// threshold; on failure multiply it by growth_factor and re-optimize; after
/// max_thresholded_passes give up on thresholds and run one unbounded pass.
struct ThresholdLadderOptions {
  float initial_threshold = 1e9f;
  float growth_factor = 1e4f;
  int max_thresholded_passes = 8;
};

/// Outcome of a threshold-ladder optimization, with per-pass bookkeeping.
struct LadderOutcome {
  OptimizeOutcome outcome;               ///< From the final (successful) pass.
  std::vector<float> thresholds_tried;   ///< One per pass; +inf if unbounded.
  int passes = 0;
};

/// Runs OptimizeJoin under the Section 6.4 threshold ladder. The result is
/// always a found plan (the last-resort pass is unbounded), and its cost
/// equals the true optimum whenever the true optimum is below whichever
/// threshold succeeded.
Result<LadderOutcome> OptimizeJoinWithThresholds(
    const Catalog& catalog, const JoinGraph& graph,
    const OptimizerOptions& options, const ThresholdLadderOptions& ladder);

}  // namespace blitz

#endif  // BLITZ_CORE_OPTIMIZER_H_
