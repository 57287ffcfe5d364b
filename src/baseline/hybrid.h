#ifndef BLITZ_BASELINE_HYBRID_H_
#define BLITZ_BASELINE_HYBRID_H_

#include <cstdint>

#include "card/estimator.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "governor/budget.h"
#include "parallel/parallel_options.h"
#include "plan/plan.h"
#include "query/join_graph.h"
#include "simd/dispatch.h"

namespace blitz {

/// Options for the hybrid randomized/DP optimizer.
struct HybridOptions {
  CostModelKind cost_model = CostModelKind::kNaive;

  /// Maximum relations handed to one exact blitzsplit invocation. The
  /// per-round cost is O(3^block_size); 10-14 is a good range.
  int block_size = 12;

  /// Independent restarts with different random block decompositions; the
  /// cheapest overall plan wins.
  int restarts = 4;

  std::uint64_t seed = 1;

  /// Polish each restart's plan with a short iterative-improvement run.
  bool polish = true;
  int polish_moves = 2000;

  /// Also evaluate a greedy-operator-ordering plan (polished like the
  /// restarts) as one more candidate, so the hybrid never loses to the
  /// plain greedy heuristic.
  bool seed_with_greedy = true;

  /// Resource limits for the whole hybrid run (inactive by default). The
  /// deadline is resolved once at entry and shared by every restart, block
  /// solve, and polish loop; the memory cap governs each block's DP table.
  /// On exhaustion the call returns DeadlineExceeded / ResourceExhausted /
  /// Cancelled — it does not fall back itself (OptimizeQuery's degradation
  /// ladder owns that policy).
  ResourceBudget budget;

  /// Multicore configuration forwarded to every exact block solve; blocks
  /// of the default size stay sequential (see ParallelOptimizerOptions).
  ParallelOptimizerOptions parallel;

  /// SIMD kernel request forwarded to every exact block solve (see
  /// simd/dispatch.h; kAuto = cpuid probe + BLITZ_SIMD override).
  SimdLevel simd = SimdLevel::kAuto;

  /// Cardinality estimator (card/estimator.h). Null or exact keeps the
  /// Section 5.1 unit statistics (FanoutJoinCardinality / PiSpan) verbatim. A
  /// non-exact estimator supplies every unit cardinality, unit-pair
  /// selectivity, and candidate-plan cost the search consumes — the block
  /// DPs then run exactly over those *estimated* unit statistics, and
  /// HybridResult::cost is the estimated cost of the winner (re-evaluate
  /// under the true model to measure regret). Not owned; must outlive the
  /// call.
  const CardinalityEstimator* estimator = nullptr;

  /// Canonical validation of every knob (block_size in [2, kMaxRelations],
  /// at least one restart, non-negative polish budget, valid parallel
  /// options); called by OptimizeHybrid before any work.
  Status Validate() const;
};

/// Result of a hybrid optimization.
struct HybridResult {
  Plan plan;
  double cost = 0;
  int dp_invocations = 0;  ///< Exact DP solves performed across restarts.
};

/// Hybrid join-order optimizer for queries too large for one exhaustive
/// blitzsplit run — the direction Section 7 of the paper announces ("We are
/// currently experimenting with a hybrid method ... combines dynamic
/// programming with randomized search", inspired by Chained Local
/// Optimization [MO]).
///
/// Strategy: treat each base relation as a unit; repeatedly gather a block
/// of up to block_size connectivity-adjacent units (seeded at random, grown
/// BFS-style through the unit-level join graph), solve the block *exactly*
/// with blitzsplit over unit-level statistics (unit cardinality = join
/// cardinality of its base set; unit-pair selectivity = Pi_span of their
/// base sets), and fuse the block into one unit carrying the composed plan.
/// Rounds repeat until one unit remains. Randomized restarts explore
/// different decompositions, and an optional iterative-improvement polish
/// pass cleans up block-boundary artifacts.
///
/// For num_relations <= block_size this reduces to a single exact
/// blitzsplit run. Unlike the exhaustive optimizer, results for larger
/// inputs are not guaranteed optimal.
Result<HybridResult> OptimizeHybrid(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    const HybridOptions& options);

}  // namespace blitz

#endif  // BLITZ_BASELINE_HYBRID_H_
