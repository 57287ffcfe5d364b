#ifndef BLITZ_BASELINE_HYBRID_H_
#define BLITZ_BASELINE_HYBRID_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "plan/plan.h"
#include "query/join_graph.h"

namespace blitz {

/// Search knobs of the hybrid randomized/DP optimizer. The pass knobs (cost
/// model, budget, parallel, SIMD, estimator) come from OptimizeHybrid's
/// OptimizerOptions argument.
struct HybridOptions {
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

  /// Validates the search knobs (block_size in [2, kMaxRelations], at least
  /// one restart, non-negative polish budget); called by OptimizeHybrid
  /// before any work.
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
///
/// `pass` supplies the run-wide knobs. cost_model prices every block DP,
/// polish move and candidate plan. budget is resolved once at entry and
/// shared by every restart, block solve and polish loop (the memory cap
/// governs each block's DP table); on exhaustion the call returns
/// DeadlineExceeded / ResourceExhausted / Cancelled and leaves fallback to
/// OptimizeQuery's degradation ladder. A non-exact estimator supplies every
/// unit cardinality, unit-pair selectivity and candidate-plan cost, so
/// HybridResult::cost is then an estimated cost; null or exact keeps the
/// Section 5.1 unit statistics verbatim. The block solves take exactly
/// cost_model, the resolved budget, parallel and simd from `pass`.
Result<HybridResult> OptimizeHybrid(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    const OptimizerOptions& pass,
                                    const HybridOptions& search);

}  // namespace blitz

#endif  // BLITZ_BASELINE_HYBRID_H_
