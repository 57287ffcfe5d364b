#ifndef BLITZ_BASELINE_BRUTEFORCE_H_
#define BLITZ_BASELINE_BRUTEFORCE_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/plan.h"
#include "query/join_graph.h"

namespace blitz {

/// Result of a brute-force optimization.
struct BruteForceResult {
  Plan plan;
  double cost = 0;
};

/// Reference optimizer for tests: memoized recursion over every split of
/// every subset, with cardinalities computed directly from the
/// induced-subgraph definition (FanoutJoinCardinality) rather than the
/// Pi_fan recurrences, and costs accumulated in double precision. Shares no
/// arithmetic shortcuts with the blitzsplit core, which is the point.
/// Limited to n <= 16 relations.
Result<BruteForceResult> OptimizeBruteForce(const Catalog& catalog,
                                            const JoinGraph& graph,
                                            CostModelKind cost_model);

}  // namespace blitz

#endif  // BLITZ_BASELINE_BRUTEFORCE_H_
