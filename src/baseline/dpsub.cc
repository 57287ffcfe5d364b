#include "baseline/dpsub.h"

#include <bit>
#include <functional>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"

namespace blitz {

Result<DpSubResult> OptimizeDpSubNoProducts(const Catalog& catalog,
                                            const JoinGraph& graph,
                                            CostModelKind cost_model) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  if (!graph.IsConnected(RelSet::FirstN(n))) {
    return Status::FailedPrecondition(
        "join graph is disconnected: no product-free plan exists");
  }
  const std::uint64_t table_size = std::uint64_t{1} << n;

  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);
  std::vector<double> cards;
  FanoutComputeAllCardinalities(graph, base_cards, &cards);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(table_size, kInf);
  std::vector<std::uint64_t> best_lhs(table_size, 0);
  std::vector<bool> connected(table_size, false);

  for (int i = 0; i < n; ++i) {
    const std::uint64_t w = std::uint64_t{1} << i;
    cost[w] = 0.0;
    connected[w] = true;
  }

  DpSubResult result;
  for (std::uint64_t s = 3; s < table_size; ++s) {
    if ((s & (s - 1)) == 0) continue;
    if (!graph.IsConnected(RelSet::FromWord(s))) continue;
    connected[s] = true;
    double best = kInf;
    std::uint64_t best_split = 0;
    for (std::uint64_t lhs = s & (~s + 1); lhs != s; lhs = s & (lhs - s)) {
      ++result.loop_iterations;
      const std::uint64_t rhs = s ^ lhs;
      // Both halves must be connected; since S is connected, a split into
      // two connected halves always has at least one spanning predicate.
      if (!connected[lhs] || !connected[rhs]) continue;
      ++result.splits_costed;
      const double candidate =
          cost[lhs] + cost[rhs] +
          EvalJoinCost(cost_model, cards[s], cards[lhs], cards[rhs]);
      if (candidate < best) {
        best = candidate;
        best_split = lhs;
      }
    }
    cost[s] = best;
    best_lhs[s] = best_split;
  }

  const std::uint64_t full = table_size - 1;
  BLITZ_CHECK(cost[full] < kInf);

  std::function<Plan(std::uint64_t)> extract = [&](std::uint64_t s) {
    if ((s & (s - 1)) == 0) return Plan::Leaf(std::countr_zero(s));
    const std::uint64_t lhs = best_lhs[s];
    return Plan::Join(extract(lhs), extract(s ^ lhs));
  };
  result.plan = extract(full);
  result.cost = cost[full];
  return result;
}

}  // namespace blitz
