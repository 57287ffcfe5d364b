#include "baseline/leftdeep.h"

#include <bit>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"

namespace blitz {

Result<LeftDeepResult> OptimizeLeftDeep(const Catalog& catalog,
                                        const JoinGraph& graph,
                                        CostModelKind cost_model) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  const std::uint64_t table_size = std::uint64_t{1} << n;

  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);
  std::vector<double> cards;
  FanoutComputeAllCardinalities(graph, base_cards, &cards);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(table_size, kInf);
  // For each subset, the base relation joined last (-1 for singletons).
  std::vector<int> last_relation(table_size, -1);

  for (int i = 0; i < n; ++i) cost[std::uint64_t{1} << i] = 0.0;

  LeftDeepResult result;
  for (std::uint64_t s = 3; s < table_size; ++s) {
    if ((s & (s - 1)) == 0) continue;  // singleton
    double best = kInf;
    int best_last = -1;
    // A left-deep plan for S joins some base relation r last; the left
    // operand is the (left-deep) plan for S - {r}.
    std::uint64_t members = s;
    while (members != 0) {
      const int r = std::countr_zero(members);
      members &= members - 1;
      const std::uint64_t rhs = std::uint64_t{1} << r;
      const std::uint64_t lhs = s ^ rhs;
      ++result.joins_enumerated;
      const double candidate =
          cost[lhs] +
          EvalJoinCost(cost_model, cards[s], cards[lhs], base_cards[r]);
      if (candidate < best) {
        best = candidate;
        best_last = r;
      }
    }
    cost[s] = best;
    last_relation[s] = best_last;
  }

  // Rebuild the vine from the last_relation links.
  const std::uint64_t full = table_size - 1;
  std::vector<int> join_order;  // relations in reverse join order
  std::uint64_t s = full;
  while ((s & (s - 1)) != 0) {
    const int r = last_relation[s];
    BLITZ_CHECK(r >= 0);
    join_order.push_back(r);
    s ^= std::uint64_t{1} << r;
  }
  Plan plan = Plan::Leaf(std::countr_zero(s));
  for (auto it = join_order.rbegin(); it != join_order.rend(); ++it) {
    plan = Plan::Join(std::move(plan), Plan::Leaf(*it));
  }
  result.plan = std::move(plan);
  result.cost = cost[full];
  return result;
}

}  // namespace blitz
