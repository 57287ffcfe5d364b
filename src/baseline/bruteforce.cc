#include "baseline/bruteforce.h"

#include <bit>
#include <functional>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"
#include "core/subset_enum.h"

namespace blitz {

Result<BruteForceResult> OptimizeBruteForce(const Catalog& catalog,
                                            const JoinGraph& graph,
                                            CostModelKind cost_model) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  if (n > 16) {
    return Status::InvalidArgument("brute force limited to n <= 16");
  }
  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);

  const std::uint64_t table_size = std::uint64_t{1} << n;
  constexpr double kUnset = -1.0;
  std::vector<double> memo_cost(table_size, kUnset);
  std::vector<std::uint64_t> memo_lhs(table_size, 0);

  std::function<double(std::uint64_t)> solve = [&](std::uint64_t s) -> double {
    if ((s & (s - 1)) == 0) return 0.0;
    if (memo_cost[s] != kUnset) return memo_cost[s];
    const double out_card =
        FanoutJoinCardinality(graph, RelSet::FromWord(s), base_cards);
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t best_split = 0;
    for (std::uint64_t lhs = s & (~s + 1); lhs != s; lhs = s & (lhs - s)) {
      const std::uint64_t rhs = s ^ lhs;
      const double lhs_card =
          FanoutJoinCardinality(graph, RelSet::FromWord(lhs), base_cards);
      const double rhs_card =
          FanoutJoinCardinality(graph, RelSet::FromWord(rhs), base_cards);
      const double candidate =
          solve(lhs) + solve(rhs) +
          EvalJoinCost(cost_model, out_card, lhs_card, rhs_card);
      if (candidate < best) {
        best = candidate;
        best_split = lhs;
      }
    }
    memo_cost[s] = best;
    memo_lhs[s] = best_split;
    return best;
  };

  const std::uint64_t full = table_size - 1;
  BruteForceResult result;
  result.cost = solve(full);

  std::function<Plan(std::uint64_t)> extract = [&](std::uint64_t s) {
    if ((s & (s - 1)) == 0) return Plan::Leaf(std::countr_zero(s));
    const std::uint64_t lhs = memo_lhs[s];
    return Plan::Join(extract(lhs), extract(s ^ lhs));
  };
  result.plan = extract(full);
  return result;
}

}  // namespace blitz
