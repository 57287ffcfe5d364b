#include "baseline/topdown.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"

namespace blitz {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Group {
  double cost = kInf;          ///< Best plan found so far.
  double explored_limit = -1;  ///< Largest budget this group was explored
                               ///< under (-1: never explored).
  std::uint64_t best_lhs = 0;
};

struct Search {
  const JoinGraph* graph;
  CostModelKind cost_model;
  TopDownOptions options;
  std::vector<double> cards;
  std::vector<Group> memo;
  TopDownResult* result;

  /// Optimizes group `s` under the given cost budget: returns the cheapest
  /// plan cost found, which is proven optimal if it is below `limit`;
  /// otherwise only "no plan cheaper than `limit` exists" is established.
  double Solve(std::uint64_t s, double limit) {
    if ((s & (s - 1)) == 0) return 0.0;
    Group& group = memo[s];
    // A previous exploration either proved optimality (cost below its
    // budget) or established cost >= explored_limit; both make re-work
    // unnecessary when the new budget is no larger.
    if (group.explored_limit >= 0 &&
        (group.cost < group.explored_limit || limit <= group.explored_limit)) {
      return group.cost;
    }
    ++result->groups_explored;
    double budget = options.use_cost_bounds ? limit : kInf;
    for (std::uint64_t lhs = s & (~s + 1); lhs != s; lhs = s & (lhs - s)) {
      const std::uint64_t rhs = s ^ lhs;
      if (!options.allow_cartesian_products &&
          !graph->AnyEdgeSpans(RelSet::FromWord(lhs),
                               RelSet::FromWord(rhs))) {
        continue;
      }
      const double kappa =
          EvalJoinCost(cost_model, cards[s], cards[lhs], cards[rhs]);
      ++result->splits_costed;
      if (kappa >= budget) {
        ++result->splits_pruned;
        continue;
      }
      const double lhs_cost = Solve(lhs, budget - kappa);
      if (kappa + lhs_cost >= budget) {
        ++result->splits_pruned;
        continue;
      }
      const double rhs_cost = Solve(rhs, budget - kappa - lhs_cost);
      const double total = kappa + lhs_cost + rhs_cost;
      if (total < group.cost) {
        group.cost = total;
        group.best_lhs = lhs;
      }
      if (options.use_cost_bounds && group.cost < budget) {
        budget = group.cost;  // tighten the bound to the incumbent
      }
    }
    group.explored_limit = std::max(group.explored_limit, limit);
    return group.cost;
  }
};

}  // namespace

Result<TopDownResult> OptimizeTopDown(const Catalog& catalog,
                                      const JoinGraph& graph,
                                      CostModelKind cost_model,
                                      const TopDownOptions& options) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  const std::uint64_t table_size = std::uint64_t{1} << n;

  TopDownResult result;
  Search search;
  search.graph = &graph;
  search.cost_model = cost_model;
  search.options = options;
  search.memo.assign(table_size, Group{});
  search.result = &result;
  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);
  FanoutComputeAllCardinalities(graph, base_cards, &search.cards);

  const std::uint64_t full = table_size - 1;
  result.cost = search.Solve(full, kInf);
  if (!(result.cost < kInf)) {
    return Status::FailedPrecondition(
        "no plan found (disconnected graph with products disallowed?)");
  }

  std::function<Plan(std::uint64_t)> extract = [&](std::uint64_t s) {
    if ((s & (s - 1)) == 0) return Plan::Leaf(std::countr_zero(s));
    const std::uint64_t lhs = search.memo[s].best_lhs;
    BLITZ_CHECK(lhs != 0);
    return Plan::Join(extract(lhs), extract(s ^ lhs));
  };
  result.plan = extract(full);
  return result;
}

}  // namespace blitz
