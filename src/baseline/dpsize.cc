#include "baseline/dpsize.h"

#include <bit>
#include <functional>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"

namespace blitz {

Result<DpSizeResult> OptimizeDpSize(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    CostModelKind cost_model,
                                    const DpSizeOptions& options) {
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
  std::vector<std::uint64_t> best_lhs(table_size, 0);

  // Entries grouped by |S|; sets_by_size[k] lists the sets of size k that
  // have (so far) received a plan.
  std::vector<std::vector<std::uint64_t>> sets_by_size(n + 1);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t w = std::uint64_t{1} << i;
    cost[w] = 0.0;
    sets_by_size[1].push_back(w);
  }

  DpSizeResult result;
  for (int size = 2; size <= n; ++size) {
    for (int lhs_size = 1; lhs_size <= size - 1; ++lhs_size) {
      const int rhs_size = size - lhs_size;
      if (options.left_deep_only && rhs_size != 1) continue;
      for (const std::uint64_t lhs : sets_by_size[lhs_size]) {
        for (const std::uint64_t rhs : sets_by_size[rhs_size]) {
          ++result.pairs_examined;
          if ((lhs & rhs) != 0) continue;  // overlapping operands
          if (!options.allow_cartesian_products &&
              !graph.AnyEdgeSpans(RelSet::FromWord(lhs),
                                  RelSet::FromWord(rhs))) {
            continue;
          }
          ++result.pairs_costed;
          const std::uint64_t s = lhs | rhs;
          const double candidate =
              cost[lhs] + cost[rhs] +
              EvalJoinCost(cost_model, cards[s], cards[lhs], cards[rhs]);
          if (candidate < cost[s]) {
            if (cost[s] == kInf) sets_by_size[size].push_back(s);
            cost[s] = candidate;
            best_lhs[s] = lhs;
          }
        }
      }
    }
  }

  const std::uint64_t full = table_size - 1;
  if (!(cost[full] < kInf)) {
    return Status::FailedPrecondition(
        "no plan found (disconnected graph with products disallowed?)");
  }

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
