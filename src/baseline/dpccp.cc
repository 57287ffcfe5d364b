#include "baseline/dpccp.h"

#include <bit>
#include <functional>
#include <limits>
#include <vector>

#include "card/fanout.h"
#include "common/check.h"

namespace blitz {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// DPccp state: the memo plus the graph walked as bit-masks.
struct Search {
  const JoinGraph* graph;
  CostModelKind cost_model;
  int n;
  std::vector<double> cards;
  std::vector<double> cost;
  std::vector<std::uint64_t> best_lhs;
  std::uint64_t ccp_pairs = 0;

  std::uint64_t Neighborhood(std::uint64_t s) const {
    std::uint64_t out = 0;
    std::uint64_t w = s;
    while (w != 0) {
      out |= graph->Neighbors(std::countr_zero(w)).word();
      w &= w - 1;
    }
    return out & ~s;
  }

  /// B_i = {0, ..., i}.
  static std::uint64_t Bset(int i) {
    return (std::uint64_t{1} << (i + 1)) - 1;
  }

  void EmitPair(std::uint64_t s1, std::uint64_t s2) {
    ++ccp_pairs;
    const std::uint64_t s = s1 | s2;
    // Both operand entries are final here (DPccp emits pairs in an order
    // compatible with bottom-up DP); cost both orientations.
    BLITZ_DCHECK(cost[s1] < kInf && cost[s2] < kInf);
    const double base = cost[s1] + cost[s2];
    const double forward =
        base + EvalJoinCost(cost_model, cards[s], cards[s1], cards[s2]);
    if (forward < cost[s]) {
      cost[s] = forward;
      best_lhs[s] = s1;
    }
    const double backward =
        base + EvalJoinCost(cost_model, cards[s], cards[s2], cards[s1]);
    if (backward < cost[s]) {
      cost[s] = backward;
      best_lhs[s] = s2;
    }
  }

  void EnumerateCmpRec(std::uint64_t s1, std::uint64_t s2, std::uint64_t x) {
    const std::uint64_t neighborhood = Neighborhood(s2) & ~x;
    if (neighborhood == 0) return;
    // Emit S2 grown by every nonempty subset of the neighborhood, then
    // recurse on each growth with the neighborhood excluded.
    for (std::uint64_t sub = neighborhood & (~neighborhood + 1);;
         sub = neighborhood & (sub - neighborhood)) {
      EmitPair(s1, s2 | sub);
      if (sub == neighborhood) break;
    }
    for (std::uint64_t sub = neighborhood & (~neighborhood + 1);;
         sub = neighborhood & (sub - neighborhood)) {
      EnumerateCmpRec(s1, s2 | sub, x | neighborhood);
      if (sub == neighborhood) break;
    }
  }

  /// Emits every connected complement for the connected subgraph s1.
  void EmitCsg(std::uint64_t s1) {
    const int min_s1 = std::countr_zero(s1);
    const std::uint64_t x = Bset(min_s1) | s1;
    const std::uint64_t neighborhood = Neighborhood(s1) & ~x;
    // Descending start nodes, as in the published algorithm.
    std::uint64_t w = neighborhood;
    while (w != 0) {
      const int i = 63 - std::countl_zero(w);
      w &= ~(std::uint64_t{1} << i);
      const std::uint64_t s2 = std::uint64_t{1} << i;
      EmitPair(s1, s2);
      EnumerateCmpRec(s1, s2, x | (Bset(i) & neighborhood));
    }
  }

  void EnumerateCsgRec(std::uint64_t s1, std::uint64_t x) {
    const std::uint64_t neighborhood = Neighborhood(s1) & ~x;
    if (neighborhood == 0) return;
    for (std::uint64_t sub = neighborhood & (~neighborhood + 1);;
         sub = neighborhood & (sub - neighborhood)) {
      EmitCsg(s1 | sub);
      if (sub == neighborhood) break;
    }
    for (std::uint64_t sub = neighborhood & (~neighborhood + 1);;
         sub = neighborhood & (sub - neighborhood)) {
      EnumerateCsgRec(s1 | sub, x | neighborhood);
      if (sub == neighborhood) break;
    }
  }

  void Run() {
    for (int i = n - 1; i >= 0; --i) {
      const std::uint64_t s1 = std::uint64_t{1} << i;
      EmitCsg(s1);
      EnumerateCsgRec(s1, Bset(i));
    }
  }
};

}  // namespace

Result<DpCcpResult> OptimizeDpCcp(const Catalog& catalog,
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

  Search search;
  search.graph = &graph;
  search.cost_model = cost_model;
  search.n = n;
  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);
  FanoutComputeAllCardinalities(graph, base_cards, &search.cards);
  search.cost.assign(table_size, kInf);
  search.best_lhs.assign(table_size, 0);
  for (int i = 0; i < n; ++i) {
    search.cost[std::uint64_t{1} << i] = 0.0;
  }
  search.Run();

  const std::uint64_t full = table_size - 1;
  if (!(search.cost[full] < kInf)) {
    return Status::Internal("DPccp failed to cover the full relation set");
  }

  std::function<Plan(std::uint64_t)> extract = [&](std::uint64_t s) {
    if ((s & (s - 1)) == 0) return Plan::Leaf(std::countr_zero(s));
    const std::uint64_t lhs = search.best_lhs[s];
    return Plan::Join(extract(lhs), extract(s ^ lhs));
  };
  DpCcpResult result;
  result.plan = extract(full);
  result.cost = search.cost[full];
  result.ccp_pairs = search.ccp_pairs;
  return result;
}

}  // namespace blitz
