#include "api/interesting_orders.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "card/fanout.h"
#include "common/check.h"
#include "common/strings.h"
#include "core/dp_table.h"
#include "core/relset.h"

namespace blitz {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The per-input sort term of kappa_sm: x(1 + log x), clamped like the
/// plain model.
double SortCost(double card) {
  const double x = std::max(card, 1.0);
  return x * (1.0 + std::log(x));
}

/// The merge-scan term when the input is already sorted on the key.
double ScanCost(double card) { return std::max(card, 1.0); }

/// One DP cell's provenance, enough to rebuild the plan.
struct Choice {
  std::uint32_t lhs = 0;    ///< Left operand's subset word.
  std::int16_t pred = -1;   ///< Merge predicate id, or -1 for a product.
  std::int8_t lhs_order = 0;  ///< Order index consumed from the left child.
  std::int8_t rhs_order = 0;  ///< Order index consumed from the right child.
};

struct DpState {
  int n = 0;
  int num_orders = 1;  ///< 1 + number of attribute classes.
  std::uint64_t table_size = 0;
  // cost[order * table_size + set], likewise choice.
  std::vector<float> cost;
  std::vector<Choice> choice;
  std::vector<double> cards;

  float& CostAt(int order, std::uint64_t s) {
    return cost[static_cast<std::uint64_t>(order) * table_size + s];
  }
  Choice& ChoiceAt(int order, std::uint64_t s) {
    return choice[static_cast<std::uint64_t>(order) * table_size + s];
  }
};

struct Extraction {
  Plan plan;
  std::string explain;
  int sorts_avoided = 0;
};

/// Rebuilds the plan for (s, order), accumulating explain lines.
Plan ExtractNode(DpState* dp, std::uint64_t s, int order, int depth,
                 Extraction* out) {
  if ((s & (s - 1)) == 0) {
    return Plan::Leaf(std::countr_zero(s));
  }
  const Choice choice = dp->ChoiceAt(order, s);
  const std::uint64_t lhs = choice.lhs;
  const std::uint64_t rhs = s ^ lhs;

  Plan left = ExtractNode(dp, lhs, choice.lhs_order, depth + 1, out);
  Plan right = ExtractNode(dp, rhs, choice.rhs_order, depth + 1, out);

  Plan join = Plan::Join(std::move(left), std::move(right));
  PlanNode& node = join.mutable_root();
  if (choice.pred < 0) {
    node.algorithm = JoinAlgorithm::kCartesianProduct;
  } else {
    node.algorithm = JoinAlgorithm::kSortMerge;
    node.sort_class = order - 1;
    // An input consumed at a non-zero order arrives pre-sorted on this
    // node's key (order == this node's output order by construction).
    const bool lhs_reused = choice.lhs_order == order;
    const bool rhs_reused = choice.rhs_order == order;
    if (lhs_reused) ++out->sorts_avoided;
    if (rhs_reused) ++out->sorts_avoided;
    out->explain += StrFormat(
        "%*smerge %s on class %d (left %s, right %s)\n", depth * 2, "",
        RelSet::FromWord(s).ToString().c_str(), node.sort_class,
        lhs_reused ? "pre-sorted" : "sorted here",
        rhs_reused ? "pre-sorted" : "sorted here");
  }
  return join;
}

}  // namespace

std::vector<int> IdentityPredicateClasses(const JoinGraph& graph) {
  std::vector<int> classes(graph.num_predicates());
  for (int p = 0; p < graph.num_predicates(); ++p) classes[p] = p;
  return classes;
}

Result<InterestingOrdersResult> OptimizeWithInterestingOrders(
    const Catalog& catalog, const JoinGraph& graph,
    const std::vector<int>& predicate_classes) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  if (n > kMaxOrderAwareRelations) {
    return Status::InvalidArgument(
        StrFormat("order-aware DP limited to %d relations",
                  kMaxOrderAwareRelations));
  }
  if (static_cast<int>(predicate_classes.size()) != graph.num_predicates()) {
    return Status::InvalidArgument(
        "one class id per graph predicate required");
  }
  int num_classes = 0;
  for (const int c : predicate_classes) {
    if (c < 0 || c >= kMaxAttributeClasses) {
      return Status::InvalidArgument(
          StrFormat("class id %d outside [0, %d)", c, kMaxAttributeClasses));
    }
    num_classes = std::max(num_classes, c + 1);
  }

  DpState dp;
  dp.n = n;
  dp.num_orders = num_classes + 1;
  dp.table_size = std::uint64_t{1} << n;
  try {
    dp.cost.assign(dp.table_size * dp.num_orders, kInf);
    dp.choice.assign(dp.table_size * dp.num_orders, Choice{});
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("order-aware DP table too large");
  }

  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) base_cards[i] = catalog.cardinality(i);
  FanoutComputeAllCardinalities(graph, base_cards, &dp.cards);

  // cost_any[S]: min over orders, plus the order achieving it.
  std::vector<float> cost_any(dp.table_size, kInf);
  std::vector<std::int8_t> any_order(dp.table_size, 0);

  for (int i = 0; i < n; ++i) {
    const std::uint64_t w = std::uint64_t{1} << i;
    dp.CostAt(0, w) = 0.0f;  // base relations arrive unordered
    cost_any[w] = 0.0f;
    any_order[w] = 0;
  }

  const auto& predicates = graph.predicates();
  const std::uint64_t full = dp.table_size - 1;

  for (std::uint64_t s = 3; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;

    for (std::uint64_t lhs = s & (~s + 1); lhs != s; lhs = s & (lhs - s)) {
      const std::uint64_t rhs = s ^ lhs;
      const RelSet lhs_set = RelSet::FromWord(lhs);
      const RelSet rhs_set = RelSet::FromWord(rhs);

      // Sort-merge on each spanning predicate's class. Duplicate classes
      // among the spanning predicates yield identical candidates; the <
      // test keeps the first.
      bool any_spanning = false;
      for (int p = 0; p < static_cast<int>(predicates.size()); ++p) {
        const Predicate& predicate = predicates[p];
        const bool spans =
            (lhs_set.Contains(predicate.lhs) &&
             rhs_set.Contains(predicate.rhs)) ||
            (lhs_set.Contains(predicate.rhs) &&
             rhs_set.Contains(predicate.lhs));
        if (!spans) continue;
        any_spanning = true;
        const int order = predicate_classes[p] + 1;

        // Cheapest way to obtain each input, sorted on this class at the
        // time of the merge.
        const float lhs_sorted = dp.CostAt(order, lhs);
        const float lhs_reuse =
            lhs_sorted + static_cast<float>(ScanCost(dp.cards[lhs]));
        const float lhs_fresh =
            cost_any[lhs] + static_cast<float>(SortCost(dp.cards[lhs]));
        const bool lhs_reused = lhs_reuse < lhs_fresh;
        const float lhs_in = lhs_reused ? lhs_reuse : lhs_fresh;

        const float rhs_sorted = dp.CostAt(order, rhs);
        const float rhs_reuse =
            rhs_sorted + static_cast<float>(ScanCost(dp.cards[rhs]));
        const float rhs_fresh =
            cost_any[rhs] + static_cast<float>(SortCost(dp.cards[rhs]));
        const bool rhs_reused = rhs_reuse < rhs_fresh;
        const float rhs_in = rhs_reused ? rhs_reuse : rhs_fresh;

        const float candidate = lhs_in + rhs_in;
        if (candidate < dp.CostAt(order, s)) {
          dp.CostAt(order, s) = candidate;
          Choice& choice = dp.ChoiceAt(order, s);
          choice.lhs = static_cast<std::uint32_t>(lhs);
          choice.pred = static_cast<std::int16_t>(p);
          choice.lhs_order =
              lhs_reused ? static_cast<std::int8_t>(order) : any_order[lhs];
          choice.rhs_order =
              rhs_reused ? static_cast<std::int8_t>(order) : any_order[rhs];
        }
      }

      if (!any_spanning) {
        // Cartesian product: kappa_sm's treatment (both inputs pay the
        // full sort term); output unordered.
        const float candidate =
            cost_any[lhs] + static_cast<float>(SortCost(dp.cards[lhs])) +
            cost_any[rhs] + static_cast<float>(SortCost(dp.cards[rhs]));
        if (candidate < dp.CostAt(0, s)) {
          dp.CostAt(0, s) = candidate;
          Choice& choice = dp.ChoiceAt(0, s);
          choice.lhs = static_cast<std::uint32_t>(lhs);
          choice.pred = -1;
          choice.lhs_order = any_order[lhs];
          choice.rhs_order = any_order[rhs];
        }
      }
    }

    for (int order = 0; order < dp.num_orders; ++order) {
      if (dp.CostAt(order, s) < cost_any[s]) {
        cost_any[s] = dp.CostAt(order, s);
        any_order[s] = static_cast<std::int8_t>(order);
      }
    }
  }

  if (!(cost_any[full] < kInf)) {
    return Status::Internal("order-aware DP found no plan");
  }

  Extraction extraction;
  extraction.plan =
      ExtractNode(&dp, full, any_order[full], 0, &extraction);

  InterestingOrdersResult result;
  result.cost = cost_any[full];
  result.plan = std::move(extraction.plan);
  result.explain = std::move(extraction.explain);
  result.sorts_avoided = extraction.sorts_avoided;
  return result;
}

}  // namespace blitz
