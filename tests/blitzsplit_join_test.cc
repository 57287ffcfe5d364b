#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bruteforce.h"
#include "card/fanout.h"
#include "core/optimizer.h"
#include "plan/evaluate.h"
#include "plan/plan.h"
#include "test_util.h"

namespace blitz {
namespace {

using ::blitz::testing::Figure3Graph;
using ::blitz::testing::MakeRandomInstance;
using ::blitz::testing::Table1Catalog;

TEST(BlitzsplitJoinTest, AllSelectivitiesOneMatchesCartesian) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph empty_graph(4);
  Result<OptimizeOutcome> join =
      OptimizeJoin(catalog, empty_graph, OptimizerOptions{});
  Result<OptimizeOutcome> cartesian =
      OptimizeCartesian(catalog, OptimizerOptions{});
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(cartesian.ok());
  EXPECT_EQ(join->cost, cartesian->cost);
  for (std::uint64_t s = 1; s < join->table.size(); ++s) {
    const RelSet set = RelSet::FromWord(s);
    EXPECT_DOUBLE_EQ(join->table.card(set), cartesian->table.card(set));
    EXPECT_EQ(join->table.cost(set), cartesian->table.cost(set));
  }
}

TEST(BlitzsplitJoinTest, DpCardinalitiesMatchInducedSubgraphDefinition) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  std::vector<double> base_cards = {10, 20, 30, 40};
  for (std::uint64_t s = 1; s < outcome->table.size(); ++s) {
    const RelSet set = RelSet::FromWord(s);
    const double expected = FanoutJoinCardinality(graph, set, base_cards);
    EXPECT_NEAR(outcome->table.card(set), expected, 1e-9 * expected)
        << set.ToString();
  }
}

TEST(BlitzsplitJoinTest, PiFanColumnMatchesDirectComputation) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  for (std::uint64_t s = 1; s < outcome->table.size(); ++s) {
    const RelSet set = RelSet::FromWord(s);
    if (set.IsSingleton()) continue;
    EXPECT_NEAR(outcome->table.pi_fan(set), graph.PiFan(set), 1e-12)
        << set.ToString();
  }
}

TEST(BlitzsplitJoinTest, Figure3ExampleFanOfABC) {
  // Section 5.3: for S = {A,B,C}, U = {A}, the fan is {AB, AC}, so
  // Pi_fan(S) = selec(AB) * selec(AC).
  const JoinGraph graph = Figure3Graph(0.1, 0.05, 0.02, 0.01);
  const RelSet abc = RelSet::FirstN(3);
  EXPECT_NEAR(graph.PiFan(abc), 0.1 * 0.05, 1e-15);
}

TEST(BlitzsplitJoinTest, ChosenPlanCostMatchesIndependentEvaluator) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops, CostModelKind::kMinSmDnl}) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, options);
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    const double evaluated = EvaluateCost(*plan, catalog, graph, kind);
    EXPECT_NEAR(evaluated, outcome->cost,
                1e-5 * std::max(1.0, evaluated))
        << CostModelKindToString(kind);
  }
}

TEST(BlitzsplitJoinTest, MatchesBruteForceOnFigure3) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops, CostModelKind::kMinSmDnl}) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, options);
    ASSERT_TRUE(outcome.ok());
    Result<BruteForceResult> brute = OptimizeBruteForce(catalog, graph, kind);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(outcome->cost, brute->cost,
                1e-4 * std::max(1.0, brute->cost))
        << CostModelKindToString(kind);
  }
}

// A classic case where the optimal plan contains a Cartesian product: two
// tiny relations with no connecting predicate, each joined to a huge one.
// Producting the tiny relations first is cheapest; a product-excluding
// optimizer cannot find this plan.
TEST(BlitzsplitJoinTest, OptimalPlanMayContainCartesianProduct) {
  // Producting R0 (card 2) with R2 (card 3) costs 6 and shrinks both probes
  // into R1 at once; any predicate-first plan pays for a ~10^5-tuple
  // intermediate result.
  Result<Catalog> catalog = Catalog::FromCardinalities({2, 1000000, 3});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 0.1).ok());
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountCartesianProducts(graph), 1) << plan->ToString();
}

TEST(BlitzsplitJoinTest, DisconnectedGraphStillOptimizes) {
  // Two disjoint components — pure product between them; blitzsplit does
  // not care about connectivity at all.
  Result<Catalog> catalog = Catalog::FromCardinalities({10, 20, 30, 40});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(4);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(2, 3, 0.1).ok());
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->found_plan());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountCartesianProducts(graph), 1);
}

TEST(BlitzsplitJoinTest, NestedIfsDoNotChangeTheOptimum) {
  const auto instance = MakeRandomInstance(9, /*seed=*/7);
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops}) {
    OptimizerOptions nested;
    nested.cost_model = kind;
    nested.nested_ifs = true;
    OptimizerOptions flat = nested;
    flat.nested_ifs = false;
    Result<OptimizeOutcome> a =
        OptimizeJoin(instance.catalog, instance.graph, nested);
    Result<OptimizeOutcome> b =
        OptimizeJoin(instance.catalog, instance.graph, flat);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->cost, b->cost) << CostModelKindToString(kind);
  }
}

TEST(BlitzsplitJoinTest, RejectsMismatchedGraph) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph(3);
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(catalog, graph, OptimizerOptions{});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlitzsplitJoinTest, StarQueryPrefersJoiningThroughTheHub) {
  // Star: small hub, large satellites, selective predicates. The optimal
  // plan should start from the hub and never product two satellites when
  // that is more expensive.
  Result<Catalog> catalog =
      Catalog::FromCardinalities({1000, 1000, 1000, 1000, 100});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(graph.AddPredicate(4, i, 1e-3).ok());
  }
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountCartesianProducts(graph), 0) << plan->ToString();
  Result<BruteForceResult> brute =
      OptimizeBruteForce(*catalog, graph, CostModelKind::kNaive);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(outcome->cost, brute->cost, 1e-4 * brute->cost);
}

TEST(BlitzsplitJoinTest, ReoptimizeInPlaceReproducesResult) {
  const auto instance = MakeRandomInstance(8, /*seed=*/3);
  OptimizerOptions options;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(outcome.ok());
  const float first_cost = outcome->cost;
  Result<float> again = ReoptimizeJoinInPlace(
      instance.catalog, instance.graph, options, &outcome->table, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, first_cost);
}

TEST(BlitzsplitJoinTest, ReoptimizeInPlaceRejectsMismatchedColumns) {
  const auto instance = MakeRandomInstance(6, /*seed=*/4);
  OptimizerOptions naive;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, naive);
  ASSERT_TRUE(outcome.ok());
  OptimizerOptions sm;
  sm.cost_model = CostModelKind::kSortMerge;  // needs the aux column
  Result<float> again = ReoptimizeJoinInPlace(
      instance.catalog, instance.graph, sm, &outcome->table, nullptr);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace blitz
