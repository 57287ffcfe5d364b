// Edge-of-domain behavior for the core optimizer: minimal n, selectivity-1
// graphs, and genuine single-precision cost overflow (Section 6.3 /
// footnote 7: costs that overflow describe plans that would run for ~1e15
// years, and rejecting them outright is deliberate).

#include <gtest/gtest.h>

#include "card/paper_fanout.h"
#include "core/optimizer.h"
#include "plan/plan.h"
#include "test_util.h"

namespace blitz {
namespace {

TEST(OptimizerEdgeTest, TwoRelationJoin) {
  Result<Catalog> catalog = Catalog::FromCardinalities({100, 50});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(2);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.01).ok());
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->cost, 50.0f);  // kappa_0 = 100 * 50 * 0.01
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumJoins(), 1);
}

TEST(OptimizerEdgeTest, SelectivityOneGraphBehavesLikeCartesian) {
  Result<Catalog> catalog = Catalog::FromCardinalities({10, 20, 30});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 1.0).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 1.0).ok());
  Result<OptimizeOutcome> join =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  Result<OptimizeOutcome> cartesian =
      OptimizeCartesian(*catalog, OptimizerOptions{});
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(cartesian.ok());
  EXPECT_EQ(join->cost, cartesian->cost);
}

TEST(OptimizerEdgeTest, FloatOverflowRejectsAllPlans) {
  // Every plan's final kappa'(full set) overflows single precision, so
  // even the unbounded optimizer reports failure — footnote 7's "plans
  // that would run for 3.2e15 years".
  Result<Catalog> catalog = Catalog::FromCardinalities({1e200, 1e200});
  ASSERT_TRUE(catalog.ok());
  Result<OptimizeOutcome> outcome =
      OptimizeCartesian(*catalog, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->found_plan());
  EXPECT_FALSE(Plan::ExtractFromTable(outcome->table).ok());
}

TEST(OptimizerEdgeTest, OverflowOnlyInIntermediatesIsAvoided) {
  // Huge bases but selective predicates: plans that join through the
  // predicates stay finite, while product-first plans overflow; the
  // optimizer must find the finite ones.
  Result<Catalog> catalog =
      Catalog::FromCardinalities({1e25, 1e25, 1e25});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 1e-25).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 1e-25).ok());
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->found_plan());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountCartesianProducts(graph), 0);
}

TEST(OptimizerEdgeTest, SubUnitCardinalitiesOptimizeCleanly) {
  // Fractional estimated cardinalities (products of tiny selectivities)
  // must not break any model.
  Result<Catalog> catalog = Catalog::FromCardinalities({0.5, 2, 3});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 0.1).ok());
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops, CostModelKind::kMinSmDnl,
        CostModelKind::kHash, CostModelKind::kMinAll}) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome = OptimizeJoin(*catalog, graph, options);
    ASSERT_TRUE(outcome.ok()) << CostModelKindToString(kind);
    EXPECT_TRUE(outcome->found_plan()) << CostModelKindToString(kind);
    EXPECT_GE(outcome->cost, 0.0f) << CostModelKindToString(kind);
  }
}

TEST(OptimizerEdgeTest, MaxSupportedRelationCountAllocates) {
  // Allocation-path check near the ceiling: n = 22 is ~100 MB of table.
  Result<DpTable> table = DpTable::Create(22, true, false);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), std::uint64_t{1} << 22);
}

TEST(OptimizerEdgeTest, CountersOffLeavesZeros) {
  const auto instance = blitz::testing::MakeRandomInstance(6, 1);
  OptimizerOptions options;
  options.count_operations = false;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->counters.loop_iterations, 0u);
  EXPECT_EQ(outcome->counters.subsets_visited, 0u);
}

TEST(OptimizerEdgeTest, InPlaceRejectsEstimatorOfAnotherRelationCount) {
  // ReoptimizeJoinInPlace validates the estimator exactly like OptimizeJoin:
  // an estimator built over a different relation count is an invalid
  // argument, even an exact one the in-place pass would otherwise accept.
  const auto instance = blitz::testing::MakeRandomInstance(6, 1);
  const auto other = blitz::testing::MakeRandomInstance(5, 1);
  const PaperFanoutEstimator mismatched(other.catalog, other.graph);
  OptimizerOptions options;
  options.estimator = &mismatched;
  EXPECT_EQ(OptimizeJoin(instance.catalog, instance.graph, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  Result<float> again = ReoptimizeJoinInPlace(
      instance.catalog, instance.graph, options, &outcome->table, nullptr);
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace blitz
