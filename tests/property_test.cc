// Property-based cross-checks: for a sweep of random instances, the
// blitzsplit optimizer must agree with an independent brute-force reference,
// dominate every restricted-space or heuristic baseline, and produce
// internally consistent tables.

#include <cmath>

#include <gtest/gtest.h>

#include "baseline/bruteforce.h"
#include "baseline/dpsub.h"
#include "baseline/greedy.h"
#include "baseline/leftdeep.h"
#include "baseline/random_plans.h"
#include "card/fanout.h"
#include "core/optimizer.h"
#include "plan/evaluate.h"
#include "plan/plan.h"
#include "test_util.h"

namespace blitz {
namespace {

using ::blitz::testing::MakeRandomInstance;

constexpr CostModelKind kAllModels[] = {
    CostModelKind::kNaive,     CostModelKind::kSortMerge,
    CostModelKind::kDiskNestedLoops, CostModelKind::kMinSmDnl,
    CostModelKind::kHash,      CostModelKind::kMinAll};

class RandomInstanceTest : public ::testing::TestWithParam<int> {
 protected:
  RandomInstanceTest()
      : instance_(MakeRandomInstance(8, static_cast<std::uint64_t>(
                                            GetParam()))) {}

  const blitz::testing::RandomInstance instance_;
};

TEST_P(RandomInstanceTest, BlitzsplitMatchesBruteForceUnderEveryModel) {
  for (const CostModelKind kind : kAllModels) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance_.catalog, instance_.graph, options);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->found_plan()) << CostModelKindToString(kind);
    Result<BruteForceResult> brute =
        OptimizeBruteForce(instance_.catalog, instance_.graph, kind);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(outcome->cost, brute->cost,
                1e-4 * std::max(1.0, brute->cost))
        << CostModelKindToString(kind);
  }
}

TEST_P(RandomInstanceTest, ExtractedPlanIsWellFormedAndCostsWhatDpSays) {
  for (const CostModelKind kind : kAllModels) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance_.catalog, instance_.graph, options);
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->relations(), instance_.catalog.AllRelations());
    EXPECT_EQ(plan->NumLeaves(), instance_.catalog.num_relations());
    const double evaluated =
        EvaluateCost(*plan, instance_.catalog, instance_.graph, kind);
    EXPECT_NEAR(evaluated, outcome->cost,
                1e-4 * std::max(1.0, evaluated))
        << CostModelKindToString(kind);
  }
}

TEST_P(RandomInstanceTest, TableCardinalitiesMatchInducedSubgraphs) {
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance_.catalog, instance_.graph, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  std::vector<double> base_cards(instance_.catalog.num_relations());
  for (int i = 0; i < instance_.catalog.num_relations(); ++i) {
    base_cards[i] = instance_.catalog.cardinality(i);
  }
  for (std::uint64_t s = 1; s < outcome->table.size(); ++s) {
    const RelSet set = RelSet::FromWord(s);
    const double expected =
        FanoutJoinCardinality(instance_.graph, set, base_cards);
    EXPECT_NEAR(outcome->table.card(set), expected,
                1e-9 * std::max(1.0, expected))
        << set.ToString();
  }
}

TEST_P(RandomInstanceTest, RestrictedSearchesNeverBeatBushyWithProducts) {
  const CostModelKind kind = CostModelKind::kNaive;
  Result<OptimizeOutcome> bushy =
      OptimizeJoin(instance_.catalog, instance_.graph, OptimizerOptions{});
  ASSERT_TRUE(bushy.ok());
  const double optimum = bushy->cost;

  Result<LeftDeepResult> left_deep =
      OptimizeLeftDeep(instance_.catalog, instance_.graph, kind);
  ASSERT_TRUE(left_deep.ok());
  EXPECT_GE(left_deep->cost, optimum * (1 - 1e-4));

  Result<DpSubResult> dpsub =
      OptimizeDpSubNoProducts(instance_.catalog, instance_.graph, kind);
  if (dpsub.ok()) {  // requires a connected graph; ours always is
    EXPECT_GE(dpsub->cost, optimum * (1 - 1e-4));
  }

  Result<GreedyResult> greedy =
      OptimizeGreedy(instance_.catalog, instance_.graph, kind,
                     GreedyCriterion::kMinOutputCardinality);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(greedy->cost, optimum * (1 - 1e-4));

  Rng rng(GetParam());
  Result<RandomSamplingResult> sampled = OptimizeByRandomSampling(
      instance_.catalog, instance_.graph, kind, 50, &rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_GE(sampled->cost, optimum * (1 - 1e-4));
}

TEST_P(RandomInstanceTest, ThresholdLadderFindsTheSameOptimum) {
  Result<OptimizeOutcome> reference =
      OptimizeJoin(instance_.catalog, instance_.graph, OptimizerOptions{});
  ASSERT_TRUE(reference.ok());
  ThresholdLadderOptions ladder;
  ladder.initial_threshold = 100.0f;
  ladder.growth_factor = 1000.0f;
  Result<LadderOutcome> outcome = OptimizeJoinWithThresholds(
      instance_.catalog, instance_.graph, OptimizerOptions{}, ladder);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->outcome.cost, reference->cost);
}

TEST_P(RandomInstanceTest, CartesianOptimizerMatchesJoinWithEmptyGraph) {
  const JoinGraph empty(instance_.catalog.num_relations());
  for (const CostModelKind kind : kAllModels) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> cartesian =
        OptimizeCartesian(instance_.catalog, options);
    Result<OptimizeOutcome> join =
        OptimizeJoin(instance_.catalog, empty, options);
    ASSERT_TRUE(cartesian.ok());
    ASSERT_TRUE(join.ok());
    EXPECT_EQ(cartesian->cost, join->cost) << CostModelKindToString(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range(1, 25));

// Sparse-graph variants (more products in the optimum).
class SparseInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseInstanceTest, BlitzsplitMatchesBruteForceOnSparseGraphs) {
  const auto instance = MakeRandomInstance(
      8, static_cast<std::uint64_t>(GetParam()) + 1000,
      /*extra_edge_prob=*/0.0, /*card_max=*/1e4, /*sel_min=*/1e-3);
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, OptimizerOptions{});
  Result<BruteForceResult> brute = OptimizeBruteForce(
      instance.catalog, instance.graph, CostModelKind::kNaive);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(outcome->cost, brute->cost, 1e-4 * std::max(1.0, brute->cost));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseInstanceTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace blitz
