#include "baseline/hybrid.h"

#include <cmath>

#include <gtest/gtest.h>

#include "baseline/greedy.h"
#include "core/optimizer.h"
#include "plan/evaluate.h"
#include "query/workload.h"
#include "test_util.h"

namespace blitz {
namespace {

using ::blitz::testing::MakeRandomInstance;

TEST(HybridTest, MatchesExactDpWhenBlockCoversEverything) {
  const auto instance = MakeRandomInstance(9, 3);
  HybridOptions options;
  options.block_size = 12;  // > n: single exact solve per restart
  options.restarts = 1;
  options.polish = false;
  Result<HybridResult> hybrid = OptimizeHybrid(
      instance.catalog, instance.graph, OptimizerOptions{}, options);
  Result<OptimizeOutcome> exact =
      OptimizeJoin(instance.catalog, instance.graph, OptimizerOptions{});
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(hybrid->dp_invocations, 1);
  EXPECT_NEAR(hybrid->cost, exact->cost, 1e-4 * std::max(1.0f, exact->cost));
}

TEST(HybridTest, PlanCoversAllRelations) {
  WorkloadSpec spec;
  spec.num_relations = 20;
  spec.topology = Topology::kCyclePlus3;
  spec.mean_cardinality = 1000;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  ASSERT_TRUE(workload.ok());
  HybridOptions options;
  options.block_size = 8;
  options.restarts = 2;
  Result<HybridResult> hybrid = OptimizeHybrid(
      workload->catalog, workload->graph, OptimizerOptions{}, options);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  EXPECT_EQ(hybrid->plan.relations(), RelSet::FirstN(20));
  EXPECT_EQ(hybrid->plan.NumLeaves(), 20);
  EXPECT_GT(hybrid->dp_invocations, 2);  // multiple blocks per restart
  const double evaluated = EvaluateCost(hybrid->plan, workload->catalog,
                                        workload->graph,
                                        CostModelKind::kNaive);
  EXPECT_NEAR(evaluated, hybrid->cost, 1e-9 * std::max(1.0, evaluated));
}

TEST(HybridTest, NeverBeatsExactOptimumAndStaysClose) {
  // On sizes where the exact optimizer still runs, the hybrid must be >=
  // the optimum and, with a decent block size, close to it.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto instance =
        MakeRandomInstance(13, seed, /*extra_edge_prob=*/0.25);
    Result<OptimizeOutcome> exact =
        OptimizeJoin(instance.catalog, instance.graph, OptimizerOptions{});
    ASSERT_TRUE(exact.ok());
    HybridOptions options;
    options.block_size = 7;
    options.restarts = 3;
    options.seed = seed;
    Result<HybridResult> hybrid = OptimizeHybrid(
        instance.catalog, instance.graph, OptimizerOptions{}, options);
    ASSERT_TRUE(hybrid.ok());
    EXPECT_GE(hybrid->cost, exact->cost * (1 - 1e-4)) << "seed " << seed;
    EXPECT_LE(hybrid->cost, static_cast<double>(exact->cost) * 50)
        << "seed " << seed;
  }
}

TEST(HybridTest, BeatsOrMatchesGreedyOnChains) {
  WorkloadSpec spec;
  spec.num_relations = 18;
  spec.topology = Topology::kChain;
  spec.mean_cardinality = 1000;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  ASSERT_TRUE(workload.ok());
  HybridOptions options;
  options.block_size = 10;
  options.restarts = 3;
  Result<HybridResult> hybrid = OptimizeHybrid(
      workload->catalog, workload->graph, OptimizerOptions{}, options);
  Result<GreedyResult> greedy = OptimizeGreedy(
      workload->catalog, workload->graph, CostModelKind::kNaive,
      GreedyCriterion::kMinOutputCardinality);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(hybrid->cost, greedy->cost * 1.01);
}

TEST(HybridTest, DeterministicForSeed) {
  const auto instance = MakeRandomInstance(14, 9);
  HybridOptions options;
  options.block_size = 6;
  options.seed = 4242;
  Result<HybridResult> a = OptimizeHybrid(
      instance.catalog, instance.graph, OptimizerOptions{}, options);
  Result<HybridResult> b = OptimizeHybrid(
      instance.catalog, instance.graph, OptimizerOptions{}, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cost, b->cost);
  EXPECT_TRUE(a->plan.StructurallyEquals(b->plan));
}

TEST(HybridTest, HandlesDisconnectedGraphs) {
  // Blocks must still make progress when connectivity runs out.
  Result<Catalog> catalog = Catalog::FromCardinalities(
      std::vector<double>(12, 50.0));
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(12);  // two components + isolated nodes
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(5, 6, 0.1).ok());
  HybridOptions options;
  options.block_size = 4;
  options.restarts = 2;
  Result<HybridResult> hybrid =
      OptimizeHybrid(*catalog, graph, OptimizerOptions{}, options);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  EXPECT_EQ(hybrid->plan.NumLeaves(), 12);
}

TEST(HybridTest, WorksUnderEveryCostModel) {
  const auto instance = MakeRandomInstance(12, 6);
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops, CostModelKind::kMinSmDnl,
        CostModelKind::kHash, CostModelKind::kMinAll}) {
    OptimizerOptions pass;
    pass.cost_model = kind;
    HybridOptions options;
    options.block_size = 6;
    options.restarts = 2;
    Result<HybridResult> hybrid =
        OptimizeHybrid(instance.catalog, instance.graph, pass, options);
    ASSERT_TRUE(hybrid.ok()) << CostModelKindToString(kind);
    EXPECT_EQ(hybrid->plan.NumLeaves(), 12);
    EXPECT_TRUE(std::isfinite(hybrid->cost));
  }
}

TEST(HybridTest, RejectsBadOptions) {
  const auto instance = MakeRandomInstance(5, 1);
  HybridOptions options;
  options.block_size = 1;
  EXPECT_FALSE(OptimizeHybrid(instance.catalog, instance.graph,
                              OptimizerOptions{}, options)
                   .ok());
  options.block_size = 8;
  options.restarts = 0;
  EXPECT_FALSE(OptimizeHybrid(instance.catalog, instance.graph,
                              OptimizerOptions{}, options)
                   .ok());
  // The pass's parallel options are validated too (the block solves use
  // them).
  options.restarts = 1;
  OptimizerOptions pass;
  pass.parallel.min_parallel_rank = 0;
  EXPECT_FALSE(
      OptimizeHybrid(instance.catalog, instance.graph, pass, options).ok());
}

TEST(HybridTest, SingleRelation) {
  Result<Catalog> catalog = Catalog::FromCardinalities({42});
  ASSERT_TRUE(catalog.ok());
  Result<HybridResult> hybrid =
      OptimizeHybrid(*catalog, JoinGraph(1), OptimizerOptions{},
                     HybridOptions{});
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid->plan.NumLeaves(), 1);
  EXPECT_DOUBLE_EQ(hybrid->cost, 0.0);
}

}  // namespace
}  // namespace blitz
