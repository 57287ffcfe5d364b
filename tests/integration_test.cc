// End-to-end pipeline tests: workload -> optimize -> extract -> attach
// algorithms -> generate data -> execute, with cross-optimizer result
// equivalence as the final arbiter.

#include <cmath>

#include <gtest/gtest.h>

#include "baseline/dpsub.h"
#include "baseline/greedy.h"
#include "baseline/leftdeep.h"
#include "card/fanout.h"
#include "core/optimizer.h"
#include "exec/datagen.h"
#include "exec/executor.h"
#include "plan/algorithm_choice.h"
#include "plan/evaluate.h"
#include "plan/plan.h"
#include "query/workload.h"
#include "test_util.h"
#include "textio/bjq.h"

namespace blitz {
namespace {

using ::blitz::testing::MakeRandomInstance;

/// A small executable instance (cardinalities small enough to materialize
/// every intermediate result).
blitz::testing::RandomInstance SmallInstance(std::uint64_t seed) {
  return MakeRandomInstance(6, seed, /*extra_edge_prob=*/0.4,
                            /*card_max=*/12, /*sel_min=*/0.1);
}

TEST(IntegrationTest, AllOptimizersProduceEquivalentResults) {
  const auto instance = SmallInstance(11);
  Result<std::vector<ExecTable>> tables =
      GenerateTables(instance.catalog, instance.graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok());

  // Gather plans from every optimizer in the library.
  std::vector<Plan> plans;
  {
    Result<OptimizeOutcome> outcome = OptimizeJoin(
        instance.catalog, instance.graph, OptimizerOptions{});
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  {
    Result<LeftDeepResult> result = OptimizeLeftDeep(
        instance.catalog, instance.graph, CostModelKind::kNaive);
    ASSERT_TRUE(result.ok());
    plans.push_back(std::move(result->plan));
  }
  {
    Result<DpSubResult> result = OptimizeDpSubNoProducts(
        instance.catalog, instance.graph, CostModelKind::kNaive);
    ASSERT_TRUE(result.ok());
    plans.push_back(std::move(result->plan));
  }
  {
    Result<GreedyResult> result = OptimizeGreedy(
        instance.catalog, instance.graph, CostModelKind::kNaive,
        GreedyCriterion::kMinOutputCardinality);
    ASSERT_TRUE(result.ok());
    plans.push_back(std::move(result->plan));
  }

  Result<ExecutionResult> reference =
      ExecutePlan(plans[0], *tables, instance.graph);
  ASSERT_TRUE(reference.ok());
  const auto expected = ResultFingerprint(reference->result);
  for (size_t i = 1; i < plans.size(); ++i) {
    Result<ExecutionResult> result =
        ExecutePlan(plans[i], *tables, instance.graph);
    ASSERT_TRUE(result.ok()) << plans[i].ToString();
    EXPECT_EQ(ResultFingerprint(result->result), expected)
        << "plan " << i << ": " << plans[i].ToString();
  }
}

TEST(IntegrationTest, AttachedAlgorithmsExecuteCorrectly) {
  const auto instance = SmallInstance(23);
  Result<std::vector<ExecTable>> tables =
      GenerateTables(instance.catalog, instance.graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok());

  OptimizerOptions options;
  options.cost_model = CostModelKind::kMinSmDnl;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(outcome.ok());
  Result<Plan> annotated = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(annotated.ok());
  ChooseAlgorithms(&annotated.value(), instance.catalog, instance.graph,
                   CostModelKind::kMinSmDnl);

  // The same plan executed with default (unannotated) algorithms must give
  // the same result.
  Result<Plan> unannotated = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(unannotated.ok());

  Result<ExecutionResult> with_algorithms =
      ExecutePlan(*annotated, *tables, instance.graph);
  Result<ExecutionResult> defaults =
      ExecutePlan(*unannotated, *tables, instance.graph);
  ASSERT_TRUE(with_algorithms.ok());
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(ResultFingerprint(with_algorithms->result),
            ResultFingerprint(defaults->result));
}

TEST(IntegrationTest, EstimatedFinalCardinalityPredictsObserved) {
  // Averaged over several seeds the estimate should land within a factor
  // of a few of the observed cardinality (it is a product of independent
  // uniform approximations).
  double total_observed = 0;
  double total_estimated = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Mild selectivities so expected result counts are large enough for the
    // law of large numbers to apply.
    const auto instance = MakeRandomInstance(
        6, seed * 100, /*extra_edge_prob=*/0.4, /*card_max=*/12,
        /*sel_min=*/0.3);
    DataGenOptions datagen;
    datagen.seed = seed;
    Result<std::vector<ExecTable>> tables =
        GenerateTables(instance.catalog, instance.graph, datagen);
    ASSERT_TRUE(tables.ok());
    Result<OptimizeOutcome> outcome = OptimizeJoin(
        instance.catalog, instance.graph, OptimizerOptions{});
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    Result<ExecutionResult> result =
        ExecutePlan(*plan, *tables, instance.graph);
    ASSERT_TRUE(result.ok());

    // Estimate against the *materialized* row counts (cardinalities are
    // rounded when tables are generated).
    std::vector<double> actual_cards(instance.catalog.num_relations());
    for (int i = 0; i < instance.catalog.num_relations(); ++i) {
      actual_cards[i] = static_cast<double>((*tables)[i].num_rows());
    }
    total_estimated += FanoutJoinCardinality(
        instance.graph, instance.catalog.AllRelations(), actual_cards);
    total_observed += static_cast<double>(result->result.num_rows());
  }
  ASSERT_GT(total_estimated, 0);
  const double ratio = total_observed / total_estimated;
  EXPECT_GT(ratio, 0.2) << total_observed << " vs " << total_estimated;
  EXPECT_LT(ratio, 5.0) << total_observed << " vs " << total_estimated;
}

TEST(IntegrationTest, BjqPipelineEndToEnd) {
  constexpr char kQuery[] = R"(
costmodel sm
relation fact 200
relation dim_a 20
relation dim_b 10
predicate fact dim_a 0.05
predicate fact dim_b 0.1
)";
  Result<QuerySpec> spec = ParseBjq(kQuery);
  ASSERT_TRUE(spec.ok());
  OptimizerOptions options;
  options.cost_model = spec->cost_model;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(spec->catalog, spec->graph, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->found_plan());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  ChooseAlgorithms(&plan.value(), spec->catalog, spec->graph,
                   spec->cost_model);

  Result<std::vector<ExecTable>> tables =
      GenerateTables(spec->catalog, spec->graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok());
  Result<ExecutionResult> result =
      ExecutePlan(*plan, *tables, spec->graph);
  ASSERT_TRUE(result.ok());
  // 200 * 20 * 10 * 0.05 * 0.1 = 200 expected output rows (roughly).
  EXPECT_GT(result->result.num_rows(), 20u);
  EXPECT_LT(result->result.num_rows(), 2000u);
}

TEST(IntegrationTest, WorkloadSweepPointOptimizesAndExtracts) {
  // One Figure 4 grid point end to end (small n to keep the test quick).
  WorkloadSpec spec;
  spec.num_relations = 10;
  spec.topology = Topology::kCyclePlus3;
  spec.mean_cardinality = 464;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  ASSERT_TRUE(workload.ok());
  for (const CostModelKind kind :
       {CostModelKind::kNaive, CostModelKind::kSortMerge,
        CostModelKind::kDiskNestedLoops}) {
    OptimizerOptions options;
    options.cost_model = kind;
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(workload->catalog, workload->graph, options);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->found_plan());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->NumLeaves(), 10);
    const double evaluated =
        EvaluateCost(*plan, workload->catalog, workload->graph, kind);
    EXPECT_NEAR(evaluated, outcome->cost, 1e-4 * std::max(1.0, evaluated));
  }
}

}  // namespace
}  // namespace blitz
