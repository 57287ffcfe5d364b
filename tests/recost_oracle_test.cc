// S3: the plan re-coster oracle round-trips the plan_test.cc fixture shapes
// (bushy, left-deep, right-deep over Table 1 / Figure 3) and every plan the
// optimizer actually extracts — full plans and subset plans — against the
// DP tables that produced them.

#include <gtest/gtest.h>

#include <vector>

#include "card/fanout.h"
#include "core/optimizer.h"
#include "plan/plan.h"
#include "test_util.h"
#include "testing/oracles.h"

namespace blitz {
namespace {

using ::blitz::fuzz::CheckPlanAgainstDpTable;
using ::blitz::fuzz::OracleVerdict;
using ::blitz::fuzz::RecostPlan;
using ::blitz::fuzz::RecostResult;
using ::blitz::testing::Figure3Graph;
using ::blitz::testing::MakeRandomInstance;
using ::blitz::testing::Table1Catalog;

Plan BushyFour() {
  return Plan::Join(Plan::Join(Plan::Leaf(0), Plan::Leaf(1)),
                    Plan::Join(Plan::Leaf(2), Plan::Leaf(3)));
}

Plan LeftDeepFour() {
  return Plan::Join(
      Plan::Join(Plan::Join(Plan::Leaf(0), Plan::Leaf(1)), Plan::Leaf(2)),
      Plan::Leaf(3));
}

Plan RightDeepFour() {
  return Plan::Join(
      Plan::Leaf(0),
      Plan::Join(Plan::Leaf(1), Plan::Join(Plan::Leaf(2), Plan::Leaf(3))));
}

constexpr CostModelKind kModels[] = {CostModelKind::kNaive,
                                     CostModelKind::kSortMerge,
                                     CostModelKind::kDiskNestedLoops};

TEST(RecostOracleTest, FixtureShapesAgreeOnCardinality) {
  // Cardinality is plan-shape-invariant: all three fixture shapes over the
  // same four relations must recost to the same card, equal to the direct
  // induced-subgraph definition.
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  const std::vector<double> cards = {10, 20, 30, 40};
  const double expected =
      FanoutJoinCardinality(graph, RelSet::FirstN(4), cards);
  for (const Plan& plan : {BushyFour(), LeftDeepFour(), RightDeepFour()}) {
    for (const CostModelKind model : kModels) {
      const RecostResult r = RecostPlan(plan.root(), catalog, graph, model);
      EXPECT_NEAR(r.card, expected, 1e-9 * expected) << plan.ToString();
      EXPECT_GT(r.cost, 0.0) << plan.ToString();
    }
  }
}

TEST(RecostOracleTest, ExtractedPlanPassesAgainstItsTable) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  for (const CostModelKind model : kModels) {
    OptimizerOptions options;
    options.cost_model = model;
    Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, options);
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    const OracleVerdict verdict =
        CheckPlanAgainstDpTable(*plan, catalog, graph, model, outcome->table);
    EXPECT_TRUE(verdict.ok) << verdict.message;
  }
}

TEST(RecostOracleTest, CartesianTable1PlanPasses) {
  // The pure Cartesian-product side of the worked example: an edgeless
  // graph makes every selectivity 1 and the recost a plain product.
  const Catalog catalog = Table1Catalog();
  const JoinGraph empty_graph(4);
  Result<OptimizeOutcome> outcome =
      OptimizeCartesian(catalog, OptimizerOptions{});
  ASSERT_TRUE(outcome.ok());
  Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(plan.ok());
  const OracleVerdict verdict = CheckPlanAgainstDpTable(
      *plan, catalog, empty_graph, CostModelKind::kNaive, outcome->table);
  EXPECT_TRUE(verdict.ok) << verdict.message;
  const RecostResult r =
      RecostPlan(plan->root(), catalog, empty_graph, CostModelKind::kNaive);
  EXPECT_NEAR(r.card, 10.0 * 20.0 * 30.0 * 40.0, 1e-6);
}

TEST(RecostOracleTest, EverySubsetPlanPasses) {
  // Extraction works for any stored subset, and each extracted subtree is
  // the table's optimum for its set — so the oracle must accept all of
  // them, not just the root.
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  OptimizerOptions options;
  options.cost_model = CostModelKind::kSortMerge;
  Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, options);
  ASSERT_TRUE(outcome.ok());
  for (std::uint32_t word = 1; word < 16u; ++word) {
    const RelSet set = RelSet::FromWord(word);
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table, set);
    ASSERT_TRUE(plan.ok()) << "set=" << word;
    const OracleVerdict verdict = CheckPlanAgainstDpTable(
        *plan, catalog, graph, CostModelKind::kSortMerge, outcome->table);
    EXPECT_TRUE(verdict.ok) << "set=" << word << ": " << verdict.message;
  }
}

TEST(RecostOracleTest, RejectsWrongPlanForTable) {
  // A structurally valid plan that is NOT the table's optimum must fail the
  // per-node cost check — the oracle can actually discriminate.
  const testing::RandomInstance instance = MakeRandomInstance(4, 77);
  OptimizerOptions options;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(outcome.ok());
  Result<Plan> best = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(best.ok());
  int rejected = 0;
  for (const Plan& candidate :
       {BushyFour(), LeftDeepFour(), RightDeepFour()}) {
    if (candidate.StructurallyEquals(*best)) continue;
    const OracleVerdict verdict =
        CheckPlanAgainstDpTable(candidate, instance.catalog, instance.graph,
                                CostModelKind::kNaive, outcome->table);
    if (!verdict.ok) ++rejected;
  }
  // At least one of the three shapes differs from the optimum and recosts
  // above the stored optimum (ties can legitimately pass).
  EXPECT_GE(rejected, 1);
}

TEST(RecostOracleTest, RejectsMalformedPlan) {
  // Plan::Join itself CHECK-rejects overlapping operands, so corrupt a
  // legally built plan after the fact: a root set that is not the union of
  // its children violates the structural precondition.
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  OptimizerOptions options;
  Result<OptimizeOutcome> outcome = OptimizeJoin(catalog, graph, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(CheckPlanAgainstDpTable(Plan(), catalog, graph,
                                       CostModelKind::kNaive, outcome->table)
                   .ok);
  Result<Plan> corrupted = Plan::ExtractFromTable(outcome->table);
  ASSERT_TRUE(corrupted.ok());
  corrupted->mutable_root().set = RelSet::FirstN(3);
  const OracleVerdict verdict = CheckPlanAgainstDpTable(
      *corrupted, catalog, graph, CostModelKind::kNaive, outcome->table);
  EXPECT_FALSE(verdict.ok);
}

}  // namespace
}  // namespace blitz
