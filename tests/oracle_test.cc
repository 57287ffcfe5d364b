// The three independent oracles of the differential harness, each checked
// against the optimizers they are meant to judge — and against deliberately
// tampered results, because an oracle that cannot fail verifies nothing.

#include "card/fanout.h"
#include "testing/oracles.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baseline/bruteforce.h"
#include "baseline/dpccp.h"
#include "core/optimizer.h"
#include "test_util.h"
#include "testing/fuzzer.h"

namespace blitz {
namespace {

using ::blitz::fuzz::BruteForceAllSubsets;
using ::blitz::fuzz::BruteForceTable;
using ::blitz::fuzz::CheckAgainstDpCcp;
using ::blitz::fuzz::CheckPlanAgainstDpTable;
using ::blitz::fuzz::CompareDpTableToBruteForce;
using ::blitz::fuzz::OracleVerdict;
using ::blitz::fuzz::RecostPlan;
using ::blitz::fuzz::RecostResult;
using ::blitz::fuzz::TablesBitIdentical;
using ::blitz::testing::Figure3Graph;
using ::blitz::testing::MakeRandomInstance;
using ::blitz::testing::Table1Catalog;

OptimizerOptions Options(CostModelKind model) {
  OptimizerOptions options;
  options.cost_model = model;
  return options;
}

constexpr CostModelKind kModels[] = {CostModelKind::kNaive,
                                     CostModelKind::kSortMerge,
                                     CostModelKind::kDiskNestedLoops};

TEST(BruteForceOracleTest, AgreesWithBaselineBruteForceOnRoot) {
  // Two independently written exhaustive optimizers (memoized recursion in
  // baseline/, bottom-up split scan here) must land on the same optimum.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const testing::RandomInstance instance = MakeRandomInstance(7, seed);
    for (const CostModelKind model : kModels) {
      Result<BruteForceResult> baseline =
          OptimizeBruteForce(instance.catalog, instance.graph, model);
      ASSERT_TRUE(baseline.ok());
      Result<BruteForceTable> table =
          BruteForceAllSubsets(instance.catalog, instance.graph, model);
      ASSERT_TRUE(table.ok());
      const std::uint32_t root =
          RelSet::FirstN(instance.catalog.num_relations()).word();
      EXPECT_NEAR(table->cost[root], baseline->cost,
                  1e-9 * (1.0 + std::abs(baseline->cost)))
          << "seed=" << seed << " model=" << static_cast<int>(model);
    }
  }
}

TEST(BruteForceOracleTest, ValidatesBlitzsplitTable) {
  const testing::RandomInstance instance = MakeRandomInstance(8, 17);
  for (const CostModelKind model : kModels) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance.catalog, instance.graph, Options(model));
    ASSERT_TRUE(outcome.ok());
    Result<BruteForceTable> reference =
        BruteForceAllSubsets(instance.catalog, instance.graph, model);
    ASSERT_TRUE(reference.ok());
    const OracleVerdict verdict =
        CompareDpTableToBruteForce(outcome->table, *reference);
    EXPECT_TRUE(verdict.ok) << verdict.message;
  }
}

TEST(BruteForceOracleTest, DetectsTamperedCost) {
  const testing::RandomInstance instance = MakeRandomInstance(6, 5);
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      instance.catalog, instance.graph, Options(CostModelKind::kNaive));
  ASSERT_TRUE(outcome.ok());
  Result<BruteForceTable> reference = BruteForceAllSubsets(
      instance.catalog, instance.graph, CostModelKind::kNaive);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(CompareDpTableToBruteForce(outcome->table, *reference).ok);
  // Inflate one interior optimum; the oracle must name it.
  const std::uint32_t victim = RelSet::FirstN(3).word();
  outcome->table.cost_data()[victim] *= 2.0f;
  const OracleVerdict verdict =
      CompareDpTableToBruteForce(outcome->table, *reference);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.message.empty());
}

TEST(BruteForceOracleTest, RespectsSizeCap) {
  const testing::RandomInstance instance = MakeRandomInstance(8, 1);
  EXPECT_EQ(BruteForceAllSubsets(instance.catalog, instance.graph,
                                 CostModelKind::kNaive, /*max_n=*/6)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BruteForceOracleTest, ThresholdSemanticsRejectedRowsJustified) {
  // Under a biting threshold every rejected DP row's true optimum must be
  // at/above the threshold, and every surviving row must still be exact.
  const testing::RandomInstance instance = MakeRandomInstance(7, 29);
  OptimizerOptions options = Options(CostModelKind::kNaive);
  Result<OptimizeOutcome> unbounded =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(unbounded->found_plan());
  const float threshold = std::max(unbounded->cost * 4.0f, 1.0f);
  options.cost_threshold = threshold;
  Result<OptimizeOutcome> bounded =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(bounded.ok());
  Result<BruteForceTable> reference = BruteForceAllSubsets(
      instance.catalog, instance.graph, CostModelKind::kNaive);
  ASSERT_TRUE(reference.ok());
  const OracleVerdict verdict =
      CompareDpTableToBruteForce(bounded->table, *reference, threshold);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

TEST(RecostOracleTest, RecostMatchesCardinalityDefinition) {
  const Catalog catalog = Table1Catalog();
  const JoinGraph graph = Figure3Graph();
  const Plan plan = Plan::Join(Plan::Join(Plan::Leaf(0), Plan::Leaf(1)),
                               Plan::Join(Plan::Leaf(2), Plan::Leaf(3)));
  const RecostResult r =
      RecostPlan(plan.root(), catalog, graph, CostModelKind::kNaive);
  const std::vector<double> cards = {10, 20, 30, 40};
  EXPECT_NEAR(r.card, FanoutJoinCardinality(graph, RelSet::FirstN(4), cards),
              1e-9);
  EXPECT_GT(r.cost, 0.0);
}

TEST(DpCcpOracleTest, AcceptsHonestBlitzsplitResult) {
  const testing::RandomInstance instance = MakeRandomInstance(9, 101);
  for (const CostModelKind model : kModels) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance.catalog, instance.graph, Options(model));
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    const OracleVerdict verdict = CheckAgainstDpCcp(
        instance.catalog, instance.graph, model, outcome->cost,
        plan->CountCartesianProducts(instance.graph));
    EXPECT_TRUE(verdict.ok) << verdict.message;
  }
}

TEST(DpCcpOracleTest, RejectsCostAboveDpCcp) {
  // A claimed blitzsplit optimum strictly worse than DPccp's product-free
  // optimum is impossible; the oracle must flag it.
  const testing::RandomInstance instance = MakeRandomInstance(6, 53);
  Result<DpCcpResult> dpccp = OptimizeDpCcp(instance.catalog, instance.graph,
                                            CostModelKind::kNaive);
  ASSERT_TRUE(dpccp.ok());
  const OracleVerdict verdict =
      CheckAgainstDpCcp(instance.catalog, instance.graph,
                        CostModelKind::kNaive, dpccp->cost * 2.0 + 1.0,
                        /*plan_cartesian_products=*/0);
  EXPECT_FALSE(verdict.ok);
}

TEST(DpCcpOracleTest, DisconnectedGraphPassesTrivially) {
  Result<Catalog> catalog =
      Catalog::FromCardinalities({10.0, 20.0, 30.0, 40.0});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(4);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());  // {2}, {3} disconnected.
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(*catalog, graph, Options(CostModelKind::kNaive));
  ASSERT_TRUE(outcome.ok());
  const OracleVerdict verdict =
      CheckAgainstDpCcp(*catalog, graph, CostModelKind::kNaive, outcome->cost,
                        /*plan_cartesian_products=*/2);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

TEST(TableIdentityTest, DetectsSingleLaneDivergence) {
  const testing::RandomInstance instance = MakeRandomInstance(7, 3);
  Result<OptimizeOutcome> a = OptimizeJoin(instance.catalog, instance.graph,
                                           Options(CostModelKind::kNaive));
  Result<OptimizeOutcome> b = OptimizeJoin(instance.catalog, instance.graph,
                                           Options(CostModelKind::kNaive));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TablesBitIdentical(a->table, b->table).ok);
  b->table.best_lhs_data()[RelSet::FirstN(2).word()] ^= 1u;
  const OracleVerdict verdict = TablesBitIdentical(a->table, b->table);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.message.empty());
}

}  // namespace
}  // namespace blitz
