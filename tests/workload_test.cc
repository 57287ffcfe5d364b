#include "query/workload.h"

#include <cmath>

#include <gtest/gtest.h>

#include "card/fanout.h"

namespace blitz {
namespace {

TEST(WorkloadTest, CardinalityLadderGeometricMean) {
  for (double mean : {1.0, 4.64, 100.0, 1e4}) {
    for (double variability : {0.0, 0.25, 0.5, 1.0}) {
      const std::vector<double> cards =
          MakeCardinalityLadder(15, mean, variability);
      double log_sum = 0;
      for (double c : cards) log_sum += std::log(c);
      EXPECT_NEAR(std::exp(log_sum / 15), mean, 1e-9 * mean)
          << "mean=" << mean << " var=" << variability;
    }
  }
}

TEST(WorkloadTest, VariabilityZeroGivesEqualCardinalities) {
  const std::vector<double> cards = MakeCardinalityLadder(10, 500, 0);
  for (double c : cards) EXPECT_NEAR(c, 500, 1e-9);
}

TEST(WorkloadTest, VariabilityOneSpansSquare) {
  // |R0| = mean^0 = 1 and |R_{n-1}| = mean^2.
  const std::vector<double> cards = MakeCardinalityLadder(15, 100, 1.0);
  EXPECT_NEAR(cards.front(), 1.0, 1e-9);
  EXPECT_NEAR(cards.back(), 10000.0, 1e-6);
}

TEST(WorkloadTest, CardinalitiesAscending) {
  const std::vector<double> cards = MakeCardinalityLadder(15, 100, 0.7);
  for (size_t i = 1; i < cards.size(); ++i) {
    EXPECT_GT(cards[i], cards[i - 1]);
  }
  // Constant ratio between successive cardinalities.
  const double ratio = cards[1] / cards[0];
  for (size_t i = 2; i < cards.size(); ++i) {
    EXPECT_NEAR(cards[i] / cards[i - 1], ratio, 1e-9 * ratio);
  }
}

TEST(WorkloadTest, MeanCardinalityGridMatchesPaperFootnote) {
  // "sample points are taken at mean cardinalities 1, 4.64, 21.5, 100,
  // 464, etc." — a logarithmic axis with step 10^(2/3).
  const std::vector<double> grid = MeanCardinalityGrid(5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid[0], 1.0, 1e-12);
  EXPECT_NEAR(grid[1], 4.6416, 1e-3);
  EXPECT_NEAR(grid[2], 21.544, 1e-2);
  EXPECT_NEAR(grid[3], 100.0, 1e-9);
  EXPECT_NEAR(grid[4], 464.16, 1e-1);
}

TEST(WorkloadTest, VariabilityGridEvenlySpaced) {
  const std::vector<double> grid = VariabilityGrid(5);
  EXPECT_EQ(grid, (std::vector<double>{0, 0.25, 0.5, 0.75, 1.0}));
}

TEST(WorkloadTest, ResultCardinalityEqualsMean) {
  // The Appendix selectivity assignment "yield[s] a query result
  // cardinality of mu" — for every topology and variability.
  for (const Topology topology : kPaperTopologies) {
    for (double variability : {0.0, 0.5, 1.0}) {
      WorkloadSpec spec;
      spec.num_relations = 15;
      spec.topology = topology;
      spec.mean_cardinality = 464.0;
      spec.variability = variability;
      Result<Workload> workload = MakeWorkload(spec);
      ASSERT_TRUE(workload.ok()) << spec.ToString();
      std::vector<double> cards(15);
      for (int i = 0; i < 15; ++i) {
        cards[i] = workload->catalog.cardinality(i);
      }
      const double result_card =
          FanoutJoinCardinality(workload->graph, RelSet::FirstN(15), cards);
      EXPECT_NEAR(result_card, 464.0, 1.0)
          << spec.ToString();
    }
  }
}

TEST(WorkloadTest, SelectivityFormula) {
  // Spot-check the Appendix formula: sel(i,j) =
  // mu^(1/k) |Ri|^(-1/ki) |Rj|^(-1/kj) on a star.
  WorkloadSpec spec;
  spec.num_relations = 5;
  spec.topology = Topology::kStar;
  spec.mean_cardinality = 100;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  ASSERT_TRUE(workload.ok());
  const int k = 4;  // star over 5 relations
  const int hub = 4;
  for (const Predicate& p : workload->graph.predicates()) {
    const int leaf = p.lhs == hub ? p.rhs : p.lhs;
    const double expected =
        std::pow(100.0, 1.0 / k) *
        std::pow(workload->catalog.cardinality(leaf), -1.0) *
        std::pow(workload->catalog.cardinality(hub), -1.0 / k);
    EXPECT_NEAR(p.selectivity, expected, 1e-12);
  }
}

TEST(WorkloadTest, AllPaperTopologiesBuildAtN15) {
  for (const Topology topology : kPaperTopologies) {
    WorkloadSpec spec;
    spec.topology = topology;
    Result<Workload> workload = MakeWorkload(spec);
    EXPECT_TRUE(workload.ok()) << TopologyToString(topology);
    EXPECT_EQ(workload->catalog.num_relations(), 15);
  }
}

TEST(WorkloadTest, SelectivitiesAreValid) {
  for (const Topology topology : kPaperTopologies) {
    for (double mean : {1.0, 4.64, 1e4, 1e8}) {
      for (double variability : {0.0, 1.0}) {
        WorkloadSpec spec;
        spec.topology = topology;
        spec.mean_cardinality = mean;
        spec.variability = variability;
        Result<Workload> workload = MakeWorkload(spec);
        ASSERT_TRUE(workload.ok()) << spec.ToString();
        for (const Predicate& p : workload->graph.predicates()) {
          EXPECT_GT(p.selectivity, 0.0);
          EXPECT_LE(p.selectivity, 1.0);
        }
      }
    }
  }
}

TEST(WorkloadTest, RejectsBadSpecs) {
  WorkloadSpec spec;
  spec.num_relations = 0;
  EXPECT_FALSE(MakeWorkload(spec).ok());
  spec = WorkloadSpec{};
  spec.mean_cardinality = 0.5;
  EXPECT_FALSE(MakeWorkload(spec).ok());
  spec = WorkloadSpec{};
  spec.variability = 1.5;
  EXPECT_FALSE(MakeWorkload(spec).ok());
  spec = WorkloadSpec{};
  spec.variability = -0.1;
  EXPECT_FALSE(MakeWorkload(spec).ok());
}

TEST(WorkloadTest, ToStringDescribesSpec) {
  WorkloadSpec spec;
  spec.topology = Topology::kStar;
  spec.mean_cardinality = 21.5;
  const std::string s = spec.ToString();
  EXPECT_NE(s.find("star"), std::string::npos);
  EXPECT_NE(s.find("21.5"), std::string::npos);
}

}  // namespace
}  // namespace blitz
