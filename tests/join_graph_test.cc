#include "query/join_graph.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "card/fanout.h"
#include "test_util.h"

namespace blitz {
namespace {

using ::blitz::testing::Figure3Graph;

TEST(JoinGraphTest, EmptyGraphHasUnitSelectivities) {
  JoinGraph graph(4);
  EXPECT_EQ(graph.num_predicates(), 0);
  EXPECT_DOUBLE_EQ(graph.Selectivity(0, 3), 1.0);
  EXPECT_FALSE(graph.HasEdge(0, 3));
}

TEST(JoinGraphTest, AddPredicateSymmetric) {
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(2, 0, 0.25).ok());
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(2, 0));
  EXPECT_DOUBLE_EQ(graph.Selectivity(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(graph.Selectivity(2, 0), 0.25);
  // Stored normalized with lhs < rhs.
  EXPECT_EQ(graph.predicates()[0].lhs, 0);
  EXPECT_EQ(graph.predicates()[0].rhs, 2);
}

TEST(JoinGraphTest, RejectsInvalidPredicates) {
  JoinGraph graph(3);
  EXPECT_FALSE(graph.AddPredicate(0, 0, 0.5).ok());   // self edge
  EXPECT_FALSE(graph.AddPredicate(0, 3, 0.5).ok());   // out of range
  EXPECT_FALSE(graph.AddPredicate(-1, 1, 0.5).ok());  // out of range
  EXPECT_FALSE(graph.AddPredicate(0, 1, 0.0).ok());   // zero selectivity
  EXPECT_FALSE(graph.AddPredicate(0, 1, 1.5).ok());   // > 1
  EXPECT_FALSE(graph.AddPredicate(0, 1, -0.1).ok());  // negative
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.5).ok());
  EXPECT_FALSE(graph.AddPredicate(1, 0, 0.5).ok());   // duplicate
}

TEST(JoinGraphTest, DegreesAndNeighbors) {
  const JoinGraph graph = Figure3Graph();
  // Edges: AB, AC, BC, AD (A=0, B=1, C=2, D=3).
  EXPECT_EQ(graph.Degree(0), 3);
  EXPECT_EQ(graph.Degree(1), 2);
  EXPECT_EQ(graph.Degree(2), 2);
  EXPECT_EQ(graph.Degree(3), 1);
  EXPECT_EQ(graph.Neighbors(0), (RelSet::Singleton(1) | RelSet::Singleton(2) |
                                 RelSet::Singleton(3)));
  EXPECT_EQ(graph.Neighbors(3), RelSet::Singleton(0));
}

TEST(JoinGraphTest, PiSpanMultipliesSpanningPredicatesOnly) {
  const JoinGraph graph = Figure3Graph(0.1, 0.05, 0.02, 0.01);
  // Spanning {A} vs {B,C}: predicates AB and AC.
  EXPECT_NEAR(graph.PiSpan(RelSet::Singleton(0),
                           RelSet::Singleton(1) | RelSet::Singleton(2)),
              0.1 * 0.05, 1e-15);
  // Spanning {A,B} vs {C,D}: AC and BC... BC spans? B in lhs, C in rhs: yes.
  EXPECT_NEAR(graph.PiSpan(RelSet::FirstN(2),
                           RelSet::Singleton(2) | RelSet::Singleton(3)),
              0.05 * 0.02 * 0.01, 1e-15);
  // Disjoint halves with no predicates between them.
  EXPECT_DOUBLE_EQ(graph.PiSpan(RelSet::Singleton(1), RelSet::Singleton(3)),
                   1.0);
}

TEST(JoinGraphTest, PiInducedUsesWhollyContainedPredicates) {
  const JoinGraph graph = Figure3Graph(0.1, 0.05, 0.02, 0.01);
  EXPECT_NEAR(graph.PiInduced(RelSet::FirstN(3)), 0.1 * 0.05 * 0.02, 1e-15);
  EXPECT_NEAR(graph.PiInduced(RelSet::FirstN(4)),
              0.1 * 0.05 * 0.02 * 0.01, 1e-18);
  EXPECT_DOUBLE_EQ(graph.PiInduced(RelSet::Singleton(2)), 1.0);
}

TEST(JoinGraphTest, PiSpanTimesInducedHalvesEqualsInducedWhole) {
  // For any split S = U + V: Pi_induced(S) =
  // Pi_induced(U) * Pi_induced(V) * Pi_span(U, V).
  const JoinGraph graph = Figure3Graph(0.3, 0.5, 0.7, 0.9);
  const RelSet s = RelSet::FirstN(4);
  for (std::uint64_t u = 1; u < 15; ++u) {
    const RelSet lhs = RelSet::FromWord(u);
    const RelSet rhs = s - lhs;
    if (rhs.empty()) continue;
    EXPECT_NEAR(graph.PiInduced(s),
                graph.PiInduced(lhs) * graph.PiInduced(rhs) *
                    graph.PiSpan(lhs, rhs),
                1e-15);
  }
}

TEST(JoinGraphTest, JoinCardinality) {
  const JoinGraph graph = Figure3Graph(0.1, 0.05, 0.02, 0.01);
  const std::vector<double> cards = {10, 20, 30, 40};
  EXPECT_NEAR(FanoutJoinCardinality(graph, RelSet::FirstN(2), cards),
              10 * 20 * 0.1, 1e-12);
  EXPECT_NEAR(FanoutJoinCardinality(graph, RelSet::FirstN(4), cards),
              10 * 20 * 30 * 40 * 0.1 * 0.05 * 0.02 * 0.01, 1e-9);
  EXPECT_NEAR(FanoutJoinCardinality(graph, RelSet::Singleton(3), cards), 40,
              1e-12);
}

TEST(JoinGraphTest, Connectivity) {
  JoinGraph graph(5);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.5).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 0.5).ok());
  ASSERT_TRUE(graph.AddPredicate(3, 4, 0.5).ok());
  EXPECT_TRUE(graph.IsConnected(RelSet::FirstN(3)));
  EXPECT_TRUE(graph.IsConnected(RelSet::Singleton(0)));
  EXPECT_TRUE(
      graph.IsConnected(RelSet::Singleton(3) | RelSet::Singleton(4)));
  EXPECT_FALSE(graph.IsConnected(RelSet::FirstN(5)));
  EXPECT_FALSE(
      graph.IsConnected(RelSet::Singleton(0) | RelSet::Singleton(2)));
  EXPECT_FALSE(graph.IsConnected(RelSet()));
}

TEST(JoinGraphTest, AnyEdgeSpans) {
  const JoinGraph graph = Figure3Graph();
  EXPECT_TRUE(graph.AnyEdgeSpans(RelSet::Singleton(0), RelSet::Singleton(3)));
  EXPECT_FALSE(graph.AnyEdgeSpans(RelSet::Singleton(1), RelSet::Singleton(3)));
  EXPECT_TRUE(graph.AnyEdgeSpans(RelSet::FirstN(2),
                                 RelSet::Singleton(2) | RelSet::Singleton(3)));
}

TEST(JoinGraphTest, ComputeAllCardinalitiesMatchesDirect) {
  const JoinGraph graph = Figure3Graph(0.2, 0.4, 0.6, 0.8);
  const std::vector<double> base_cards = {3, 5, 7, 11};
  std::vector<double> cards;
  FanoutComputeAllCardinalities(graph, base_cards, &cards);
  ASSERT_EQ(cards.size(), 16u);
  for (std::uint64_t s = 1; s < 16; ++s) {
    const double expected =
        FanoutJoinCardinality(graph, RelSet::FromWord(s), base_cards);
    EXPECT_NEAR(cards[s], expected, 1e-12 * expected) << s;
  }
}

TEST(JoinGraphTest, ToStringListsEdges) {
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.5).ok());
  EXPECT_EQ(graph.ToString(), "R0-R1(0.5)");
  EXPECT_EQ(JoinGraph(2).ToString(), "(no predicates)");
}

}  // namespace
}  // namespace blitz
