// Tests for the cardinality-estimator seam (src/card/): stable kind names,
// the exact paper estimator's bit-identity contract against the fused DP
// path, the Simpli-Squared no-estimate signal, equi-depth histogram edge
// cases (empty column, single bucket, skew), the exec-layer histogram
// builder, valid-plan invariants under non-exact estimators, and the
// unified invalid-cardinality error text shared by Catalog::Create, the
// workload generators, and the .bjq parser.

#include "card/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/optimize_query.h"
#include "card/fanout.h"
#include "card/histogram.h"
#include "card/no_estimate.h"
#include "card/paper_fanout.h"
#include "catalog/catalog.h"
#include "core/optimizer.h"
#include "exec/datagen.h"
#include "exec/relation.h"
#include "exec/stats.h"
#include "plan/evaluate.h"
#include "query/join_graph.h"
#include "query/workload.h"
#include "testing/differential.h"
#include "testing/fuzzer.h"
#include "testing/oracles.h"
#include "textio/bjq.h"

namespace blitz {
namespace {

// ---------------------------------------------------------------------------
// Kind names.

TEST(EstimatorKindTest, NamesRoundTrip) {
  for (const EstimatorKind kind :
       {EstimatorKind::kPaperFanout, EstimatorKind::kSampleHistogram,
        EstimatorKind::kNoEstimate}) {
    const char* name = EstimatorKindName(kind);
    const std::optional<EstimatorKind> parsed = EstimatorKindFromName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(EstimatorKindName(EstimatorKind::kPaperFanout),
            std::string("paper"));
  EXPECT_EQ(EstimatorKindName(EstimatorKind::kSampleHistogram),
            std::string("hist"));
  EXPECT_EQ(EstimatorKindName(EstimatorKind::kNoEstimate),
            std::string("noest"));
  EXPECT_FALSE(EstimatorKindFromName("exact").has_value());
  EXPECT_FALSE(EstimatorKindFromName("").has_value());
  const std::string all = EstimatorKindNames();
  EXPECT_NE(all.find("paper"), std::string::npos);
  EXPECT_NE(all.find("hist"), std::string::npos);
  EXPECT_NE(all.find("noest"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fixtures.

Result<Workload> ChainWorkload(int n, double mean = 1e4) {
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kChain;
  spec.mean_cardinality = mean;
  spec.variability = 0.5;
  return MakeWorkload(spec);
}

Result<Workload> CliqueWorkload(int n, double mean = 1e4) {
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kClique;
  spec.mean_cardinality = mean;
  spec.variability = 0.5;
  return MakeWorkload(spec);
}

// ---------------------------------------------------------------------------
// PaperFanoutEstimator: the seam's exact reference implementation.

TEST(PaperFanoutEstimatorTest, MatchesTheDeprecatedWrappers) {
  Result<Workload> w = ChainWorkload(7);
  ASSERT_TRUE(w.ok());
  PaperFanoutEstimator estimator(w->catalog, w->graph);
  EXPECT_TRUE(estimator.exact());
  EXPECT_EQ(estimator.kind(), EstimatorKind::kPaperFanout);
  EXPECT_EQ(estimator.num_relations(), 7);

  std::vector<double> base(7);
  for (int i = 0; i < 7; ++i) {
    base[i] = w->catalog.cardinality(i);
    EXPECT_EQ(estimator.BaseCardinality(i), base[i]);
  }

  // Every subset estimate equals the (deprecated) JoinGraph wrapper, which
  // in turn is the Section 5.1 derivation.
  for (std::uint64_t word = 1; word < (1ull << 7); ++word) {
    const RelSet s = RelSet::FromWord(word);
    EXPECT_EQ(estimator.EstimateCardinality(s),
              FanoutJoinCardinality(w->graph, s, base))
        << "subset word " << word;
  }

  // EstimateAll runs the incremental Pi_fan DP (the order the fused
  // optimizer path multiplies in); the per-subset path multiplies in
  // direct-product order, so they agree to rounding only. Bit-identity of
  // the DP-consumed values against the fused path is pinned separately by
  // EstimatorBitIdentityTest.
  std::vector<double> all;
  estimator.EstimateAll(&all);
  ASSERT_EQ(all.size(), 1ull << 7);
  for (std::uint64_t word = 1; word < (1ull << 7); ++word) {
    const double direct =
        estimator.EstimateCardinality(RelSet::FromWord(word));
    EXPECT_NEAR(all[word] / direct, 1.0, 1e-12) << "subset word " << word;
  }
}

TEST(PaperFanoutEstimatorTest, SpanSelectivityIsClampedIntoUnitInterval) {
  Result<Workload> w = CliqueWorkload(6);
  ASSERT_TRUE(w.ok());
  PaperFanoutEstimator estimator(w->catalog, w->graph);
  const RelSet all = RelSet::FirstN(6);
  for (std::uint64_t word = 1; word < (1ull << 6) - 1; ++word) {
    const RelSet u = RelSet::FromWord(word);
    const RelSet v = all.Minus(u);
    if (v.empty()) continue;
    const double sel = estimator.EstimateSpanSelectivity(u, v);
    EXPECT_GT(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
}

// ---------------------------------------------------------------------------
// NoEstimateEstimator: the Simpli-Squared signal.

TEST(NoEstimateEstimatorTest, SignalIsUnitToThePowerOfUnboundRelations) {
  // Chain over 5 relations: a subset of size k spanning j chain edges
  // estimates kUnit^(k - j).
  JoinGraph graph(5);
  for (int i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(graph.AddPredicate(i, i + 1, 0.5).ok());
  }
  NoEstimateEstimator estimator(graph);
  EXPECT_EQ(estimator.kind(), EstimatorKind::kNoEstimate);
  EXPECT_FALSE(estimator.exact());
  const double u = NoEstimateEstimator::kUnit;

  // Singleton: one unbound relation.
  EXPECT_EQ(estimator.EstimateCardinality(RelSet::Singleton(2)), u);
  // Adjacent pair binds one edge: u^2 * (1/u) = u.
  EXPECT_EQ(
      estimator.EstimateCardinality(RelSet::Singleton(0).With(1)), u);
  // Non-adjacent pair (Cartesian product): u^2.
  EXPECT_EQ(
      estimator.EstimateCardinality(RelSet::Singleton(0).With(2)), u * u);
  // The whole chain: 5 relations, 4 edges -> u.
  EXPECT_EQ(estimator.EstimateCardinality(RelSet::FirstN(5)), u);
}

TEST(NoEstimateEstimatorTest, OverConstrainedSubsetsFloorAtOne) {
  // A 4-clique: any subset of size k binds k*(k-1)/2 >= k edges for k >= 3,
  // so the estimate floors at 1 instead of going sub-unity.
  JoinGraph graph(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      ASSERT_TRUE(graph.AddPredicate(i, j, 0.1).ok());
    }
  }
  NoEstimateEstimator estimator(graph);
  EXPECT_EQ(estimator.EstimateCardinality(RelSet::FirstN(3)), 1.0);
  EXPECT_EQ(estimator.EstimateCardinality(RelSet::FirstN(4)), 1.0);
}

TEST(NoEstimateEstimatorTest, EstimateAllMatchesPerSubsetLoop) {
  Result<Workload> w = CliqueWorkload(6);
  ASSERT_TRUE(w.ok());
  NoEstimateEstimator estimator(w->graph);
  std::vector<double> all;
  estimator.EstimateAll(&all);
  ASSERT_EQ(all.size(), 1ull << 6);
  for (std::uint64_t word = 1; word < (1ull << 6); ++word) {
    EXPECT_EQ(all[word], estimator.EstimateCardinality(RelSet::FromWord(word)))
        << "subset word " << word;
  }
}

// ---------------------------------------------------------------------------
// Equi-depth histograms: edge cases.

TEST(EquiDepthHistogramTest, EmptyColumnYieldsZeroBuckets) {
  const EquiDepthHistogram h = EquiDepthHistogram::Build({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.buckets().size(), 0u);
  EXPECT_EQ(h.rows(), 0.0);
  EXPECT_EQ(h.FractionInRange(0, std::numeric_limits<std::uint32_t>::max()),
            0.0);
}

TEST(EquiDepthHistogramTest, ConstantColumnYieldsOneBucket) {
  const EquiDepthHistogram h =
      EquiDepthHistogram::Build(std::vector<std::uint32_t>(100, 42), 8);
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0].lo, 42u);
  EXPECT_EQ(h.buckets()[0].hi, 42u);
  EXPECT_EQ(h.rows(), 100.0);
  EXPECT_EQ(h.distinct(), 1.0);
  EXPECT_EQ(h.FractionInRange(42, 42), 1.0);
  EXPECT_EQ(h.FractionInRange(0, 41), 0.0);
}

TEST(EquiDepthHistogramTest, HeavyHitterWidensItsBucketDepth) {
  // 90% of rows carry one value; equi-depth must keep all of them in a
  // single bucket (all occurrences of one value land together) and the
  // range query over just that value must recover the heavy mass.
  std::vector<std::uint32_t> column(900, 7);
  for (std::uint32_t v = 100; v < 200; ++v) column.push_back(v);
  const EquiDepthHistogram h = EquiDepthHistogram::Build(column, 4);
  EXPECT_GE(h.buckets().size(), 1u);
  EXPECT_NEAR(h.FractionInRange(7, 7), 0.9, 0.05);
  EXPECT_NEAR(h.FractionInRange(100, 199), 0.1, 0.05);
}

TEST(EquiDepthHistogramTest, DisjointRangesClampToTheSelectivityFloor) {
  std::vector<std::uint32_t> low, high;
  for (std::uint32_t v = 0; v < 100; ++v) low.push_back(v);
  for (std::uint32_t v = 1000; v < 1100; ++v) high.push_back(v);
  const EquiDepthHistogram a = EquiDepthHistogram::Build(low, 8);
  const EquiDepthHistogram b = EquiDepthHistogram::Build(high, 8);
  EXPECT_EQ(EstimateEquiJoinSelectivity(a, b), kMinJoinSelectivity);
  // Empty columns clamp rather than estimating a true zero.
  const EquiDepthHistogram empty = EquiDepthHistogram::Build({}, 8);
  EXPECT_EQ(EstimateEquiJoinSelectivity(a, empty), kMinJoinSelectivity);
}

TEST(EquiDepthHistogramTest, IdenticalKeyColumnsRecoverSystemRSelectivity) {
  // Two copies of a dense key column 0..999: System-R's 1/max(distinct)
  // should land near 1/1000.
  std::vector<std::uint32_t> keys;
  for (std::uint32_t v = 0; v < 1000; ++v) keys.push_back(v);
  const EquiDepthHistogram a = EquiDepthHistogram::Build(keys, 32);
  const EquiDepthHistogram b = EquiDepthHistogram::Build(keys, 32);
  const double sel = EstimateEquiJoinSelectivity(a, b);
  EXPECT_GT(sel, 1e-4);
  EXPECT_LT(sel, 1e-2);
}

// ---------------------------------------------------------------------------
// SampleHistogramEstimator + the exec-layer builder.

TEST(SampleHistogramEstimatorTest, ProductFormOverEstimatedInputs) {
  JoinGraph graph(3);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.123).ok());
  SampleHistogramEstimator estimator(graph, {10.0, 20.0, 30.0},
                                     {0.01});
  EXPECT_EQ(estimator.kind(), EstimatorKind::kSampleHistogram);
  EXPECT_FALSE(estimator.exact());
  EXPECT_EQ(estimator.EdgeSelectivity(0, 1), 0.01);
  // est({0,1}) = 10 * 20 * 0.01; est({0,2}) = 10 * 30 (no edge).
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCardinality(RelSet::Singleton(0).With(1)), 2.0);
  EXPECT_DOUBLE_EQ(
      estimator.EstimateCardinality(RelSet::Singleton(0).With(2)), 300.0);
  std::vector<double> all;
  estimator.EstimateAll(&all);
  ASSERT_EQ(all.size(), 8u);
  for (std::uint64_t word = 1; word < 8; ++word) {
    EXPECT_EQ(all[word], estimator.EstimateCardinality(RelSet::FromWord(word)))
        << "subset word " << word;
  }
}

TEST(BuildHistogramEstimatorTest, BuildsFromGeneratedTables) {
  Result<Workload> w = ChainWorkload(5);
  ASSERT_TRUE(w.ok());
  Result<std::vector<ExecTable>> tables =
      GenerateTables(w->catalog, w->graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  Result<std::unique_ptr<SampleHistogramEstimator>> built =
      BuildHistogramEstimator(w->graph, *tables);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SampleHistogramEstimator& estimator = **built;
  EXPECT_EQ(estimator.num_relations(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(estimator.BaseCardinality(i), 1.0);
  }
  // Every estimate must be positive and finite — the downstream contract.
  for (std::uint64_t word = 1; word < (1ull << 5); ++word) {
    const double est = estimator.EstimateCardinality(RelSet::FromWord(word));
    EXPECT_GT(est, 0.0);
    EXPECT_TRUE(std::isfinite(est));
  }
}

TEST(BuildHistogramEstimatorTest, MissingColumnsDegradeToNoAssumption) {
  // Tables without join-key columns: every edge keeps selectivity 1.0.
  JoinGraph graph(2);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.5).ok());
  std::vector<ExecTable> tables;
  tables.emplace_back(0, 10);
  tables.emplace_back(1, 20);
  Result<std::unique_ptr<SampleHistogramEstimator>> built =
      BuildHistogramEstimator(graph, tables);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->EdgeSelectivity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(
      (*built)->EstimateCardinality(RelSet::Singleton(0).With(1)), 200.0);
}

TEST(BuildHistogramEstimatorTest, RejectsMismatchedTableSets) {
  JoinGraph graph(2);
  std::vector<ExecTable> one;
  one.emplace_back(0, 10);
  EXPECT_FALSE(BuildHistogramEstimator(graph, one).ok());
  std::vector<ExecTable> dup;
  dup.emplace_back(0, 10);
  dup.emplace_back(0, 10);
  EXPECT_FALSE(BuildHistogramEstimator(graph, dup).ok());
}

// ---------------------------------------------------------------------------
// Bit-identity: the exact estimator must be invisible to the DP.

TEST(EstimatorBitIdentityTest, PaperEstimatorLeavesDpTableUnchanged) {
  for (const auto topology : {Topology::kChain, Topology::kStar,
                              Topology::kClique}) {
    WorkloadSpec spec;
    spec.num_relations = 8;
    spec.topology = topology;
    spec.mean_cardinality = 1e4;
    spec.variability = 0.5;
    Result<Workload> w = MakeWorkload(spec);
    ASSERT_TRUE(w.ok());
    PaperFanoutEstimator estimator(w->catalog, w->graph);
    for (const CostModelKind model :
         {CostModelKind::kNaive, CostModelKind::kSortMerge,
          CostModelKind::kDiskNestedLoops}) {
      OptimizerOptions plain;
      plain.cost_model = model;
      Result<OptimizeOutcome> reference =
          OptimizeJoin(w->catalog, w->graph, plain);
      ASSERT_TRUE(reference.ok());

      OptimizerOptions with_estimator = plain;
      with_estimator.estimator = &estimator;
      Result<OptimizeOutcome> outcome =
          OptimizeJoin(w->catalog, w->graph, with_estimator);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->estimator, EstimatorKind::kPaperFanout);

      const fuzz::OracleVerdict tables =
          fuzz::TablesBitIdentical(outcome->table, reference->table);
      EXPECT_TRUE(tables.ok) << tables.message;
    }
  }
}

TEST(EstimatorBitIdentityTest, DifferentialHarnessSweepsAllKinds) {
  // The fuzzer's own estimator leg: paper checked for bit-identity, hist
  // and noest for valid-plan invariants, across a few generated cases.
  fuzz::FuzzerOptions options;
  options.seed = 20260809;
  std::vector<std::pair<fuzz::FuzzerOptions, std::uint64_t>> cases;
  for (std::uint64_t i = 0; i < 6; ++i) cases.emplace_back(options, i);
  // Seed 1 case 92 (fuzz_blitzsplit defaults): every plan's estimated cost
  // overflows float, so the estimator run finds none and must be confirmed
  // by an overflowing greedy witness.
  cases.emplace_back(fuzz::FuzzerOptions{}, 92);
  fuzz::DifferentialOptions diff;
  diff.brute_force_max_n = 8;
  diff.estimators = {EstimatorKind::kPaperFanout,
                     EstimatorKind::kSampleHistogram,
                     EstimatorKind::kNoEstimate};
  for (const auto& [fuzzer_options, index] : cases) {
    Result<fuzz::FuzzCase> c = fuzz::GenerateCase(fuzzer_options, index);
    ASSERT_TRUE(c.ok());
    const fuzz::CaseVerdict verdict = fuzz::RunDifferentialCase(*c, diff);
    EXPECT_TRUE(verdict.passed) << c->label << ": " << verdict.ToString();
  }
}

// ---------------------------------------------------------------------------
// Non-exact estimators: valid plans, regret >= 1 under true recost.

TEST(EstimatorPlanTest, NonExactEstimatorsProduceValidPlans) {
  Result<Workload> w = CliqueWorkload(8);
  ASSERT_TRUE(w.ok());

  QueryOptimizerOptions exact_options;
  exact_options.collect_report = true;
  Result<OptimizedQuery> exact =
      OptimizeQuery(w->catalog, w->graph, exact_options);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(exact->cost, 0.0);
  ASSERT_TRUE(exact->report.has_value());
  EXPECT_EQ(exact->report->estimator, EstimatorKind::kPaperFanout);

  NoEstimateEstimator no_estimate(w->graph);
  Result<std::vector<ExecTable>> tables =
      GenerateTables(w->catalog, w->graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok());
  Result<std::unique_ptr<SampleHistogramEstimator>> histogram =
      BuildHistogramEstimator(w->graph, *tables);
  ASSERT_TRUE(histogram.ok());

  const struct {
    const CardinalityEstimator* estimator;
    EstimatorKind kind;
  } cases[] = {
      {&no_estimate, EstimatorKind::kNoEstimate},
      {histogram->get(), EstimatorKind::kSampleHistogram},
  };
  for (const auto& c : cases) {
    QueryOptimizerOptions options;
    options.estimator = c.estimator;
    options.collect_report = true;
    Result<OptimizedQuery> optimized =
        OptimizeQuery(w->catalog, w->graph, options);
    ASSERT_TRUE(optimized.ok()) << EstimatorKindName(c.kind);
    ASSERT_TRUE(optimized->report.has_value());
    EXPECT_EQ(optimized->report->estimator, c.kind);
    EXPECT_EQ(optimized->plan.relations(), w->catalog.AllRelations());
    // OptimizedQuery::cost is re-evaluated under the true statistics, so
    // the exact plan's cost bounds it from below (up to float jitter).
    EXPECT_TRUE(std::isfinite(optimized->cost));
    EXPECT_GE(optimized->cost, exact->cost * 0.999)
        << EstimatorKindName(c.kind);
  }
}

TEST(EstimatorPlanTest, EstimatorRelationCountMismatchIsRejected) {
  Result<Workload> small = ChainWorkload(4);
  Result<Workload> big = ChainWorkload(6);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  NoEstimateEstimator mismatched(small->graph);
  QueryOptimizerOptions options;
  options.estimator = &mismatched;
  Result<OptimizedQuery> optimized =
      OptimizeQuery(big->catalog, big->graph, options);
  EXPECT_FALSE(optimized.ok());
}

// ---------------------------------------------------------------------------
// Satellite: one invalid-cardinality error text everywhere.

constexpr char kInvalidCardinalityText[] = "has invalid cardinality";

TEST(CardinalityErrorTextTest, CatalogWorkloadAndBjqAgree) {
  // The canonical validator names the relation.
  const Status direct = ValidateRelationCardinality("users", -3.0);
  EXPECT_FALSE(direct.ok());
  EXPECT_NE(direct.message().find("users"), std::string::npos);
  EXPECT_NE(direct.message().find(kInvalidCardinalityText),
            std::string::npos);

  // Catalog::Create routes through it.
  Result<Catalog> catalog =
      Catalog::Create({{"ok", 10.0}, {"broken", 0.0}});
  ASSERT_FALSE(catalog.ok());
  EXPECT_NE(catalog.status().message().find("broken"), std::string::npos);
  EXPECT_NE(catalog.status().message().find(kInvalidCardinalityText),
            std::string::npos);

  // MakeWorkloadFromEdges routes through it when the cardinality ladder
  // overflows to infinity.
  Result<Workload> workload = MakeWorkloadFromEdges(
      4, /*mean_cardinality=*/1e308, /*variability=*/1.0, {{0, 1}});
  ASSERT_FALSE(workload.ok());
  EXPECT_NE(workload.status().message().find(kInvalidCardinalityText),
            std::string::npos);

  // The .bjq parser routes through it (wrapped in its line error).
  Result<QuerySpec> spec = ParseBjq("relation A 100\nrelation B -5\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("B"), std::string::npos);
  EXPECT_NE(spec.status().message().find(kInvalidCardinalityText),
            std::string::npos);
}

}  // namespace
}  // namespace blitz
