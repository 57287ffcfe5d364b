// Determinism contract of the rank-synchronous parallel optimizer: for any
// thread count, the filled DP table — costs, cardinalities, and chosen
// splits — is bit-identical to the sequential driver's, and the operation
// counters fold to exactly the sequential totals.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "card/histogram.h"
#include "card/no_estimate.h"
#include "core/dp_table.h"
#include "core/optimizer.h"
#include "exec/datagen.h"
#include "exec/relation.h"
#include "exec/stats.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "query/workload.h"
#include "test_util.h"
#include "testing/fuzzer.h"
#include "testing/oracles.h"

namespace blitz {
namespace {

/// Asserts every allocated column of `a` and `b` is bitwise equal.
void ExpectTablesBitIdentical(DpTable* a, DpTable* b) {
  ASSERT_EQ(a->num_relations(), b->num_relations());
  ASSERT_EQ(a->has_pi_fan(), b->has_pi_fan());
  ASSERT_EQ(a->has_aux(), b->has_aux());
  const std::size_t rows = static_cast<std::size_t>(a->size());
  EXPECT_EQ(std::memcmp(a->cost_data(), b->cost_data(),
                        rows * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(a->card_data(), b->card_data(),
                        rows * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(a->best_lhs_data(), b->best_lhs_data(),
                        rows * sizeof(std::uint32_t)),
            0);
  if (a->has_pi_fan()) {
    EXPECT_EQ(std::memcmp(a->pi_fan_data(), b->pi_fan_data(),
                          rows * sizeof(double)),
              0);
  }
  if (a->has_aux()) {
    EXPECT_EQ(std::memcmp(a->aux_data(), b->aux_data(),
                          rows * sizeof(double)),
              0);
  }
}

OptimizerOptions ParallelOptions(CostModelKind model, int threads,
                                 std::uint64_t min_rank = 4) {
  OptimizerOptions options;
  options.cost_model = model;
  options.count_operations = true;
  options.parallel.num_threads = threads;
  // Lowered so the widest ranks of modest test problems actually fan out.
  options.parallel.min_parallel_rank = min_rank;
  return options;
}

constexpr CostModelKind kModels[] = {CostModelKind::kNaive,
                                     CostModelKind::kSortMerge,
                                     CostModelKind::kMinAll};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

TEST(ParallelDeterminismTest, GeneratedSweepBitIdenticalAcrossConfigGrid) {
  // Generator-driven exhaustive sweep at n = 10: every sampled topology
  // (chain / star / clique / random(p), varied cardinality ladders), every
  // cost model, and the full {threads} x {simd kernel} grid must land on
  // the sequential scalar run's table lane for lane, with identical
  // operation counters. Replaces the two hand-enumerated instances the
  // suite started with — the workload fuzzer (src/testing/fuzzer.h) now
  // supplies the cases, deterministically from one seed.
  const fuzz::FuzzerOptions generator{/*seed=*/20260807,
                                      /*min_relations=*/10,
                                      /*max_relations=*/10};
  ASSERT_TRUE(generator.Validate().ok());
  constexpr CostModelKind kSweepModels[] = {CostModelKind::kNaive,
                                            CostModelKind::kSortMerge,
                                            CostModelKind::kDiskNestedLoops};
  for (std::uint64_t case_index = 0; case_index < 8; ++case_index) {
    Result<fuzz::FuzzCase> c = fuzz::GenerateCase(generator, case_index);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    for (const CostModelKind model : kSweepModels) {
      OptimizerOptions reference = ParallelOptions(model, 1);
      reference.simd = SimdLevel::kScalar;
      Result<OptimizeOutcome> baseline =
          OptimizeJoin(c->catalog, c->graph, reference);
      ASSERT_TRUE(baseline.ok()) << c->label;
      Result<Plan> baseline_plan = Plan::ExtractFromTable(baseline->table);
      ASSERT_TRUE(baseline_plan.ok()) << c->label;
      for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kBlock}) {
        for (const int threads : kThreadCounts) {
          OptimizerOptions options = ParallelOptions(model, threads);
          options.simd = level;
          Result<OptimizeOutcome> outcome =
              OptimizeJoin(c->catalog, c->graph, options);
          ASSERT_TRUE(outcome.ok())
              << c->label << " threads=" << threads
              << " simd=" << SimdLevelName(level);
          EXPECT_EQ(outcome->cost, baseline->cost) << c->label;
          ExpectTablesBitIdentical(&outcome->table, &baseline->table);
          EXPECT_EQ(outcome->counters.subsets_visited,
                    baseline->counters.subsets_visited);
          EXPECT_EQ(outcome->counters.loop_iterations,
                    baseline->counters.loop_iterations);
          EXPECT_EQ(outcome->counters.improvements,
                    baseline->counters.improvements);
          // Identical best_lhs columns imply identical extracted plans;
          // check the visible artifact too.
          Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
          ASSERT_TRUE(plan.ok());
          EXPECT_EQ(plan->ToString(), baseline_plan->ToString()) << c->label;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, ThresholdRejectionIsDeterministicToo) {
  // A biting cost threshold exercises the kappa' skip and rejection paths;
  // the rejected-row pattern must not depend on the thread count.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(12, /*seed=*/7);
  OptimizerOptions sequential = ParallelOptions(CostModelKind::kNaive, 1);
  sequential.cost_threshold = 1e6f;
  Result<OptimizeOutcome> baseline =
      OptimizeJoin(instance.catalog, instance.graph, sequential);
  ASSERT_TRUE(baseline.ok());
  for (const int threads : {2, 8}) {
    OptimizerOptions parallel = ParallelOptions(CostModelKind::kNaive, threads);
    parallel.cost_threshold = 1e6f;
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance.catalog, instance.graph, parallel);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->cost, baseline->cost);
    ExpectTablesBitIdentical(&outcome->table, &baseline->table);
    EXPECT_EQ(outcome->counters.threshold_skips,
              baseline->counters.threshold_skips);
  }
}

TEST(ParallelDeterminismTest, TinyProblemForcedParallelMatchesPaperExample) {
  // min_parallel_rank = 1 forces the rank driver even at n = 4, covering
  // the degenerate chunks-smaller-than-threads paths against the worked
  // Table 1 / Figure 3 example.
  const Catalog catalog = testing::Table1Catalog();
  const JoinGraph graph = testing::Figure3Graph();
  Result<OptimizeOutcome> baseline =
      OptimizeJoin(catalog, graph, OptimizerOptions{});
  ASSERT_TRUE(baseline.ok());
  for (const int threads : {2, 8}) {
    Result<OptimizeOutcome> outcome = OptimizeJoin(
        catalog, graph,
        ParallelOptions(CostModelKind::kNaive, threads, /*min_rank=*/1));
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->cost, baseline->cost);
    ExpectTablesBitIdentical(&outcome->table, &baseline->table);
  }
}

TEST(ParallelDeterminismTest, DefaultOptionsKeepSmallProblemsSequential) {
  // The default min_parallel_rank leaves every n <= 13 on the sequential
  // path even when threads are requested — the zero-new-overhead contract.
  ParallelOptimizerOptions parallel;
  parallel.num_threads = 8;
  for (int n = 2; n <= 13; ++n) EXPECT_FALSE(parallel.ShouldParallelize(n));
  EXPECT_TRUE(parallel.ShouldParallelize(14));  // C(14,7) = 3432 >= 2048
  // And a single thread never parallelizes anything.
  ParallelOptimizerOptions single;
  for (int n = 2; n <= 30; ++n) EXPECT_FALSE(single.ShouldParallelize(n));
}

TEST(ParallelDeterminismTest, SimdLevelsBitIdenticalAcrossThreadCounts) {
  // The SIMD split filter composes with the rank driver: every worker of a
  // pass runs the same resolved kernel, so (simd level x thread count) must
  // land on the one sequential-scalar table. kAvx2/kAvx512 requests clamp
  // down on machines without the instruction set, so this passes (with
  // reduced coverage) anywhere.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(13, /*seed=*/23);
  OptimizerOptions reference = ParallelOptions(CostModelKind::kSortMerge, 1);
  reference.simd = SimdLevel::kScalar;
  Result<OptimizeOutcome> baseline =
      OptimizeJoin(instance.catalog, instance.graph, reference);
  ASSERT_TRUE(baseline.ok());
  for (const SimdLevel level :
       {SimdLevel::kBlock, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    for (const int threads : {2, 8}) {
      OptimizerOptions options =
          ParallelOptions(CostModelKind::kSortMerge, threads);
      options.simd = level;
      Result<OptimizeOutcome> outcome =
          OptimizeJoin(instance.catalog, instance.graph, options);
      ASSERT_TRUE(outcome.ok())
          << SimdLevelName(level) << " threads=" << threads;
      EXPECT_EQ(outcome->cost, baseline->cost);
      ExpectTablesBitIdentical(&outcome->table, &baseline->table);
      EXPECT_EQ(outcome->counters.loop_iterations,
                baseline->counters.loop_iterations);
      EXPECT_EQ(outcome->counters.improvements,
                baseline->counters.improvements);
    }
  }
}

TEST(ParallelDeterminismTest, TieBreaksIdenticalUnderSimdAndThreads) {
  // Equal-cardinality Cartesian products make every same-size split of a
  // subset cost exactly the same; the recorded best_lhs is then purely the
  // first strict improvement in successor order. Pin that choice: the
  // best_lhs column (not just the cost) must match the sequential scalar
  // run lane for lane under every kernel and thread count.
  const std::vector<double> cards(12, 100.0);
  Result<Catalog> catalog = Catalog::FromCardinalities(cards);
  ASSERT_TRUE(catalog.ok());
  OptimizerOptions reference = ParallelOptions(CostModelKind::kNaive, 1);
  reference.simd = SimdLevel::kScalar;
  Result<OptimizeOutcome> baseline = OptimizeCartesian(*catalog, reference);
  ASSERT_TRUE(baseline.ok());
  for (const SimdLevel level : {SimdLevel::kBlock, SimdLevel::kAvx512}) {
    for (const int threads : {1, 4}) {
      OptimizerOptions options = ParallelOptions(CostModelKind::kNaive,
                                                 threads);
      options.simd = level;
      Result<OptimizeOutcome> outcome = OptimizeCartesian(*catalog, options);
      ASSERT_TRUE(outcome.ok());
      const std::size_t rows = static_cast<std::size_t>(baseline->table.size());
      ASSERT_EQ(std::memcmp(outcome->table.best_lhs_data(),
                            baseline->table.best_lhs_data(),
                            rows * sizeof(std::uint32_t)),
                0)
          << SimdLevelName(level) << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, AutoThreadCountIsValidConfiguration) {
  // num_threads = 0 resolves to the hardware thread count; on any machine
  // the result must still be exact and bit-stable.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(12, /*seed=*/11);
  Result<OptimizeOutcome> baseline = OptimizeJoin(
      instance.catalog, instance.graph, OptimizerOptions{});
  ASSERT_TRUE(baseline.ok());
  OptimizerOptions automatic;
  automatic.parallel.num_threads = 0;
  automatic.parallel.min_parallel_rank = 4;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, automatic);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->cost, baseline->cost);
  ExpectTablesBitIdentical(&outcome->table, &baseline->table);
}

/// Installs a metrics registry for the test's scope.
struct ScopedMetrics {
  ScopedMetrics() { SetGlobalMetrics(&registry); }
  ~ScopedMetrics() { SetGlobalMetrics(nullptr); }
  std::uint64_t Counter(std::string_view name) const {
    for (const auto& [counter, value] : registry.TakeSnapshot().counters) {
      if (counter == name) return value;
    }
    return 0;
  }
  MetricsRegistry registry;
};

TEST(ParallelDeterminismTest, NonExactEstimatorsRunRankParallel) {
  // Preloaded cardinalities (hist, noest) run through the same
  // rank-synchronous driver as the exact derivation: every (threads x simd)
  // combination must land on the estimator's own sequential scalar table
  // with identical counters, and every such pass must be a ranked pass.
  WorkloadSpec spec;
  spec.num_relations = 14;
  spec.topology = Topology::kCyclePlus3;
  spec.mean_cardinality = 1e3;
  spec.variability = 0.5;
  Result<Workload> w = MakeWorkload(spec);
  ASSERT_TRUE(w.ok());
  NoEstimateEstimator no_estimate(w->graph);
  Result<std::vector<ExecTable>> tables =
      GenerateTables(w->catalog, w->graph, DataGenOptions{});
  ASSERT_TRUE(tables.ok());
  Result<std::unique_ptr<SampleHistogramEstimator>> histogram =
      BuildHistogramEstimator(w->graph, *tables);
  ASSERT_TRUE(histogram.ok());

  ScopedMetrics metrics;
  for (const CardinalityEstimator* estimator :
       {static_cast<const CardinalityEstimator*>(&no_estimate),
        static_cast<const CardinalityEstimator*>(histogram->get())}) {
    OptimizerOptions reference =
        ParallelOptions(CostModelKind::kSortMerge, 1, /*min_rank=*/1);
    reference.simd = SimdLevel::kScalar;
    reference.estimator = estimator;
    Result<OptimizeOutcome> baseline =
        OptimizeJoin(w->catalog, w->graph, reference);
    ASSERT_TRUE(baseline.ok()) << estimator->name();
    ASSERT_EQ(baseline->estimator, estimator->kind());
    for (const int threads : {2, 4}) {
      for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kBlock}) {
        OptimizerOptions options =
            ParallelOptions(CostModelKind::kSortMerge, threads,
                            /*min_rank=*/1);
        options.simd = level;
        options.estimator = estimator;
        const std::uint64_t passes = metrics.Counter("parallel.passes");
        Result<OptimizeOutcome> outcome =
            OptimizeJoin(w->catalog, w->graph, options);
        ASSERT_TRUE(outcome.ok()) << estimator->name();
        const std::string config = std::string(estimator->name()) +
                                   " threads=" + std::to_string(threads) +
                                   " simd=" + SimdLevelName(level);
        EXPECT_EQ(metrics.Counter("parallel.passes"), passes + 1) << config;
        const fuzz::OracleVerdict identical =
            fuzz::TablesBitIdentical(outcome->table, baseline->table);
        EXPECT_TRUE(identical.ok) << config << ": " << identical.message;
        EXPECT_EQ(outcome->counters.ToString(),
                  baseline->counters.ToString())
            << config;
      }
    }
  }
}

}  // namespace
}  // namespace blitz
