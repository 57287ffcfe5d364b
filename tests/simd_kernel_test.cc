// Bit-identity contract of the SIMD split-filter kernel (src/simd/): for
// every dispatch level, every cost model, and every topology, the filled DP
// table — costs, cardinalities, chosen splits, Pi_fan, and the per-model
// memo column — is byte-for-byte the table the classic scalar nested-if
// loop produces, and the Section 3.3 operation counters match exactly. The
// SIMD path is a pure filter: lanes that might improve the best split are
// re-run through the scalar body in successor order, so not just the
// optimum but every tie-break and every counter is preserved.
//
// Counting passes filter on the operand gate. Passes that count nothing —
// the production path — filter kappa_sm and kappa_dnl on the whole split
// cost instead (simd/split_filter.h); the Production* cases below hold
// that path to the same table bit-identity, at one and four threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/dp_table.h"
#include "core/optimizer.h"
#include "obs/profiler/phase_profile.h"
#include "plan/plan.h"
#include "query/workload.h"
#include "simd/dispatch.h"
#include "test_util.h"

namespace blitz {
namespace {

/// Asserts every allocated column of `a` and `b` is bitwise equal.
void ExpectTablesBitIdentical(DpTable* a, DpTable* b) {
  ASSERT_EQ(a->num_relations(), b->num_relations());
  ASSERT_EQ(a->has_pi_fan(), b->has_pi_fan());
  ASSERT_EQ(a->has_aux(), b->has_aux());
  const std::size_t rows = static_cast<std::size_t>(a->size());
  EXPECT_EQ(std::memcmp(a->cost_data(), b->cost_data(), rows * sizeof(float)),
            0);
  EXPECT_EQ(
      std::memcmp(a->card_data(), b->card_data(), rows * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a->best_lhs_data(), b->best_lhs_data(),
                        rows * sizeof(std::uint32_t)),
            0);
  if (a->has_pi_fan()) {
    EXPECT_EQ(std::memcmp(a->pi_fan_data(), b->pi_fan_data(),
                          rows * sizeof(double)),
              0);
  }
  if (a->has_aux()) {
    EXPECT_EQ(
        std::memcmp(a->aux_data(), b->aux_data(), rows * sizeof(double)), 0);
  }
}

/// Asserts the full Section 3.3 / 6.2 counter set matches — the filter may
/// not change how often any instrumented event fires, only when the gates
/// around it are evaluated.
void ExpectCountersEqual(const CountingInstrumentation& a,
                         const CountingInstrumentation& b) {
  EXPECT_EQ(a.subsets_visited, b.subsets_visited);
  EXPECT_EQ(a.loop_iterations, b.loop_iterations);
  EXPECT_EQ(a.operand_passes, b.operand_passes);
  EXPECT_EQ(a.kappa2_evaluations, b.kappa2_evaluations);
  EXPECT_EQ(a.improvements, b.improvements);
  EXPECT_EQ(a.threshold_skips, b.threshold_skips);
}

OptimizerOptions SimdOptions(CostModelKind model, SimdLevel level,
                             float threshold = kRejectedCost) {
  OptimizerOptions options;
  options.cost_model = model;
  options.count_operations = true;
  options.cost_threshold = threshold;
  options.simd = level;
  return options;
}

// The forced levels under test. On a CPU (or build) without the matching
// instruction set the dispatcher clamps a request down, so on any machine
// each case degenerates to a supported kernel and the suite still passes —
// the full matrix runs where the hardware allows it.
constexpr SimdLevel kLevels[] = {SimdLevel::kBlock, SimdLevel::kAvx2,
                                 SimdLevel::kAvx512};

constexpr CostModelKind kModels[] = {CostModelKind::kNaive,
                                     CostModelKind::kSortMerge,
                                     CostModelKind::kDiskNestedLoops};

void ExpectJoinBitIdentical(const Catalog& catalog, const JoinGraph& graph,
                            CostModelKind model, float threshold) {
  Result<OptimizeOutcome> baseline = OptimizeJoin(
      catalog, graph, SimdOptions(model, SimdLevel::kScalar, threshold));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->simd_level, SimdLevel::kScalar);
  for (const SimdLevel level : kLevels) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(catalog, graph, SimdOptions(model, level, threshold));
    ASSERT_TRUE(outcome.ok()) << SimdLevelName(level);
    EXPECT_EQ(outcome->cost, baseline->cost) << SimdLevelName(level);
    ExpectTablesBitIdentical(&outcome->table, &baseline->table);
    ExpectCountersEqual(outcome->counters, baseline->counters);
  }
}

TEST(SimdKernelTest, TopologyMatrixBitIdenticalAcrossLevels) {
  // Appendix workloads: every topology shape the paper sweeps, at an n
  // large enough that most subsets clear the kSimdMinPopcount gate.
  for (const Topology topology :
       {Topology::kChain, Topology::kStar, Topology::kClique}) {
    WorkloadSpec spec;
    spec.num_relations = 11;
    spec.topology = topology;
    spec.mean_cardinality = 100.0;
    spec.variability = 0.5;
    Result<Workload> workload = MakeWorkload(spec);
    ASSERT_TRUE(workload.ok());
    for (const CostModelKind model : kModels) {
      ExpectJoinBitIdentical(workload->catalog, workload->graph, model,
                             kRejectedCost);
    }
  }
}

TEST(SimdKernelTest, RandomInstancesBitIdenticalAcrossLevels) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const testing::RandomInstance instance =
        testing::MakeRandomInstance(12, seed);
    for (const CostModelKind model : kModels) {
      ExpectJoinBitIdentical(instance.catalog, instance.graph, model,
                             kRejectedCost);
    }
  }
}

TEST(SimdKernelTest, CartesianProductBitIdenticalAcrossLevels) {
  // Figure 2's setting — equal cardinalities, no predicates — is the
  // worst case for tie-breaking: every same-size split of a subset costs
  // the same, so the winner is purely "first strict improvement in
  // successor order". Bit-identical best_lhs columns prove the filter
  // preserves that order exactly.
  const std::vector<double> cards(12, 100.0);
  Result<Catalog> catalog = Catalog::FromCardinalities(cards);
  ASSERT_TRUE(catalog.ok());
  for (const CostModelKind model : kModels) {
    Result<OptimizeOutcome> baseline =
        OptimizeCartesian(*catalog, SimdOptions(model, SimdLevel::kScalar));
    ASSERT_TRUE(baseline.ok());
    for (const SimdLevel level : kLevels) {
      Result<OptimizeOutcome> outcome =
          OptimizeCartesian(*catalog, SimdOptions(model, level));
      ASSERT_TRUE(outcome.ok()) << SimdLevelName(level);
      ExpectTablesBitIdentical(&outcome->table, &baseline->table);
      ExpectCountersEqual(outcome->counters, baseline->counters);
    }
  }
}

TEST(SimdKernelTest, FiniteThresholdRejectionBitIdentical) {
  // A biting Section 6.4 threshold fills the table with kRejectedCost
  // rows; the filter compares against +inf lanes and must reproduce the
  // identical rejection pattern and threshold_skips count.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(11, /*seed=*/7);
  for (const CostModelKind model : kModels) {
    ExpectJoinBitIdentical(instance.catalog, instance.graph, model,
                           /*threshold=*/1e5f);
  }
}

TEST(SimdKernelTest, ExtractedPlansIdenticalAcrossLevels) {
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(10, /*seed=*/42);
  Result<OptimizeOutcome> baseline = OptimizeJoin(
      instance.catalog, instance.graph,
      SimdOptions(CostModelKind::kSortMerge, SimdLevel::kScalar));
  ASSERT_TRUE(baseline.ok());
  Result<Plan> baseline_plan = Plan::ExtractFromTable(baseline->table);
  ASSERT_TRUE(baseline_plan.ok());
  for (const SimdLevel level : kLevels) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance.catalog, instance.graph,
                     SimdOptions(CostModelKind::kSortMerge, level));
    ASSERT_TRUE(outcome.ok());
    Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->ToString(), baseline_plan->ToString());
  }
}

TEST(SimdKernelTest, SmallProblemsBelowPopcountGateStillExact) {
  // n <= kSimdMinPopcount problems never enter the blocked path at all;
  // requesting a SIMD level must be a clean no-op.
  const Catalog catalog = testing::Table1Catalog();
  const JoinGraph graph = testing::Figure3Graph();
  Result<OptimizeOutcome> baseline = OptimizeJoin(
      catalog, graph, SimdOptions(CostModelKind::kNaive, SimdLevel::kScalar));
  ASSERT_TRUE(baseline.ok());
  for (const SimdLevel level : kLevels) {
    Result<OptimizeOutcome> outcome = OptimizeJoin(
        catalog, graph, SimdOptions(CostModelKind::kNaive, level));
    ASSERT_TRUE(outcome.ok());
    ExpectTablesBitIdentical(&outcome->table, &baseline->table);
    ExpectCountersEqual(outcome->counters, baseline->counters);
  }
}

TEST(SimdKernelTest, FlatAblationIgnoresSimdRequest) {
  // The nested_ifs = false ablation has no short-circuit gate to
  // vectorize; it must run (and report) scalar no matter what was asked.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(9, /*seed=*/5);
  OptimizerOptions options = SimdOptions(CostModelKind::kNaive,
                                         SimdLevel::kAvx2);
  options.nested_ifs = false;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->simd_level, SimdLevel::kScalar);
  OptimizerOptions scalar = options;
  scalar.simd = SimdLevel::kScalar;
  Result<OptimizeOutcome> baseline =
      OptimizeJoin(instance.catalog, instance.graph, scalar);
  ASSERT_TRUE(baseline.ok());
  ExpectTablesBitIdentical(&outcome->table, &baseline->table);
  ExpectCountersEqual(outcome->counters, baseline->counters);
}

TEST(SimdKernelTest, OutcomeReportsResolvedLevel) {
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(8, /*seed=*/1);
  for (const SimdLevel level : kLevels) {
    Result<OptimizeOutcome> outcome = OptimizeJoin(
        instance.catalog, instance.graph,
        SimdOptions(CostModelKind::kNaive, level));
    ASSERT_TRUE(outcome.ok());
    // The reported level is the request clamped to this machine — never
    // kAuto, never above the request.
    EXPECT_EQ(outcome->simd_level, ResolveSimdLevel(level));
    EXPECT_NE(outcome->simd_level, SimdLevel::kAuto);
  }
}

// --- Production passes (count_operations = false) -----------------------

constexpr int kThreadCounts[] = {1, 4};

OptimizerOptions ProductionOptions(CostModelKind model, SimdLevel level,
                                   int threads, float threshold) {
  OptimizerOptions options;
  options.cost_model = model;
  options.count_operations = false;
  options.cost_threshold = threshold;
  options.simd = level;
  options.parallel.num_threads = threads;
  // Low enough that n = 11-12 problems fan most ranks out.
  options.parallel.min_parallel_rank = 4;
  return options;
}

/// Runs the join (graph non-null) or Cartesian product under every level
/// and thread count with counting off and compares each table to the
/// scalar sequential one. Returns the reference table's rejected-row count
/// so callers can assert the case exercises the overflow band.
std::uint64_t ExpectProductionBitIdentical(const Catalog& catalog,
                                           const JoinGraph* graph,
                                           CostModelKind model,
                                           float threshold) {
  const auto run = [&](SimdLevel level, int threads) {
    const OptimizerOptions options =
        ProductionOptions(model, level, threads, threshold);
    Result<OptimizeOutcome> outcome =
        graph != nullptr ? OptimizeJoin(catalog, *graph, options)
                         : OptimizeCartesian(catalog, options);
    BLITZ_CHECK(outcome.ok());
    return std::move(outcome).value();
  };
  OptimizeOutcome baseline = run(SimdLevel::kScalar, 1);
  for (const SimdLevel level : kLevels) {
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << CostModelKindToString(model) << " "
                   << SimdLevelName(level) << " threads=" << threads);
      OptimizeOutcome outcome = run(level, threads);
      EXPECT_EQ(outcome.simd_level, ResolveSimdLevel(level));
      EXPECT_EQ(outcome.cost, baseline.cost);
      ExpectTablesBitIdentical(&outcome.table, &baseline.table);
    }
  }
  std::uint64_t rejected = 0;
  for (std::uint64_t s = 1; s < baseline.table.size(); ++s) {
    if (baseline.table.rejected(RelSet::FromWord(s))) ++rejected;
  }
  return rejected;
}

TEST(SimdKernelTest, ProductionPassesBitIdenticalAcrossTopologies) {
  // Mean cardinality 1 makes kappa_sm's memo 1 for most rows, so many
  // splits tie exactly: the whole-cost filter must dismiss ties (strict
  // "<") without ever dismissing the first strict improvement.
  for (const Topology topology : {Topology::kChain, Topology::kStar,
                                  Topology::kClique, Topology::kCyclePlus3}) {
    for (const double mean : {1.0, 100.0, 1e4}) {
      WorkloadSpec spec;
      spec.num_relations = 11;
      spec.topology = topology;
      spec.mean_cardinality = mean;
      spec.variability = 0.5;
      Result<Workload> workload = MakeWorkload(spec);
      ASSERT_TRUE(workload.ok());
      for (const CostModelKind model : kModels) {
        ExpectProductionBitIdentical(workload->catalog, &workload->graph,
                                     model, kRejectedCost);
      }
    }
  }
}

TEST(SimdKernelTest, ProductionPassesBitIdenticalOnRandomInstances) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const testing::RandomInstance instance =
        testing::MakeRandomInstance(12, seed);
    for (const CostModelKind model : kModels) {
      ExpectProductionBitIdentical(instance.catalog, &instance.graph, model,
                                   kRejectedCost);
    }
  }
}

TEST(SimdKernelTest, ProductionCartesianTiesBitIdentical) {
  // Equal cardinalities: every same-size split of a subset costs the same,
  // so best_lhs is purely "first strict improvement in successor order".
  Result<Catalog> catalog =
      Catalog::FromCardinalities(std::vector<double>(12, 100.0));
  ASSERT_TRUE(catalog.ok());
  for (const CostModelKind model : kModels) {
    ExpectProductionBitIdentical(*catalog, nullptr, model, kRejectedCost);
  }
}

TEST(SimdKernelTest, ProductionFiniteThresholdBitIdentical) {
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(11, /*seed=*/7);
  for (const CostModelKind model : kModels) {
    const std::uint64_t rejected = ExpectProductionBitIdentical(
        instance.catalog, &instance.graph, model, /*threshold=*/1e5f);
    EXPECT_GT(rejected, 0u) << CostModelKindToString(model);
  }
}

TEST(SimdKernelTest, ProductionFloatOverflowBandBitIdentical) {
  // Cardinalities whose products cross FLT_MAX partway up the lattice:
  // small subsets cost finite floats, large ones overflow to +inf
  // (Section 6.3), and the rows in between sit in the overflow band where
  // a split's float cost rounds either to FLT_MAX-scale or to +inf. The
  // lanes must reproduce every one of those roundings.
  // Each model overflows somewhere on this cardinality ladder: naive and
  // dnl from the low rungs, sm (whose best split keeps both sides small)
  // only on the top one.
  for (const CostModelKind model : kModels) {
    std::uint64_t most_rejected = 0;
    for (const double card : {1.5e3, 2e4, 1e7}) {
      std::vector<double> cards;
      for (int i = 0; i < 12; ++i) cards.push_back(card * (1.0 + 0.1 * i));
      Result<Catalog> catalog = Catalog::FromCardinalities(cards);
      ASSERT_TRUE(catalog.ok());
      most_rejected = std::max(
          most_rejected, ExpectProductionBitIdentical(*catalog, nullptr, model,
                                                      kRejectedCost));
    }
    EXPECT_GT(most_rejected, 0u) << CostModelKindToString(model);
  }
  for (const std::uint64_t seed : {5u, 6u}) {
    const testing::RandomInstance instance = testing::MakeRandomInstance(
        12, seed, /*extra_edge_prob=*/0.3, /*card_max=*/1e12,
        /*sel_min=*/1e-3);
    for (const CostModelKind model : kModels) {
      ExpectProductionBitIdentical(instance.catalog, &instance.graph, model,
                                   kRejectedCost);
    }
  }
}

TEST(SimdKernelTest, ProductionAndCountingPassesFillOneTable) {
  // The two filters (whole cost without counting, operand gate with) are
  // both exact filters of one scalar algorithm: their tables agree.
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(12, /*seed=*/21);
  for (const CostModelKind model : kModels) {
    Result<OptimizeOutcome> counting = OptimizeJoin(
        instance.catalog, instance.graph,
        SimdOptions(model, SimdLevel::kAvx512));
    Result<OptimizeOutcome> production = OptimizeJoin(
        instance.catalog, instance.graph,
        ProductionOptions(model, SimdLevel::kAvx512, 1, kRejectedCost));
    ASSERT_TRUE(counting.ok());
    ASSERT_TRUE(production.ok());
    ExpectTablesBitIdentical(&production->table, &counting->table);
  }
}

TEST(SimdKernelTest, AutoDispatchConsultsGateTightnessAndProblemSize) {
  // Under kAuto the batched kernel engages only where its filter is the
  // complete cost comparison, and only from a measured minimum problem
  // size (below it the fixed batch setup cost outweighs the filtered
  // lanes; BENCH_fig2.json):
  //   - gate-tight models (kSplitGateTight: kappa'' = 0, where the operand
  //     gate is complete) from kSimdMinAutoRelations on, counting or not;
  //   - kappa_sm / kappa_dnl from kSimdMinAutoRelationsSortMerge /
  //     kSimdMinAutoRelationsDnl on, on passes that count nothing, which
  //     filter on the whole split cost. A counting (or profiling) pass
  //     keeps the operand gate, which passes nearly every lane of a
  //     kappa''-dominated model, so auto keeps the classic loop for it;
  //   - never for models without a whole-cost filter (hash, min).
  // An explicit request (options.simd or BLITZ_SIMD) still forces the
  // kernel for any model and size, so ablations can measure everything.
  testing::ScopedSimdEnv no_env(nullptr);
  const testing::RandomInstance small =
      testing::MakeRandomInstance(8, /*seed=*/3);
  const testing::RandomInstance large =
      testing::MakeRandomInstance(kSimdMinAutoRelations, /*seed=*/3);
  const auto run_with = [&](const testing::RandomInstance& instance,
                            const OptimizerOptions& options) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(instance.catalog, instance.graph, options);
    BLITZ_CHECK(outcome.ok());
    EXPECT_EQ(outcome->simd_level,
              EffectivePassSimdLevel(options,
                                     instance.catalog.num_relations()));
    return outcome->simd_level;
  };
  // Counting passes (SimdOptions sets count_operations).
  const auto run = [&](const testing::RandomInstance& instance,
                       CostModelKind model, SimdLevel request) {
    return run_with(instance, SimdOptions(model, request));
  };
  // Passes that count nothing.
  const auto run_production = [&](const testing::RandomInstance& instance,
                                  CostModelKind model) {
    return run_with(instance, ProductionOptions(model, SimdLevel::kAuto, 1,
                                                kRejectedCost));
  };
  EXPECT_EQ(run(large, CostModelKind::kNaive, SimdLevel::kAuto),
            DetectCpuSimdLevel());
  EXPECT_EQ(run_production(large, CostModelKind::kNaive),
            DetectCpuSimdLevel());
  // Below the minimum-n gate auto stays scalar even for a gate-tight model.
  EXPECT_EQ(run(small, CostModelKind::kNaive, SimdLevel::kAuto),
            SimdLevel::kScalar);
  EXPECT_EQ(run_production(small, CostModelKind::kNaive),
            SimdLevel::kScalar);
  // Counting passes of kappa''-dominated models keep the classic loop.
  EXPECT_EQ(run(large, CostModelKind::kSortMerge, SimdLevel::kAuto),
            SimdLevel::kScalar);
  EXPECT_EQ(run(large, CostModelKind::kDiskNestedLoops, SimdLevel::kAuto),
            SimdLevel::kScalar);
  // So do profiling passes, which keep the operand mask too.
  {
    PassProfile profile;
    OptimizerOptions profiled = ProductionOptions(
        CostModelKind::kSortMerge, SimdLevel::kAuto, 1, kRejectedCost);
    profiled.profile = &profile;
    EXPECT_EQ(run_with(large, profiled), SimdLevel::kScalar);
  }
  // Passes that count nothing engage the whole-cost filter from each
  // model's measured minimum size, and not below it.
  const struct {
    CostModelKind model;
    int min_relations;
  } kWholeCost[] = {
      {CostModelKind::kSortMerge, kSimdMinAutoRelationsSortMerge},
      {CostModelKind::kDiskNestedLoops, kSimdMinAutoRelationsDnl}};
  for (const auto& [model, min_relations] : kWholeCost) {
    const testing::RandomInstance at_min =
        testing::MakeRandomInstance(min_relations, /*seed=*/3);
    const testing::RandomInstance below_min =
        testing::MakeRandomInstance(min_relations - 1, /*seed=*/3);
    EXPECT_EQ(run_production(at_min, model), DetectCpuSimdLevel())
        << CostModelKindToString(model);
    EXPECT_EQ(run_production(below_min, model), SimdLevel::kScalar)
        << CostModelKindToString(model);
  }
  // Models without a whole-cost filter never engage under auto.
  for (const CostModelKind model :
       {CostModelKind::kHash, CostModelKind::kMinSmDnl,
        CostModelKind::kMinAll}) {
    EXPECT_EQ(run_production(large, model), SimdLevel::kScalar)
        << CostModelKindToString(model);
  }
  // Explicit requests override both the filter and minimum-n rules.
  EXPECT_EQ(run(small, CostModelKind::kSortMerge, SimdLevel::kAvx2),
            ResolveSimdLevel(SimdLevel::kAvx2));
  {
    // A BLITZ_SIMD override is explicit too: it reaches the kernel even
    // for a gate-loose model below the minimum size.
    testing::ScopedSimdEnv env("block");
    EXPECT_EQ(run(small, CostModelKind::kSortMerge, SimdLevel::kAuto),
              SimdLevel::kBlock);
  }
}

}  // namespace
}  // namespace blitz
