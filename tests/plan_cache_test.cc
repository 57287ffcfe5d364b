// Property tests for the serving tier's plan cache (serve/plancache.h):
// fingerprint canonicalization (relabeling and edge-order invariance,
// option/statistic sensitivity, no collisions across the Appendix grid),
// hit/miss/evict/bypass accounting, bit-identical reuse, and single-flight
// coalescing.

#include "serve/plancache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/optimize_query.h"
#include "card/no_estimate.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "governor/faultpoints.h"
#include "query/join_graph.h"
#include "testing/fuzzer.h"

namespace blitz {
namespace {

/// A small asymmetric problem: three relations with distinct cardinalities
/// on a chain, so the canonical labeling is forced by the statistics alone.
struct Problem {
  Catalog catalog;
  JoinGraph graph;
};

Problem ChainProblem() {
  Result<Catalog> catalog = Catalog::FromCardinalities({100, 2000, 35});
  EXPECT_TRUE(catalog.ok());
  JoinGraph graph(3);
  EXPECT_TRUE(graph.AddPredicate(0, 1, 0.01).ok());
  EXPECT_TRUE(graph.AddPredicate(1, 2, 0.05).ok());
  return {*std::move(catalog), std::move(graph)};
}

/// Applies permutation `p` (old index i -> new index p[i]) to a problem:
/// the same optimization problem under different relation labels.
Problem Permute(const Problem& problem, const std::vector<int>& p) {
  const int n = problem.catalog.num_relations();
  std::vector<RelationStats> relations(n);
  for (int i = 0; i < n; ++i) {
    relations[p[i]] = problem.catalog.relation(i);
  }
  Result<Catalog> catalog = Catalog::Create(std::move(relations));
  EXPECT_TRUE(catalog.ok());
  JoinGraph graph(n);
  for (const Predicate& edge : problem.graph.predicates()) {
    EXPECT_TRUE(
        graph.AddPredicate(p[edge.lhs], p[edge.rhs], edge.selectivity).ok());
  }
  return {*std::move(catalog), std::move(graph)};
}

std::vector<int> LeafRelations(const PlanNode& node) {
  if (node.is_leaf()) return {node.relation()};
  std::vector<int> leaves = LeafRelations(*node.left);
  const std::vector<int> right = LeafRelations(*node.right);
  leaves.insert(leaves.end(), right.begin(), right.end());
  return leaves;
}

TEST(PlanFingerprintTest, DeterministicAndEdgeOrderInvariant) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint a =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  const PlanFingerprint b =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  EXPECT_TRUE(a.exact_canonical);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.to_canonical, b.to_canonical);

  // The same graph with its edges declared in the opposite order.
  JoinGraph reordered(3);
  ASSERT_TRUE(reordered.AddPredicate(2, 1, 0.05).ok());
  ASSERT_TRUE(reordered.AddPredicate(1, 0, 0.01).ok());
  const PlanFingerprint c =
      ComputePlanFingerprint(problem.catalog, reordered, options);
  EXPECT_EQ(a.canonical, c.canonical);
}

TEST(PlanFingerprintTest, InvariantUnderRelationRelabeling) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint base =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  ASSERT_TRUE(base.exact_canonical);

  std::vector<int> perm = {0, 1, 2};
  do {
    const Problem relabeled = Permute(problem, perm);
    const PlanFingerprint fp =
        ComputePlanFingerprint(relabeled.catalog, relabeled.graph, options);
    EXPECT_TRUE(fp.exact_canonical);
    EXPECT_EQ(base.canonical, fp.canonical)
        << "perm " << perm[0] << perm[1] << perm[2];
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(PlanFingerprintTest, SymmetricProblemIsStillRelabelingInvariant) {
  // Four identical relations on a cycle: WL refinement alone cannot split
  // the colors, so this exercises the individualization-refinement search.
  Result<Catalog> catalog = Catalog::FromCardinalities({50, 50, 50, 50});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(4);
  ASSERT_TRUE(graph.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(1, 2, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(2, 3, 0.1).ok());
  ASSERT_TRUE(graph.AddPredicate(3, 0, 0.1).ok());
  const Problem problem{*std::move(catalog), std::move(graph)};

  const QueryOptimizerOptions options;
  const PlanFingerprint base =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  ASSERT_TRUE(base.exact_canonical);

  // Every cyclic rotation (and a reflection) is the same problem.
  const std::vector<std::vector<int>> perms = {
      {1, 2, 3, 0}, {2, 3, 0, 1}, {3, 0, 1, 2}, {3, 2, 1, 0}};
  for (const std::vector<int>& p : perms) {
    const Problem relabeled = Permute(problem, p);
    const PlanFingerprint fp =
        ComputePlanFingerprint(relabeled.catalog, relabeled.graph, options);
    EXPECT_TRUE(fp.exact_canonical);
    EXPECT_EQ(base.canonical, fp.canonical);
  }
}

TEST(PlanFingerprintTest, PlanAffectingChangesMiss) {
  const Problem problem = ChainProblem();
  QueryOptimizerOptions base_options;
  const PlanFingerprint base =
      ComputePlanFingerprint(problem.catalog, problem.graph, base_options);

  {  // Cost model.
    QueryOptimizerOptions options = base_options;
    options.cost_model = CostModelKind::kSortMerge;
    EXPECT_NE(base.canonical,
              ComputePlanFingerprint(problem.catalog, problem.graph, options)
                  .canonical);
  }
  {  // Estimator kind.
    QueryOptimizerOptions options = base_options;
    NoEstimateEstimator noest(problem.graph);
    options.estimator = &noest;
    EXPECT_NE(base.canonical,
              ComputePlanFingerprint(problem.catalog, problem.graph, options)
                  .canonical);
  }
  {  // Threshold ladder start.
    QueryOptimizerOptions options = base_options;
    options.initial_cost_threshold = 1e6f;
    EXPECT_NE(base.canonical,
              ComputePlanFingerprint(problem.catalog, problem.graph, options)
                  .canonical);
  }
  {  // Exhaustive limit (tier boundary).
    QueryOptimizerOptions options = base_options;
    options.exhaustive_limit = 4;
    EXPECT_NE(base.canonical,
              ComputePlanFingerprint(problem.catalog, problem.graph, options)
                  .canonical);
  }
  // Every hybrid search knob and the algorithm post-pass change the answer,
  // so each is keyed and changing any one misses.
  const auto canonical = [&](const QueryOptimizerOptions& options) {
    return ComputePlanFingerprint(problem.catalog, problem.graph, options)
        .canonical;
  };
  {  // Hybrid block size.
    QueryOptimizerOptions options = base_options;
    options.hybrid.block_size = 5;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Hybrid restarts.
    QueryOptimizerOptions options = base_options;
    options.hybrid.restarts = 2;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Hybrid seed.
    QueryOptimizerOptions options = base_options;
    options.hybrid.seed = 7;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Hybrid polish.
    QueryOptimizerOptions options = base_options;
    options.hybrid.polish = false;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Hybrid polish moves.
    QueryOptimizerOptions options = base_options;
    options.hybrid.polish_moves = 10;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Hybrid greedy seeding.
    QueryOptimizerOptions options = base_options;
    options.hybrid.seed_with_greedy = false;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Algorithm attachment.
    QueryOptimizerOptions options = base_options;
    options.attach_algorithms = false;
    EXPECT_NE(base.canonical, canonical(options));
  }
  {  // Edge selectivity.
    JoinGraph graph(3);
    ASSERT_TRUE(graph.AddPredicate(0, 1, 0.011).ok());
    ASSERT_TRUE(graph.AddPredicate(1, 2, 0.05).ok());
    EXPECT_NE(
        base.canonical,
        ComputePlanFingerprint(problem.catalog, graph, base_options).canonical);
  }
  {  // Base cardinality.
    Result<Catalog> catalog = Catalog::FromCardinalities({100, 2000, 36});
    ASSERT_TRUE(catalog.ok());
    EXPECT_NE(
        base.canonical,
        ComputePlanFingerprint(*catalog, problem.graph, base_options).canonical);
  }
  {  // Missing edge (Cartesian product vs join).
    JoinGraph graph(3);
    ASSERT_TRUE(graph.AddPredicate(0, 1, 0.01).ok());
    EXPECT_NE(
        base.canonical,
        ComputePlanFingerprint(problem.catalog, graph, base_options).canonical);
  }
}

TEST(PlanFingerprintTest, DeadlineDoesNotAffectTheFingerprint) {
  const Problem problem = ChainProblem();
  QueryOptimizerOptions a;
  QueryOptimizerOptions b;
  b.budget.deadline_seconds = 1.5;
  EXPECT_EQ(ComputePlanFingerprint(problem.catalog, problem.graph, a).canonical,
            ComputePlanFingerprint(problem.catalog, problem.graph, b).canonical);
}

TEST(PlanFingerprintTest, BudgetExhaustionFallsBackToSafeMiss) {
  // A symmetric clique large enough that a 1-node IR budget aborts; the
  // fallback must still be deterministic and usable as a key.
  Result<Catalog> catalog =
      Catalog::FromCardinalities({50, 50, 50, 50, 50, 50});
  ASSERT_TRUE(catalog.ok());
  JoinGraph graph(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      ASSERT_TRUE(graph.AddPredicate(i, j, 0.1).ok());
    }
  }
  const QueryOptimizerOptions options;
  const PlanFingerprint a =
      ComputePlanFingerprint(*catalog, graph, options, /*search_budget=*/1);
  const PlanFingerprint b =
      ComputePlanFingerprint(*catalog, graph, options, /*search_budget=*/1);
  EXPECT_FALSE(a.exact_canonical);
  EXPECT_EQ(a.canonical, b.canonical);  // Byte-identical repeats still hit.
  EXPECT_EQ(static_cast<int>(a.to_canonical.size()), 6);
}

/// Invariant multiset signature of a problem: if two problems share it they
/// are at least statistically interchangeable (same relation stats, same
/// selectivity multiset). Used to vet apparent fingerprint collisions.
std::string ProblemSignature(const Catalog& catalog, const JoinGraph& graph) {
  std::vector<double> cards;
  for (int i = 0; i < catalog.num_relations(); ++i) {
    cards.push_back(catalog.cardinality(i));
  }
  std::sort(cards.begin(), cards.end());
  std::vector<double> sels;
  for (const Predicate& edge : graph.predicates()) {
    sels.push_back(edge.selectivity);
  }
  std::sort(sels.begin(), sels.end());
  std::string out;
  for (double c : cards) out += std::to_string(c) + ",";
  out += "|";
  for (double s : sels) out += std::to_string(s) + ",";
  return out;
}

// Two problems sampled from the fuzzer's Appendix grid may share a
// canonical encoding only when they really are the same problem (the grid
// does produce duplicates at zero variability), and every problem must
// agree with a relabeled copy of itself — the collision property the
// differential wall relies on.
TEST(PlanFingerprintTest, NoCollisionsAcrossTheAppendixGrid) {
  fuzz::FuzzerOptions options;
  options.seed = 20260809;
  options.min_relations = 2;
  options.max_relations = 9;
  ASSERT_TRUE(options.Validate().ok());

  const QueryOptimizerOptions opt_options;
  std::map<std::string, std::string> seen;  // canonical -> case label
  Rng rng(7);
  int exact = 0;
  for (std::uint64_t index = 0; index < 60; ++index) {
    Result<fuzz::FuzzCase> fuzz_case = fuzz::GenerateCase(options, index);
    ASSERT_TRUE(fuzz_case.ok());
    const PlanFingerprint fp = ComputePlanFingerprint(
        fuzz_case->catalog, fuzz_case->graph, opt_options);
    if (fp.exact_canonical) ++exact;

    // A random relabeling of the same case must agree (when canonical).
    const int n = fuzz_case->catalog.num_relations();
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[i],
                perm[static_cast<int>(rng.NextBounded(
                    static_cast<std::uint64_t>(i) + 1))]);
    }
    const Problem relabeled =
        Permute({fuzz_case->catalog, fuzz_case->graph}, perm);
    const PlanFingerprint relabeled_fp = ComputePlanFingerprint(
        relabeled.catalog, relabeled.graph, opt_options);
    if (fp.exact_canonical && relabeled_fp.exact_canonical) {
      EXPECT_EQ(fp.canonical, relabeled_fp.canonical) << fuzz_case->label;
    }

    const std::string signature =
        ProblemSignature(fuzz_case->catalog, fuzz_case->graph);
    const auto [it, inserted] = seen.emplace(fp.canonical, signature);
    if (!inserted) {
      // Same key twice: acceptable only for a genuinely identical problem.
      EXPECT_EQ(it->second, signature)
          << "collision on distinct problems: " << fuzz_case->label;
    }
  }
  // The IR budget must cover the bulk of the grid, or isomorph hits vanish.
  EXPECT_GE(exact, 55) << "IR search budget aborts too often";
}

/// Optimizes a problem and returns the result (test helper; report on so
/// counter identity is assertable).
OptimizedQuery OptimizeOrDie(const Problem& problem,
                             const QueryOptimizerOptions& base) {
  QueryOptimizerOptions options = base;
  options.collect_report = true;
  options.count_operations = true;
  Result<OptimizedQuery> result =
      OptimizeQuery(problem.catalog, problem.graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(PlanCacheTest, HitReturnsTheStoredResultBitIdentically) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  const OptimizedQuery computed = OptimizeOrDie(problem, options);

  PlanCache cache(PlanCache::Options{});
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  cache.Insert(fp, computed);

  const std::optional<OptimizedQuery> hit = cache.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->tier, computed.tier);  // Provenance preserved.
  EXPECT_EQ(hit->passes, computed.passes);
  EXPECT_EQ(hit->cost, computed.cost);  // Bit-equal, not approximately.
  EXPECT_EQ(hit->plan.ToString(&problem.catalog),
            computed.plan.ToString(&problem.catalog));
  ASSERT_TRUE(hit->report.has_value());
  EXPECT_EQ(hit->report->counters.subsets_visited,
            computed.report->counters.subsets_visited);
  EXPECT_EQ(hit->report->counters.loop_iterations,
            computed.report->counters.loop_iterations);

  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PlanCacheTest, IsomorphHitIsRelabeledIntoTheRequestersLabels) {
  const Problem problem = ChainProblem();
  const std::vector<int> perm = {2, 0, 1};
  const Problem relabeled = Permute(problem, perm);

  const QueryOptimizerOptions options;
  const PlanFingerprint fp_a =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  const PlanFingerprint fp_b =
      ComputePlanFingerprint(relabeled.catalog, relabeled.graph, options);
  ASSERT_EQ(fp_a.canonical, fp_b.canonical);

  PlanCache cache(PlanCache::Options{});
  cache.Insert(fp_a, OptimizeOrDie(problem, options));

  const std::optional<OptimizedQuery> hit = cache.Lookup(fp_b);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);

  // The hit's plan lives in B's label space: its leaves are exactly B's
  // relation indices, and its cost equals what B computes from scratch.
  std::vector<int> leaves = LeafRelations(hit->plan.root());
  std::sort(leaves.begin(), leaves.end());
  EXPECT_EQ(leaves, (std::vector<int>{0, 1, 2}));
  // An isomorph hit must be *an* optimum in B's space — equal cost to a
  // fresh optimization. (Bit-identical plan shape is only guaranteed for
  // same-labeled repeats: tie-breaks are label-order dependent.)
  const OptimizedQuery direct = OptimizeOrDie(relabeled, options);
  EXPECT_EQ(hit->cost, direct.cost);
}

TEST(PlanCacheTest, LruEvictionByEntryCount) {
  PlanCache::Options cache_options;
  cache_options.max_entries = 2;
  cache_options.shards = 1;  // One shard so the global bound is exact.
  PlanCache cache(cache_options);

  const QueryOptimizerOptions options;
  std::vector<PlanFingerprint> fps;
  for (double card : {10.0, 20.0, 30.0}) {
    Result<Catalog> catalog = Catalog::FromCardinalities({card, card + 1});
    ASSERT_TRUE(catalog.ok());
    JoinGraph graph(2);
    ASSERT_TRUE(graph.AddPredicate(0, 1, 0.5).ok());
    const Problem problem{*std::move(catalog), std::move(graph)};
    const PlanFingerprint fp =
        ComputePlanFingerprint(problem.catalog, problem.graph, options);
    cache.Insert(fp, OptimizeOrDie(problem, options));
    fps.push_back(fp);
  }

  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_FALSE(cache.Lookup(fps[0]).has_value());  // Oldest evicted.
  EXPECT_TRUE(cache.Lookup(fps[1]).has_value());
  EXPECT_TRUE(cache.Lookup(fps[2]).has_value());
}

TEST(PlanCacheTest, DisabledCacheBypassesEverything) {
  PlanCache::Options cache_options;
  cache_options.max_entries = 0;
  PlanCache cache(cache_options);
  EXPECT_TRUE(cache.disabled());

  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  cache.Insert(fp, OptimizeOrDie(problem, options));
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.bypasses, 1u);
}

TEST(PlanCacheTest, DegradedResultsAreNeverCached) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  OptimizedQuery degraded = OptimizeOrDie(problem, options);
  degraded.report->degradations.push_back("exhaustive: deadline exceeded");

  PlanCache cache(PlanCache::Options{});
  cache.Insert(fp, degraded);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_GE(cache.GetStats().bypasses, 1u);
}

TEST(PlanCacheTest, ArmedInsertFaultBypassesTheInsert) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);
  registry.Arm(kFaultServeCacheInsert, FaultSpec{});

  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  PlanCache cache(PlanCache::Options{});
  cache.Insert(fp, OptimizeOrDie(problem, options));
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_GE(cache.GetStats().bypasses, 1u);

  // The fault fired once; the next insert lands.
  cache.Insert(fp, OptimizeOrDie(problem, options));
  EXPECT_TRUE(cache.Lookup(fp).has_value());
}

TEST(PlanCacheTest, GetOrComputeCoalescesConcurrentIdenticalRequests) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);
  const OptimizedQuery computed = OptimizeOrDie(problem, options);

  PlanCache cache(PlanCache::Options{});
  std::atomic<int> computes{0};
  const auto compute = [&]() -> Result<OptimizedQuery> {
    computes.fetch_add(1);
    // Hold the leadership long enough that the other threads pile up.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return OptimizeOrDie(problem, options);
  };

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Result<OptimizedQuery>> results;
  results.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    results.emplace_back(Status::Internal("unset"));
  }
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[i] = cache.GetOrCompute(fp, compute); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1) << "identical in-flight requests must coalesce";
  for (const Result<OptimizedQuery>& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->cost, computed.cost);
  }
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(PlanCacheTest, FailedLeaderDoesNotPoisonWaiters) {
  const Problem problem = ChainProblem();
  const QueryOptimizerOptions options;
  const PlanFingerprint fp =
      ComputePlanFingerprint(problem.catalog, problem.graph, options);

  PlanCache cache(PlanCache::Options{});
  Result<OptimizedQuery> failed =
      cache.GetOrCompute(fp, []() -> Result<OptimizedQuery> {
        return Status::Internal("leader exploded");
      });
  EXPECT_FALSE(failed.ok());

  // The key is not stuck in-flight: the next caller computes fresh.
  Result<OptimizedQuery> ok = cache.GetOrCompute(
      fp, [&]() -> Result<OptimizedQuery> { return OptimizeOrDie(problem, options); });
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(ok->cost, 0);
}

}  // namespace
}  // namespace blitz
