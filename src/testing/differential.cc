#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "baseline/greedy.h"
#include "card/histogram.h"
#include "card/no_estimate.h"
#include "card/paper_fanout.h"
#include "common/strings.h"
#include "core/optimizer.h"
#include "plan/evaluate.h"
#include "plan/plan.h"
#include "serve/plancache.h"
#include "testing/oracles.h"

namespace blitz::fuzz {
namespace {

/// Lowered from the production default so modest fuzz-sized problems
/// actually exercise the rank-parallel driver instead of silently running
/// sequentially.
constexpr std::uint64_t kFuzzMinParallelRank = 4;

OptimizerOptions MakeOptions(CostModelKind model, int threads,
                             SimdLevel simd) {
  OptimizerOptions options;
  options.cost_model = model;
  options.count_operations = true;
  options.simd = simd;
  options.parallel.num_threads = threads;
  options.parallel.min_parallel_rank = kFuzzMinParallelRank;
  return options;
}

std::string ConfigName(CostModelKind model, int threads, SimdLevel simd,
                       const char* extra = "") {
  return StrFormat("model=%s threads=%d simd=%s%s",
                   CostModelKindToString(model), threads, SimdLevelName(simd),
                   extra);
}

/// The counters that must fold/replay to identical totals across every
/// thread count and kernel level.
OracleVerdict CountersIdentical(const CountingInstrumentation& a,
                                const CountingInstrumentation& b) {
  if (a.subsets_visited != b.subsets_visited ||
      a.loop_iterations != b.loop_iterations ||
      a.improvements != b.improvements ||
      a.threshold_skips != b.threshold_skips) {
    return OracleVerdict::Fail(StrFormat(
        "operation counters diverge: [%s] vs [%s]", a.ToString().c_str(),
        b.ToString().c_str()));
  }
  return OracleVerdict::Pass();
}

/// Builds the estimator under test from the case itself. hist gets
/// deterministically perturbed statistics (scaled rows, square-rooted
/// selectivities) so the preloaded-card path is exercised with estimates
/// that genuinely disagree with the truth, without any data generation.
std::unique_ptr<CardinalityEstimator> MakeCaseEstimator(const FuzzCase& c,
                                                        EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kPaperFanout:
      return std::make_unique<PaperFanoutEstimator>(c.catalog, c.graph);
    case EstimatorKind::kSampleHistogram: {
      const int n = c.catalog.num_relations();
      std::vector<double> rows(n);
      for (int i = 0; i < n; ++i) rows[i] = c.catalog.cardinality(i) * 1.25;
      std::vector<double> sels;
      sels.reserve(c.graph.predicates().size());
      for (const Predicate& p : c.graph.predicates()) {
        sels.push_back(std::sqrt(p.selectivity));
      }
      return std::make_unique<SampleHistogramEstimator>(
          c.graph, std::move(rows), std::move(sels));
    }
    case EstimatorKind::kNoEstimate:
      return std::make_unique<NoEstimateEstimator>(c.graph);
  }
  return nullptr;
}

/// Bit-identity between two answers to the same request: identical plan
/// text (tie-breaks included), cost bits, tier, passes, and counters. The
/// `from_cache` provenance flag is deliberately excluded — it is the one
/// field reuse is *supposed* to change.
OracleVerdict ResultsBitIdentical(const OptimizedQuery& a,
                                  const OptimizedQuery& b) {
  const std::string plan_a = a.plan.ToString();
  const std::string plan_b = b.plan.ToString();
  if (plan_a != plan_b) {
    return OracleVerdict::Fail(
        StrFormat("plans diverge: %s vs %s", plan_a.c_str(), plan_b.c_str()));
  }
  if (std::memcmp(&a.cost, &b.cost, sizeof(double)) != 0) {
    return OracleVerdict::Fail(
        StrFormat("costs diverge: %.17g vs %.17g", a.cost, b.cost));
  }
  if (a.tier != b.tier || a.passes != b.passes) {
    return OracleVerdict::Fail(StrFormat(
        "tier/passes diverge: tier %d passes %d vs tier %d passes %d",
        static_cast<int>(a.tier), a.passes, static_cast<int>(b.tier),
        b.passes));
  }
  if (a.report.has_value() != b.report.has_value()) {
    return OracleVerdict::Fail("one result carries a report, the other not");
  }
  if (a.report.has_value()) {
    return CountersIdentical(a.report->counters, b.report->counters);
  }
  return OracleVerdict::Pass();
}

/// Cold / warm / post-eviction reuse leg (DifferentialOptions::
/// with_plan_cache). A single-entry cache makes the eviction forcible with
/// one decoy insert; the decoy is the same case with relation 0's
/// cardinality bumped, so its fingerprint cannot collide with the real one
/// (the canonical encoding embeds the actual statistics).
OracleVerdict RunPlanCacheLeg(const FuzzCase& c, CostModelKind model) {
  QueryOptimizerOptions query_options;
  query_options.cost_model = model;
  query_options.simd = SimdLevel::kScalar;
  query_options.collect_report = true;
  query_options.count_operations = true;
  const auto compute = [&] {
    return OptimizeQuery(c.catalog, c.graph, query_options);
  };

  PlanCache::Options cache_options;
  cache_options.max_entries = 1;
  cache_options.shards = 1;
  PlanCache cache(cache_options);
  const PlanFingerprint fp =
      ComputePlanFingerprint(c.catalog, c.graph, query_options);

  Result<OptimizedQuery> cold = cache.GetOrCompute(fp, compute);
  if (!cold.ok()) {
    return OracleVerdict::Fail("cold cache run failed: " +
                               cold.status().ToString());
  }
  if (cold->from_cache) {
    return OracleVerdict::Fail("cold run claims cache provenance");
  }

  Result<OptimizedQuery> warm = cache.GetOrCompute(fp, compute);
  if (!warm.ok()) {
    return OracleVerdict::Fail("warm cache run failed: " +
                               warm.status().ToString());
  }
  // Only degradation-free results are inserted; when the insert was
  // bypassed the warm run recomputes (and must still agree bit for bit).
  const bool inserted = cache.GetStats().inserts > 0;
  if (warm->from_cache != inserted) {
    return OracleVerdict::Fail(StrFormat(
        "cache accounting diverges: inserts=%d but warm from_cache=%d",
        inserted ? 1 : 0, warm->from_cache ? 1 : 0));
  }
  if (const OracleVerdict v = ResultsBitIdentical(*warm, *cold); !v.ok) {
    return OracleVerdict::Fail("warm hit vs cold: " + v.message);
  }

  // Evict via a decoy problem, then recompute the original.
  std::vector<RelationStats> bumped;
  bumped.reserve(c.catalog.num_relations());
  for (int i = 0; i < c.catalog.num_relations(); ++i) {
    bumped.push_back(c.catalog.relation(i));
  }
  bumped[0].cardinality = bumped[0].cardinality * 2 + 1;
  Result<Catalog> decoy_catalog = Catalog::Create(std::move(bumped));
  if (!decoy_catalog.ok()) {
    return OracleVerdict::Fail("decoy catalog failed: " +
                               decoy_catalog.status().ToString());
  }
  const PlanFingerprint decoy_fp =
      ComputePlanFingerprint(*decoy_catalog, c.graph, query_options);
  if (decoy_fp.canonical == fp.canonical) {
    return OracleVerdict::Fail(
        "decoy with different statistics shares the fingerprint");
  }
  Result<OptimizedQuery> decoy = cache.GetOrCompute(decoy_fp, [&] {
    return OptimizeQuery(*decoy_catalog, c.graph, query_options);
  });
  if (!decoy.ok()) {
    return OracleVerdict::Fail("decoy run failed: " +
                               decoy.status().ToString());
  }

  // If the decoy itself was insertable it displaced the original entry
  // (max_entries = 1); the original must then recompute, not hit.
  const bool decoy_inserted = cache.GetStats().inserts > (inserted ? 1u : 0u);
  Result<OptimizedQuery> evicted = cache.GetOrCompute(fp, compute);
  if (!evicted.ok()) {
    return OracleVerdict::Fail("post-eviction run failed: " +
                               evicted.status().ToString());
  }
  if (decoy_inserted && evicted->from_cache) {
    return OracleVerdict::Fail(
        "post-eviction answer still claims cache provenance");
  }
  if (const OracleVerdict v = ResultsBitIdentical(*evicted, *cold); !v.ok) {
    return OracleVerdict::Fail("post-eviction vs cold: " + v.message);
  }
  return OracleVerdict::Pass();
}

}  // namespace

std::string CaseVerdict::ToString() const {
  if (passed) return "pass";
  return StrFormat("FAIL [%s] %s", config.c_str(), failure.c_str());
}

CaseVerdict RunDifferentialCase(const FuzzCase& c,
                                const DifferentialOptions& options) {
  CaseVerdict verdict;
  auto fail = [&](std::string config, std::string message) {
    verdict.passed = false;
    verdict.config = std::move(config);
    verdict.failure = std::move(message);
    return verdict;
  };

  // The (threads x simd) grid: every combination must reproduce `base` —
  // the same model and estimator at one thread, scalar — bit for bit, with
  // identical folded counters. Each combination runs twice: counting, and
  // counting nothing — the production path, where kappa_sm and kappa_dnl
  // filter on the whole split cost instead of the operand gate (so the
  // second run of the one-thread scalar combination is checked too). False
  // (with the verdict filled) on failure.
  const auto grid_matches = [&](CostModelKind model,
                                const CardinalityEstimator* estimator,
                                const OptimizeOutcome& base,
                                const std::string& extra) {
    for (const int threads : options.thread_counts) {
      for (const SimdLevel simd : options.simd_levels) {
        for (const bool counting : {true, false}) {
          if (counting && threads == 1 && simd == SimdLevel::kScalar) {
            continue;  // `base` itself.
          }
          const std::string config = ConfigName(
              model, threads, simd,
              (extra + (counting ? "" : " uncounted")).c_str());
          OptimizerOptions grid_options = MakeOptions(model, threads, simd);
          grid_options.estimator = estimator;
          grid_options.count_operations = counting;
          Result<OptimizeOutcome> outcome =
              OptimizeJoin(c.catalog, c.graph, grid_options);
          if (!outcome.ok()) {
            fail(config, "run failed: " + outcome.status().ToString());
            return false;
          }
          OracleVerdict v = TablesBitIdentical(outcome->table, base.table);
          if (v.ok && counting) {
            v = CountersIdentical(outcome->counters, base.counters);
          }
          if (!v.ok) {
            fail(config, v.message);
            return false;
          }
        }
      }
    }
    return true;
  };

  const int n = c.catalog.num_relations();
  for (const CostModelKind model : options.cost_models) {
    // Reference configuration: sequential, scalar, unbounded.
    const OptimizerOptions ref_options =
        MakeOptions(model, /*threads=*/1, SimdLevel::kScalar);
    Result<OptimizeOutcome> reference =
        OptimizeJoin(c.catalog, c.graph, ref_options);
    if (!reference.ok()) {
      return fail(ConfigName(model, 1, SimdLevel::kScalar),
                  "reference run failed: " +
                      reference.status().ToString());
    }

    // Oracle 1: naive full-subset brute force, every table entry.
    Result<BruteForceTable> brute(BruteForceTable{});
    const bool have_brute = n <= options.brute_force_max_n;
    if (have_brute) {
      brute = BruteForceAllSubsets(c.catalog, c.graph, model,
                                   options.brute_force_max_n);
      if (!brute.ok()) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar),
                    "brute-force oracle failed: " +
                        brute.status().ToString());
      }
      const OracleVerdict compared =
          CompareDpTableToBruteForce(reference->table, *brute);
      if (!compared.ok) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar),
                    compared.message);
      }
    }

    // Oracles 2 and 3 need the winning plan.
    if (reference->found_plan()) {
      Result<Plan> plan = Plan::ExtractFromTable(reference->table);
      if (!plan.ok()) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar),
                    "plan extraction failed: " + plan.status().ToString());
      }
      const OracleVerdict recosted = CheckPlanAgainstDpTable(
          *plan, c.catalog, c.graph, model, reference->table);
      if (!recosted.ok) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar),
                    recosted.message);
      }
      const OracleVerdict dpccp = CheckAgainstDpCcp(
          c.catalog, c.graph, model,
          static_cast<double>(reference->cost),
          plan->CountCartesianProducts(c.graph));
      if (!dpccp.ok) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar), dpccp.message);
      }
    }

    if (!grid_matches(model, nullptr, *reference, "")) return verdict;

    // Estimator seam: the exact estimator must be indistinguishable from
    // running without one (bit-identical table and counters), so the grid
    // above already covers it. Non-exact kinds take the preloaded-card path
    // and must land on a plan covering every relation with a finite
    // positive cost under the true statistics — or, when every plan's
    // estimated cost overflows float (Section 6.3), find none, which the
    // greedy plan under the same estimator must confirm by costing at or
    // above the overflow band. Either way the run must reproduce bit for
    // bit across the (threads x simd) grid.
    for (const EstimatorKind kind : options.estimators) {
      std::unique_ptr<CardinalityEstimator> estimator =
          MakeCaseEstimator(c, kind);
      const std::string extra =
          std::string(" estimator=") + estimator->name();
      const std::string config =
          ConfigName(model, 1, SimdLevel::kScalar, extra.c_str());
      OptimizerOptions est_options = ref_options;
      est_options.estimator = estimator.get();
      Result<OptimizeOutcome> outcome =
          OptimizeJoin(c.catalog, c.graph, est_options);
      if (!outcome.ok()) {
        return fail(config,
                    "estimator run failed: " + outcome.status().ToString());
      }
      if (kind == EstimatorKind::kPaperFanout) {
        const OracleVerdict tables =
            TablesBitIdentical(outcome->table, reference->table);
        if (!tables.ok) return fail(config, tables.message);
        const OracleVerdict counters =
            CountersIdentical(outcome->counters, reference->counters);
        if (!counters.ok) return fail(config, counters.message);
        continue;
      }
      if (outcome->found_plan()) {
        Result<Plan> plan = Plan::ExtractFromTable(outcome->table);
        if (!plan.ok()) {
          return fail(config,
                      "plan extraction failed: " + plan.status().ToString());
        }
        if (plan->relations() != c.catalog.AllRelations()) {
          return fail(config, "plan does not cover every relation");
        }
        const double true_cost =
            EvaluateCost(*plan, c.catalog, c.graph, model);
        if (!std::isfinite(true_cost) || true_cost < 0) {
          return fail(config,
                      StrFormat("plan recost under true statistics is %g",
                                true_cost));
        }
      } else {
        // A finite witness below the band proves the DP missed a plan.
        Result<GreedyResult> greedy = OptimizeGreedy(
            c.catalog, c.graph, model, GreedyCriterion::kMinOutputCardinality,
            estimator.get());
        if (!greedy.ok()) return fail(config, greedy.status().ToString());
        const double witness = EvaluateCost(greedy->plan, *estimator, model);
        if (!(witness >= kFloatOverflowBand)) {
          return fail(config, StrFormat("no plan found, but the greedy plan "
                                        "costs %.17g under the estimator",
                                        witness));
        }
      }
      if (!grid_matches(model, estimator.get(), *outcome, extra)) {
        return verdict;
      }
    }

    // Plan-cache reuse: cold, warm, and post-eviction answers must be one
    // answer (the differential wall around serving-tier reuse).
    if (options.with_plan_cache) {
      const OracleVerdict reuse = RunPlanCacheLeg(c, model);
      if (!reuse.ok) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar, " plan-cache"),
                    reuse.message);
      }
    }

    if (!options.with_thresholds) continue;

    // Threshold ladder: must terminate on the bit-identical root cost.
    ThresholdLadderOptions ladder;
    ladder.initial_threshold = 10.0f;
    ladder.growth_factor = 100.0f;
    Result<LadderOutcome> laddered = OptimizeJoinWithThresholds(
        c.catalog, c.graph, ref_options, ladder);
    if (!laddered.ok()) {
      return fail(ConfigName(model, 1, SimdLevel::kScalar, " ladder"),
                  "threshold ladder failed: " + laddered.status().ToString());
    }
    const float ladder_cost = laddered->outcome.cost;
    const float ref_cost = reference->cost;
    if (std::memcmp(&ladder_cost, &ref_cost, sizeof(float)) != 0) {
      return fail(
          ConfigName(model, 1, SimdLevel::kScalar, " ladder"),
          StrFormat("ladder cost %.9g != reference cost %.9g after %d passes",
                    static_cast<double>(ladder_cost),
                    static_cast<double>(ref_cost), laddered->passes));
    }

    // One biting single-threshold pass, checked against the brute-force
    // oracle's rejection semantics (plans costing >= threshold rejected).
    if (have_brute && reference->found_plan() &&
        reference->cost < std::numeric_limits<float>::max() / 8) {
      OptimizerOptions bounded = ref_options;
      bounded.cost_threshold = std::max(reference->cost * 4.0f, 1.0f);
      Result<OptimizeOutcome> outcome =
          OptimizeJoin(c.catalog, c.graph, bounded);
      if (!outcome.ok()) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar, " threshold"),
                    "thresholded run failed: " +
                        outcome.status().ToString());
      }
      const OracleVerdict compared = CompareDpTableToBruteForce(
          outcome->table, *brute, bounded.cost_threshold);
      if (!compared.ok) {
        return fail(ConfigName(model, 1, SimdLevel::kScalar, " threshold"),
                    compared.message);
      }
    }
  }
  return verdict;
}

}  // namespace blitz::fuzz
