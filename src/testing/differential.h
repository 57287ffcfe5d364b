#ifndef BLITZ_TESTING_DIFFERENTIAL_H_
#define BLITZ_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "card/estimator.h"
#include "cost/cost_model.h"
#include "simd/dispatch.h"
#include "testing/fuzzer.h"

namespace blitz::fuzz {

/// The configuration cross-product one case is driven through. The
/// reference configuration (scalar kernel, one thread, no threshold,
/// counting) is always run per cost model; every (threads x simd)
/// combination, counting and not, must fill a bit-identical DP table
/// (counting runs with identical counters too), and the threshold ladder
/// must land on the bit-identical root cost.
struct DifferentialOptions {
  std::vector<CostModelKind> cost_models = {CostModelKind::kNaive,
                                            CostModelKind::kSortMerge,
                                            CostModelKind::kDiskNestedLoops};
  std::vector<int> thread_counts = {1, 4};
  /// kScalar is the reference; kBlock forces the batched kernel on every
  /// model; kAuto exercises the production dispatch policy.
  std::vector<SimdLevel> simd_levels = {SimdLevel::kScalar, SimdLevel::kBlock,
                                        SimdLevel::kAuto};
  /// Run the Section 6.4 threshold ladder (the {threshold on} half of the
  /// grid) and a single thresholded pass checked against the brute-force
  /// oracle's threshold semantics.
  bool with_thresholds = true;
  /// Largest n the O(4^n)-flavored brute-force oracle runs at; larger cases
  /// still get the re-coster and DPccp oracles.
  int brute_force_max_n = 12;
  /// Estimator seam sweep (fuzz_blitzsplit --estimators=). kPaperFanout is
  /// exact, so its run must reproduce the estimator-less reference DP table
  /// and counters bit for bit. Non-exact kinds (hist, noest) take the
  /// preloaded-card path: their one-thread scalar run is held to valid-plan
  /// invariants (the run succeeds, the plan covers every relation, and its
  /// cost under the *true* statistics is positive and finite), and every
  /// other (thread_counts x simd_levels) combination must reproduce that
  /// run's table and counters bit for bit. A run that finds no plan passes
  /// only if the greedy plan under the same estimator costs at or above
  /// kFloatOverflowBand there (every plan overflowed float); the grid still
  /// runs. Empty disables the leg.
  std::vector<EstimatorKind> estimators = {EstimatorKind::kPaperFanout};
  /// Plan-cache reuse leg (fuzz_blitzsplit --no-plan-cache to disable):
  /// the case is driven through a serving-tier PlanCache cold, warm, and
  /// again after a forced LRU eviction. All three answers must be
  /// bit-identical — plan text, cost bits, tier, passes, and the Section
  /// 3.3 counters — and the warm answer must actually come from the cache.
  bool with_plan_cache = true;
};

/// The outcome of one case: pass, or the first failing check with the
/// configuration that produced it.
struct CaseVerdict {
  bool passed = true;
  std::string config;   ///< e.g. "model=sm threads=4 simd=auto".
  std::string failure;  ///< Oracle/driver message; empty when passed.

  std::string ToString() const;
};

/// Drives one case through every configuration and all applicable oracles.
CaseVerdict RunDifferentialCase(const FuzzCase& c,
                                const DifferentialOptions& options);

}  // namespace blitz::fuzz

#endif  // BLITZ_TESTING_DIFFERENTIAL_H_
