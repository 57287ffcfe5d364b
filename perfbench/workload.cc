#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "testing/fuzzer.h"

namespace perfbench {
namespace {

using blitz::DeriveSeed;
using blitz::Rng;

// Stream salts: each stream of a workload draws from its own child seed, so
// resizing one stream never shifts another.
constexpr std::uint64_t kGridSalt = 0x47524944;     // "GRID"
constexpr std::uint64_t kNSalt = 0x4e;              // "N"
constexpr std::uint64_t kTimedSalt = 0x54494d45;    // "TIME"
constexpr std::uint64_t kWarmSalt = 0x5741524d;     // "WARM"

// miss-dp: the DP-bound sizes. n = 16 is blitzd's exhaustive limit.
constexpr int kMissMinN = 12;
constexpr int kMissMaxN = 16;
// Pre-generated timed requests per second of run: about twice the rate two
// workers reach on a 4-core machine, so the stream is not spent early.
constexpr int kMissPerSecond = 160;
constexpr int kMissWarmup = 20;

// zipf-evict: a pool three times blitzd's default 4096-entry cache bound,
// Zipf-skewed so that the realized hit ratio lands between 0.5 and 0.9.
// Popularity is Zipf over blocks of kZipfMaxN - kZipfMinN + 1 consecutive
// slots, uniform within a block: a block holds every size once, so the
// sizes of the hottest queries (and with them the hit path's parse and
// fingerprint cost) do not depend on the seed.
constexpr int kZipfPool = 12288;
constexpr int kZipfMinN = 4;
constexpr int kZipfMaxN = 13;
constexpr double kZipfExponent = 0.9;
constexpr int kZipfWarmup = 16384;

constexpr blitz::CostModelKind kCostModels[] = {
    blitz::CostModelKind::kNaive, blitz::CostModelKind::kSortMerge,
    blitz::CostModelKind::kDiskNestedLoops};

/// n for `slot`: stratified uniform over [lo, hi]. Each block of hi-lo+1
/// consecutive slots holds every size once, in a seeded order, so the
/// realized size mix (and with it the 3^n DP cost) barely moves between
/// seeds and between run lengths.
int StratifiedN(std::uint64_t seed, std::uint64_t slot, int lo, int hi) {
  const int span = hi - lo + 1;
  std::vector<int> order(span);
  std::iota(order.begin(), order.end(), lo);
  Rng rng(DeriveSeed(DeriveSeed(seed, kNSalt), slot / span));
  for (int i = span - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextInt(0, i)]);
  }
  return order[slot % span];
}

blitz::QuerySpec Parse(const std::string& text) {
  blitz::Result<blitz::QuerySpec> spec = blitz::ParseBjq(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: generated body does not parse: %s\n",
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(spec).value();
}

}  // namespace

bool ParseWorkloadKind(std::string_view name, WorkloadKind* kind) {
  if (name == "miss-dp") {
    *kind = WorkloadKind::kMissDp;
  } else if (name == "zipf-evict") {
    *kind = WorkloadKind::kZipfEvict;
  } else {
    return false;
  }
  return true;
}

blitz::QueryOptimizerOptions ServingOptions(
    const blitz::QuerySpec& spec,
    std::optional<blitz::NoEstimateEstimator>* no_estimate) {
  blitz::QueryOptimizerOptions opts;
  opts.cost_model = spec.cost_model;
  opts.initial_cost_threshold = spec.threshold;
  if (spec.estimator == blitz::EstimatorKind::kNoEstimate) {
    no_estimate->emplace(spec.graph);
    opts.estimator = &**no_estimate;
  }
  return opts;
}

int Traffic::AddBody(Body body) {
  std::optional<blitz::NoEstimateEstimator> no_estimate;
  const blitz::QueryOptimizerOptions opts =
      ServingOptions(body.spec, &no_estimate);
  blitz::PlanFingerprint fp = blitz::ComputePlanFingerprint(
      body.spec.catalog, body.spec.graph, opts, kServingFingerprintBudget);
  const std::size_t key_bytes = fp.canonical.size();
  const auto [it, fresh] = canonical_.emplace(std::move(fp.canonical),
                                             static_cast<int>(fps_.size()));
  if (!fresh) return -1;
  fps_.push_back(
      FingerprintInfo{fp.hash, fp.exact_canonical, key_bytes, body.n});
  body.fp = it->second;
  bodies_.push_back(std::move(body));
  return static_cast<int>(bodies_.size()) - 1;
}

int Traffic::AddGridBody(std::uint64_t slot, int min_n, int max_n) {
  const int span = max_n - min_n + 1;
  const int first_n = StratifiedN(seed_, slot, min_n, max_n);
  // The Appendix grid has few distinct queries at small n (the
  // cardinality ladder is deterministic), so a slot walks successive case
  // indices until its query is new to the stream. A size that yields
  // nothing new kSaturated times in a row is spent: its later slots take
  // the next size up (wrapping), so the realized size mix is reported.
  constexpr int kSaturated = 64;
  if (dup_streak_.size() < static_cast<std::size_t>(max_n + 1)) {
    dup_streak_.assign(max_n + 1, 0);
  }
  int n = first_n;
  for (std::uint64_t attempt = 0;; ++attempt) {
    for (int tried = 0; dup_streak_[n] >= kSaturated && tried < span; ++tried) {
      n = n == max_n ? min_n : n + 1;
    }
    const blitz::fuzz::FuzzerOptions grid{DeriveSeed(seed_, kGridSalt), n, n};
    const blitz::fuzz::FuzzCaseSpec drawn =
        blitz::fuzz::SampleCaseSpec(grid, slot * 1024 + attempt);
    const blitz::CostModelKind model = kCostModels[slot % 3];
    const bool noest = slot % 4 == 3;
    // Chain, star and clique queries are fixed by their grid point, so a
    // repeat is caught here without building and fingerprinting it.
    if (drawn.topology != blitz::fuzz::FuzzTopology::kRandom &&
        !grid_points_
             .insert(drawn.Name().substr(drawn.Name().find("-n")) +
                     CostModelKindToString(model) + (noest ? "-noest" : ""))
             .second) {
      ++dup_streak_[n];
      ++duplicates_skipped_;
      continue;
    }
    blitz::Result<blitz::fuzz::FuzzCase> made = blitz::fuzz::BuildCase(drawn);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: grid case: %s\n",
                   made.status().ToString().c_str());
      std::exit(1);
    }
    blitz::QuerySpec spec = blitz::fuzz::ToQuerySpec(*made, model);
    if (noest) spec.estimator = blitz::EstimatorKind::kNoEstimate;
    Body body;
    body.text = blitz::WriteBjq(spec);
    body.spec = Parse(body.text);
    body.n = n;
    const int index = AddBody(std::move(body));
    if (index >= 0) {
      dup_streak_[n] = 0;
      return index;
    }
    ++dup_streak_[n];
    ++duplicates_skipped_;
  }
}

int Traffic::Zipf(std::uint64_t salt, std::uint64_t i) const {
  const std::uint64_t h = DeriveSeed(DeriveSeed(seed_, salt), i);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const std::size_t block = std::min<std::size_t>(
      std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin(),
      zipf_cdf_.size() - 1);
  const int span = kZipfMaxN - kZipfMinN + 1;
  return pool_body_[block * span + DeriveSeed(h, 1) % span];
}

Traffic Traffic::Make(WorkloadKind kind, std::uint64_t seed, int seconds) {
  Traffic t;
  t.kind_ = kind;
  t.seed_ = seed;
  switch (kind) {
    case WorkloadKind::kMissDp: {
      // A short untimed warm-up of queries the timed stream never sends
      // lets the daemon's DP-table arena reach its steady state first.
      const int count = kMissPerSecond * seconds + 64;
      for (int slot = 0; slot < count + kMissWarmup; ++slot) {
        const int body = t.AddGridBody(slot, kMissMinN, kMissMaxN);
        (slot < kMissWarmup ? t.setup_ : t.timed_).push_back(body);
      }
      break;
    }
    case WorkloadKind::kZipfEvict: {
      t.pool_ = kZipfPool;
      for (int slot = 0; slot < t.pool_; ++slot) {
        t.pool_body_.push_back(t.AddGridBody(slot, kZipfMinN, kZipfMaxN));
      }
      double total = 0;
      for (int r = 1; r <= t.pool_ / (kZipfMaxN - kZipfMinN + 1); ++r) {
        total += std::pow(r, -kZipfExponent);
        t.zipf_cdf_.push_back(total);
      }
      for (double& c : t.zipf_cdf_) c /= total;
      for (int i = 0; i < kZipfWarmup; ++i) {
        t.setup_.push_back(t.Zipf(kWarmSalt, i));
      }
      break;
    }
  }
  t.canonical_.clear();
  t.grid_points_.clear();
  return t;
}

int Traffic::Timed(std::uint64_t i) const {
  switch (kind_) {
    case WorkloadKind::kMissDp:
      return i < timed_.size() ? timed_[i] : -1;
    case WorkloadKind::kZipfEvict:
      return Zipf(kTimedSalt, i);
  }
  return -1;
}

}  // namespace perfbench
