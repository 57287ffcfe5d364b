#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/optimize_query.h"
#include "card/no_estimate.h"
#include "serve/plancache.h"
#include "textio/bjq.h"

namespace perfbench {

/// The traffic mixes (BENCHMARK.json names them and says why).
enum class WorkloadKind { kMissDp, kZipfEvict };

/// Parses "miss-dp" / "zipf-evict"; false on anything else.
bool ParseWorkloadKind(std::string_view name, WorkloadKind* kind);

/// The fingerprint budget blitzd uses on its serving path. The constant is
/// private to src/serve/server.cc; the benchmark needs the same value so
/// that its own fingerprints (request de-duplication, the hit/miss model,
/// the traced replay) agree with the daemon's cache keys. If the two ever
/// drift, the `cached` output check reports it.
inline constexpr int kServingFingerprintBudget = 16;

/// One distinct request body the generator can send.
struct Body {
  std::string text;       ///< The .bjq document (WriteBjq output).
  blitz::QuerySpec spec;  ///< Parsed text: plan checks and the reference.
  int n = 0;
  int fp = 0;       ///< Dense id of its serving fingerprint.
};

/// Per distinct serving fingerprint: what the cache model needs.
struct FingerprintInfo {
  std::uint64_t hash = 0;
  bool exact = true;
  std::size_t key_bytes = 0;  ///< Length of the canonical cache key.
  int n = 0;
};

/// A seed-determined request sequence: an untimed set-up stream (prewarm
/// or warm-up) followed by a timed stream that is consumed until the run's
/// time is up.
class Traffic {
 public:
  /// Builds every body and stream. `seconds` sizes the pre-generated
  /// timed stream of miss-dp, whose bodies are all distinct.
  static Traffic Make(WorkloadKind kind, std::uint64_t seed, int seconds);

  const std::vector<Body>& bodies() const { return bodies_; }
  const std::vector<FingerprintInfo>& fingerprints() const { return fps_; }
  const std::vector<int>& setup_stream() const { return setup_; }

  /// Body index of timed request i, or -1 once a finite stream is spent.
  int Timed(std::uint64_t i) const;

  /// Grid queries generated but skipped because their fingerprint equalled
  /// an earlier body's (the Appendix grid repeats itself at small n).
  int duplicates_skipped() const { return duplicates_skipped_; }

 private:
  Traffic() = default;

  /// Generates a distinct grid query for slot `slot` (its size stratified
  /// over [min_n, max_n], its cost model and estimator cycled by slot) and
  /// returns its body index.
  int AddGridBody(std::uint64_t slot, int min_n, int max_n);
  /// Appends `body` and returns its index, or -1 when its fingerprint is
  /// already known.
  int AddBody(Body body);
  int Zipf(std::uint64_t salt, std::uint64_t i) const;

  WorkloadKind kind_ = WorkloadKind::kMissDp;
  std::uint64_t seed_ = 0;
  std::vector<Body> bodies_;
  std::vector<FingerprintInfo> fps_;
  std::vector<int> setup_;
  std::vector<int> timed_;      ///< miss-dp: the whole finite stream.
  int pool_ = 0;                ///< zipf-evict pool size.
  std::vector<int> pool_body_;  ///< Pool slot -> its body.
  std::vector<double> zipf_cdf_;
  int duplicates_skipped_ = 0;
  std::vector<int> dup_streak_;  ///< Per n: duplicates in a row.
  /// Canonical fingerprint -> dense id (generation only).
  std::unordered_map<std::string, int> canonical_;
  /// Chain/star/clique grid points already drawn (generation only).
  std::unordered_set<std::string> grid_points_;
};

/// The optimizer options blitzd derives for a parsed request (its cache
/// probe and its workers stamp the same fields on the default template).
/// `no_estimate` must outlive the returned options when engaged.
blitz::QueryOptimizerOptions ServingOptions(
    const blitz::QuerySpec& spec,
    std::optional<blitz::NoEstimateEstimator>* no_estimate);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
