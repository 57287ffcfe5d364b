#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Per-layer numbers from the traced replay, keyed by BENCHMARK.json
/// per_layer metric name.
using LayerMetrics = std::map<std::string, double>;

/// The traced replay. It runs the set-up stream and then the timed stream
/// (body indices in the order the generator sent them) through blitzd's
/// serving steps in this process, calling each layer's public function in
/// the order the daemon does: frame decode -> ParseBjq ->
/// ComputePlanFingerprint -> PlanCache::Lookup -> on a miss OptimizeQuery
/// and PlanCache::Insert -> reply encode. Every call gets a span (name,
/// start, end, parent, request id), kept in memory until the replay ends.
///
/// The replay runs twice over the same requests: first with spans off,
/// stopping the timed stream after `cap_seconds`, then with spans on. The
/// ratio of the two timed walls is obs.trace_overhead_ratio. A separate
/// pass re-optimizes a sample of the misses with operation counting on
/// for the exact core.* counters and times the noest estimator.
///
/// Request-path metrics (parse, frame, fingerprint, lookup, reply) average
/// over the timed requests; optimizer metrics average over every miss the
/// replay ran, set-up stream included, so hit-heavy workloads still report
/// them. `traced_self_ms` is the mean per timed request of the summed self
/// times of its layer spans.
struct ReplayResult {
  LayerMetrics metrics;
  double traced_self_ms = 0;
  std::uint64_t timed_replayed = 0;
};

ReplayResult Replay(const Traffic& traffic, const std::vector<int>& timed,
                    double cap_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
