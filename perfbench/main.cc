// blitzbench: the repository benchmark's generator. It starts the real
// blitzd, drives one workload through it from a single thread over four
// closed-loop unix-socket connections, checks every reply, and prints one
// JSON result line. perfbench/run.py builds it and passes --blitzd and
// --run-dir; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "live.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kLoadConnections = 4;
constexpr double kStatzSampleMs = 100;
// A run is this many daemon lives, each a set-up and a timed segment of
// seconds / kSegments. Throughput and latency pool the segments' replies;
// setup_s and peak_rss_mb are medians over the segments.
constexpr int kSegments = 3;
// The traced replay's timed part is cut after this long, whatever the
// run's length: per-layer means need a few thousand requests, not more.
constexpr double kReplaySeconds = 4;
// blitzd runs its plan cache at the defaults.
constexpr blitz::PlanCache::Options kCacheDefaults{};
constexpr int kCacheShards = kCacheDefaults.shards;
constexpr std::size_t kShardEntries =
    kCacheDefaults.max_entries / kCacheDefaults.shards;
constexpr std::size_t kShardBytes =
    kCacheDefaults.max_bytes / kCacheDefaults.shards;
// A verbatim repeat must be a hit when its key sits this far inside its
// shard's LRU bound in the send-order model; the margin absorbs the few
// requests in flight whose order the daemon may see differently.
constexpr std::size_t kSafeLruDepth = kShardEntries - 64;
static_assert(kShardEntries > 64 && kShardBytes > 0);

struct Args {
  WorkloadKind workload = WorkloadKind::kMissDp;
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 45;
  bool trace = false;
  std::string blitzd;
  std::string run_dir;
  bool corrupt_cost = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "blitzbench: %s\nusage: blitzbench --workload "
               "<miss-dp|zipf-evict> --seed <n> --seconds <s> "
               "--trace <0|1> --blitzd <path> --run-dir <dir> "
               "[--corrupt-cost]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-cost") {
      args.corrupt_cost = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload_name = value;
      if (!ParseWorkloadKind(value, &args.workload)) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--blitzd") {
      args.blitzd = value;
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload_name.empty() || args.blitzd.empty() ||
      args.run_dir.empty() || args.seconds < 1) {
    Usage("missing or invalid arguments");
  }
  return args;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       p / 100.0 * static_cast<double>(v.size())));
  return v[rank];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double CpuSelfSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double Delta(const Statz& before, const Statz& after, const char* key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// Output-check failures, by kind.
struct Violations {
  int exactly_once = 0;
  int invalid_plan = 0;
  int same_label_cost = 0;
  int cached_flag = 0;

  int total() const {
    return exactly_once + invalid_plan + same_label_cost + cached_flag;
  }
};

/// CheckCachedFlags' cache model evicts by entry count only. blitzd's cache also evicts
/// a shard by its byte estimate (key + plan tree + report), which cannot
/// bind while a full shard of the largest entries fits the shard's bytes.
/// Exits with the cause when that no longer holds for this traffic.
void RequireNoByteEviction(const Traffic& traffic) {
  // Everything but the key and the plan tree, with room for the report's
  // per-pass thresholds.
  constexpr std::size_t kEntryOverhead = sizeof(blitz::OptimizedQuery) +
                                         sizeof(blitz::OptimizeReport) + 4096;
  std::size_t largest = 0;
  for (const FingerprintInfo& fp : traffic.fingerprints()) {
    largest = std::max(largest, fp.key_bytes + kEntryOverhead +
                                    static_cast<std::size_t>(2 * fp.n - 1) *
                                    sizeof(blitz::PlanNode));
  }
  if (largest * kShardEntries > kShardBytes) {
    std::fprintf(stderr,
                 "blitzbench: cache entries of up to %zu bytes may make "
                 "blitzd evict by bytes, which the cached-flag check does "
                 "not model\n",
                 largest);
    std::exit(1);
  }
}

/// Replays the send order through a model of blitzd's cache (per-shard
/// LRU at the default entry bound) and checks the `cached` flags against
/// it. Requests in flight together may reach the daemon in either order,
/// so the checks only judge what that cannot change: a hit is wrong when
/// no other request with its fingerprint was sent before its reply came
/// back, and a miss is wrong on a verbatim repeat sent after the previous
/// copy was answered, whose key the model holds well inside its bound.
/// Returns the model's hit count over the timed phase.
std::uint64_t CheckCachedFlags(const Traffic& traffic,
                               const Client::Phase& setup,
                               const Client::Phase& timed,
                               Violations* violations) {
  struct Shard {
    std::list<int> lru;
    std::unordered_map<int, std::list<int>::iterator> where;
  };
  std::vector<Shard> shards(kCacheShards);
  std::vector<const Outcome*> sent;
  for (const Outcome& o : setup.outcomes) sent.push_back(&o);
  const std::size_t first_timed = sent.size();
  for (const Outcome& o : timed.outcomes) sent.push_back(&o);
  std::unordered_map<int, std::int64_t> last_answer;  // body -> recv_ns
  std::unordered_set<int> fps_sent;
  std::uint64_t model_hits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Outcome& o = *sent[i];
    const int fp_id = traffic.bodies()[o.body].fp;
    Shard& shard = shards[traffic.fingerprints()[fp_id].hash % kCacheShards];
    const auto it = shard.where.find(fp_id);
    const bool held = it != shard.where.end();
    std::size_t depth = 0;
    if (held) {
      for (auto at = shard.lru.begin(); at != it->second; ++at) ++depth;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (i >= first_timed) ++model_hits;
    } else {
      shard.lru.push_front(fp_id);
      shard.where[fp_id] = shard.lru.begin();
      if (shard.lru.size() > kShardEntries) {
        shard.where.erase(shard.lru.back());
        shard.lru.pop_back();
      }
    }
    const auto previous = last_answer.find(o.body);
    const bool settled_repeat =
        previous != last_answer.end() && previous->second <= o.send_ns;
    last_answer[o.body] = o.answers > 0 ? o.recv_ns : INT64_MAX;
    const bool fp_sent_before = !fps_sent.insert(fp_id).second;
    if (o.answers != 1 || o.code != blitz::StatusCode::kOk) continue;
    if (o.cached && !fp_sent_before) {
      bool concurrent_twin = false;
      for (std::size_t j = i + 1;
           j < sent.size() && sent[j]->send_ns < o.recv_ns; ++j) {
        concurrent_twin |= traffic.bodies()[sent[j]->body].fp == fp_id;
      }
      if (!concurrent_twin) ++violations->cached_flag;
    }
    if (!o.cached && settled_repeat && held && depth < kSafeLruDepth) {
      ++violations->cached_flag;
    }
  }
  return model_hits;
}

/// Bit-compares reply costs with a cold in-process OptimizeQuery of the
/// same body, on a seeded sample of the timed bodies. A reply is
/// same-label when the daemon computed it for this body (a miss) or when
/// the cache entry it came from was inserted by this very body; only
/// those must be bit-equal; mismatches of the others are the defect
/// cost_exact_share measures.
struct CostCheck {
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  /// Reference cost per body, shared by the segments of a run.
  std::unordered_map<int, double> reference;
};

void CheckCosts(const Traffic& traffic, const Client::Phase& setup,
                Client::Phase* timed, std::uint64_t seed,
                std::size_t sample_bodies, bool corrupt, CostCheck* check,
                Violations* violations) {
  // The first body sent with each fingerprint inserted its cache entry.
  std::vector<int> inserter(traffic.fingerprints().size(), -1);
  const auto note_inserters = [&](const std::vector<Outcome>& outcomes) {
    for (const Outcome& o : outcomes) {
      int& first = inserter[traffic.bodies()[o.body].fp];
      if (first < 0) first = o.body;
    }
  };
  note_inserters(setup.outcomes);
  note_inserters(timed->outcomes);
  // Seeded sample of distinct timed bodies, by hashed rank.
  std::vector<int> distinct;
  {
    std::unordered_set<int> seen;
    for (const Outcome& o : timed->outcomes) {
      if (seen.insert(o.body).second) distinct.push_back(o.body);
    }
  }
  std::sort(distinct.begin(), distinct.end(), [seed](int a, int b) {
    return blitz::DeriveSeed(seed, a) < blitz::DeriveSeed(seed, b);
  });
  if (distinct.size() > sample_bodies) distinct.resize(sample_bodies);
  std::unordered_map<int, double>& reference = check->reference;
  for (int body : distinct) {
    if (reference.count(body) > 0) continue;
    const blitz::QuerySpec& spec = traffic.bodies()[body].spec;
    std::optional<blitz::NoEstimateEstimator> no_estimate;
    blitz::QueryOptimizerOptions opts = ServingOptions(spec, &no_estimate);
    opts.collect_report = true;
    blitz::Result<blitz::OptimizedQuery> r =
        blitz::OptimizeQuery(spec.catalog, spec.graph, opts);
    if (r.ok()) reference[body] = r->cost;
  }
  bool corrupted = !corrupt;
  for (Outcome& o : timed->outcomes) {
    if (o.answers != 1 || o.code != blitz::StatusCode::kOk) continue;
    const auto ref = reference.find(o.body);
    if (ref == reference.end()) continue;
    const bool same_label =
        !o.cached || inserter[traffic.bodies()[o.body].fp] == o.body;
    if (!corrupted && same_label) {
      // Self-test hook: one flipped low mantissa bit must trip the check.
      o.cost = std::bit_cast<double>(std::bit_cast<std::uint64_t>(o.cost) ^ 1);
      corrupted = true;
    }
    ++check->compared;
    if (std::bit_cast<std::uint64_t>(o.cost) ==
        std::bit_cast<std::uint64_t>(ref->second)) {
      continue;
    }
    ++check->mismatched;
    if (same_label) ++violations->same_label_cost;
  }
}

void CheckAnswers(const Client::Phase& phase, Violations* violations) {
  violations->exactly_once += phase.stray_replies;
  for (const Outcome& o : phase.outcomes) {
    if (o.answers != 1) ++violations->exactly_once;
    if (o.answers == 1 && o.code == blitz::StatusCode::kOk && !o.plan_valid) {
      ++violations->invalid_plan;
    }
  }
}

std::string Histogram(const std::map<std::string, std::uint64_t>& counts,
                      std::uint64_t total) {
  std::string out;
  for (const auto& [key, count] : counts) {
    char item[96];
    std::snprintf(item, sizeof(item), "%s%s:%.3f", out.empty() ? "" : " ",
                  key.c_str(),
                  total > 0 ? static_cast<double>(count) / total : 0);
    out += item;
  }
  return out;
}

/// One daemon's life: set-up, then a timed segment.
struct Segment {
  double setup_s = 0;
  Client::Phase setup;
  Client::Phase timed;
  Statz before;
  Statz after;
  double daemon_cpu_s = 0;
  double gen_cpu_s = 0;
  double peak_rss_mb = 0;
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

int Run(const Args& args) {
  const std::string socket = args.run_dir + "/blitzd.sock";
  const std::string log = args.run_dir + "/blitzd.log";
  const double segment_s = static_cast<double>(args.seconds) / kSegments;

  // The run is kSegments daemon lives, each a set-up (daemon start to its
  // first accepted connection, prewarm or warm-up) followed by a timed
  // segment. A fresh daemon gets fresh threads, so one run averages over
  // several placements of them on the machine's cores, which differ in
  // speed on shared hosts. The traffic is generated once, and every
  // segment's set-up time counts the generation time too. The timed
  // segments send consecutive parts of one timed stream, so a run sends as
  // many distinct requests as one long segment would.
  std::vector<Segment> segments(kSegments);
  const std::int64_t gen0 = NowNs();
  const auto traffic = std::make_unique<Traffic>(
      Traffic::Make(args.workload, args.seed, args.seconds));
  const double generation_s = (NowNs() - gen0) * 1e-9;
  std::uint64_t timed_sent = 0;
  for (Segment& seg : segments) {
    const std::int64_t t0 = NowNs();
    Daemon daemon(args.blitzd, socket, log);
    std::vector<int> fds = daemon.Start(kLoadConnections + 1);
    const int observer = fds.back();
    fds.pop_back();
    Client client(traffic.get(), fds, observer);
    const std::vector<int>& stream = traffic->setup_stream();
    seg.setup = client.Run(
        [&stream](std::uint64_t i) {
          return i < stream.size() ? stream[i] : -1;
        },
        0, 0);
    seg.setup_s = generation_s + (NowNs() - t0) * 1e-9;

    seg.before = client.ReadStatz();
    const double daemon_cpu0 = daemon.CpuSeconds();
    const double gen_cpu0 = CpuSelfSeconds();
    const Traffic* t = traffic.get();
    seg.timed = client.Run(
        [t, timed_sent](std::uint64_t i) { return t->Timed(timed_sent + i); },
        segment_s, kStatzSampleMs);
    timed_sent += seg.timed.outcomes.size();
    seg.gen_cpu_s = CpuSelfSeconds() - gen_cpu0;
    seg.daemon_cpu_s = daemon.CpuSeconds() - daemon_cpu0;
    seg.after = client.ReadStatz();
    seg.peak_rss_mb = daemon.PeakRssMb();
  }

  // Output checks.
  RequireNoByteEviction(*traffic);
  Violations violations;
  std::uint64_t model_hits = 0;
  CostCheck costs;
  // Bodies re-optimized in process: n = 16 costs tens of milliseconds,
  // the pool's smaller queries about one.
  const std::size_t cost_sample =
      args.workload == WorkloadKind::kMissDp ? 24 : 800;
  for (Segment& seg : segments) {
    CheckAnswers(seg.setup, &violations);
    CheckAnswers(seg.timed, &violations);
    model_hits += CheckCachedFlags(*traffic, seg.setup, seg.timed, &violations);
    CheckCosts(*traffic, seg.setup, &seg.timed, args.seed, cost_sample,
               args.corrupt_cost && &seg == &segments.front(), &costs,
               &violations);
  }

  // End-to-end numbers, pooled over the segments.
  double wall_s = 0, gen_cpu_s = 0, daemon_cpu_s = 0;
  std::vector<double> latency_ms, hit_ms, miss_ms, setup_s, rss_mb, depth;
  std::vector<double> segment_qps, segment_p50, segment_p99;
  std::uint64_t attempted = 0, ok = 0, answered = 0, misses = 0;
  std::uint64_t inexact = 0;
  Statz delta;
  std::map<std::string, std::uint64_t> n_mix, model_mix, estimator_mix;
  for (const Segment& seg : segments) {
    const double seg_wall = (seg.timed.end_ns - seg.timed.start_ns) * 1e-9;
    std::uint64_t seg_ok = 0;
    std::vector<double> seg_ms;
    for (const Outcome& o : seg.timed.outcomes) {
      const Body& body = traffic->bodies()[o.body];
      n_mix[(body.n < 10 ? "n0" : "n") + std::to_string(body.n)]++;
      model_mix[blitz::CostModelKindToString(body.spec.cost_model)]++;
      estimator_mix[blitz::EstimatorKindName(body.spec.estimator.value_or(
          blitz::EstimatorKind::kPaperFanout))]++;
      if (!traffic->fingerprints()[body.fp].exact) ++inexact;
      if (o.answers == 1) ++answered;
      if (o.answers != 1 || o.code != blitz::StatusCode::kOk) continue;
      ++seg_ok;
      const double ms = (o.recv_ns - o.send_ns) * 1e-6;
      seg_ms.push_back(ms);
      latency_ms.push_back(ms);
      (o.cached ? hit_ms : miss_ms).push_back(ms);
      if (!o.cached) ++misses;
    }
    attempted += seg.timed.outcomes.size();
    ok += seg_ok;
    wall_s += seg_wall;
    segment_qps.push_back(seg_wall > 0 ? seg_ok / seg_wall : 0);
    segment_p50.push_back(Percentile(seg_ms, 50));
    segment_p99.push_back(Percentile(seg_ms, 99));
    gen_cpu_s += seg.gen_cpu_s;
    daemon_cpu_s += seg.daemon_cpu_s;
    setup_s.push_back(seg.setup_s);
    rss_mb.push_back(seg.peak_rss_mb);
    depth.insert(depth.end(), seg.timed.queue_depth.begin(),
                 seg.timed.queue_depth.end());
    for (const char* key :
         {"cache_hits", "cache_inserts", "cache_evictions", "cache_bypasses",
          "cache_coalesced", "arena_hits"}) {
      delta[key] += Delta(seg.before, seg.after, key);
    }
  }
  // Throughput and latency percentiles pool the timed replies of all
  // segments.
  const double throughput = wall_s > 0 ? ok / wall_s : 0;
  const double latency_p50 = Percentile(latency_ms, 50);
  const double latency_p99 = Percentile(latency_ms, 99);
  const double sent =
      static_cast<double>(std::max<std::uint64_t>(1, attempted));
  const double cost_exact_share =
      costs.compared > 0
          ? 1.0 - static_cast<double>(costs.mismatched) / costs.compared
          : 1.0;

  std::printf("# workload %s seed %llu: %llu timed requests in %zu segments "
              "of %.3f s, %llu OK, %llu unanswered\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), segments.size(),
              segment_s, static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(attempted - answered));
  std::printf("# load: %d connections x 1 outstanding + 1 statz observer, "
              "blitzd --workers 2, nproc %ld\n",
              kLoadConnections, ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# n mix: %s\n", Histogram(n_mix, attempted).c_str());
  std::printf("# cost-model mix: %s\n",
              Histogram(model_mix, attempted).c_str());
  std::printf("# estimator mix: %s\n",
              Histogram(estimator_mix, attempted).c_str());
  std::printf("# inexact fingerprint share %.4f, grid duplicates skipped "
              "%d\n",
              inexact / sent, traffic->duplicates_skipped());
  std::printf("# hit ratio: realized (statz) %.4f, intended (send-order "
              "cache model) %.4f\n",
              delta["cache_hits"] / sent, model_hits / sent);
  std::printf("# gen.cpu_share %.4f\n", wall_s > 0 ? gen_cpu_s / wall_s : 0);
  std::printf("# latency by class: hit p50 %.4f p99 %.4f ms (%zu), miss p50 "
              "%.4f p99 %.4f ms (%zu)\n",
              Percentile(hit_ms, 50), Percentile(hit_ms, 99), hit_ms.size(),
              Percentile(miss_ms, 50), Percentile(miss_ms, 99),
              miss_ms.size());
  std::printf("# traffic generation %.3f s (counted in every set-up)\n",
              generation_s);
  std::printf("# per segment: set-up s");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(", OK replies/s");
  for (double q : segment_qps) std::printf(" %.1f", q);
  std::printf(", p50 ms");
  for (double q : segment_p50) std::printf(" %.4f", q);
  std::printf(", p99 ms");
  for (double q : segment_p99) std::printf(" %.4f", q);
  std::printf(", set-up stream %zu requests\n",
              segments.front().setup.outcomes.size());
  std::printf("# checks: exactly-once %d, invalid plans %d, same-label cost "
              "mismatches %d of %llu compared, cached-flag disagreements %d\n",
              violations.exactly_once, violations.invalid_plan,
              violations.same_label_cost,
              static_cast<unsigned long long>(costs.compared),
              violations.cached_flag);

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_qps", {throughput, "1/s"}},
        {"latency_p50_ms", {latency_p50, "ms"}},
        {"latency_p99_ms", {latency_p99, "ms"}},
        {"ok_share", {ok / sent, "share"}},
        {"cost_exact_share", {cost_exact_share, "share"}},
        {"peak_rss_mb", {Median(rss_mb), "MiB"}},
        {"setup_s", {Median(setup_s), "s"}},
    };
  } else {
    std::vector<int> sent_bodies;
    for (const Outcome& o : segments.back().timed.outcomes) {
      sent_bodies.push_back(o.body);
    }
    const ReplayResult replay =
        Replay(*traffic, sent_bodies, kReplaySeconds);
    for (const auto& [name, value] : replay.metrics) {
      const char* unit = "count";
      if (name.ends_with("_us")) unit = "us";
      if (name.ends_with("_ms")) unit = "ms";
      if (name.ends_with("_share")) unit = "share";
      if (name.ends_with("_ratio")) unit = "ratio";
      if (name.ends_with("_bytes")) unit = "bytes";
      metrics.push_back({name, {value, unit}});
    }
    const double depth_mean = Mean(depth);
    const double miss_rate = wall_s > 0 ? misses / wall_s : 0;
    const double mean_latency_ms = Mean(latency_ms);
    metrics.insert(
        metrics.end(),
        {
            {"serve.plancache.hit_ratio", {delta["cache_hits"] / sent, "share"}},
            {"serve.plancache.inserts", {delta["cache_inserts"], "count"}},
            {"serve.plancache.evictions", {delta["cache_evictions"], "count"}},
            {"serve.plancache.bypasses", {delta["cache_bypasses"], "count"}},
            {"serve.plancache.coalesced", {delta["cache_coalesced"], "count"}},
            {"serve.queue.depth_mean", {depth_mean, "count"}},
            {"serve.queue.wait_ms",
             {miss_rate > 0 ? depth_mean / miss_rate * 1e3 : 0, "ms"}},
            {"serve.arena.reuse_ratio",
             {misses > 0 ? delta["arena_hits"] / misses : 0, "ratio"}},
            {"blitzd.cpu_ms_per_req",
             {answered > 0 ? daemon_cpu_s * 1e3 / answered : 0, "ms"}},
            {"gen.cpu_share", {wall_s > 0 ? gen_cpu_s / wall_s : 0, "share"}},
            {"obs.attributed_share",
             {mean_latency_ms > 0
                  ? (replay.traced_self_ms +
                     (throughput > 0 ? depth_mean / throughput * 1e3 : 0)) /
                        mean_latency_ms
                  : 0,
              "share"}},
        });
    std::printf("# replay: %llu timed requests traced\n",
                static_cast<unsigned long long>(replay.timed_replayed));
  }

  const bool correct = violations.total() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - ok));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
