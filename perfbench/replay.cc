#include "replay.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/table_arena.h"
#include "live.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  int parent;  ///< Index of the enclosing span, -1 for a request root.
  std::uint64_t request;
};

/// In-memory span recorder; with `on` false every call is a no-op, which
/// is the untraced replay the overhead ratio divides by.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int Begin(const char* name, int parent, std::uint64_t request) {
    if (!on_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    if (span >= 0) spans_[span].end = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// What one optimizer call reported.
struct Miss {
  int body = 0;
  blitz::OptimizeReport report;
  blitz::OptimizerTier tier = blitz::OptimizerTier::kExhaustive;
};

/// The state a daemon keeps between requests: its plan cache and DP-table
/// arena, both at blitzd's default options.
struct ServerState {
  blitz::PlanCache cache{blitz::PlanCache::Options{}};
  blitz::DpTableArena arena{blitz::DpTableArena::Options{}};
};

/// One request through the serving steps, each in its own span. Returns
/// false when its fingerprint was inexact.
bool ServeOne(const Traffic& traffic, int body, std::uint64_t request,
              Tracer* tracer, ServerState* state, std::vector<Miss>* misses) {
  blitz::RequestFrame request_frame;
  request_frame.id = request;
  request_frame.body = traffic.bodies()[body].text;
  const std::string wire = blitz::EncodeRequestFrame(request_frame);

  const int root = tracer->Begin("request", -1, request);
  int span = tracer->Begin("serve.wire.decode", root, request);
  blitz::RequestFrameAssembler assembler{blitz::WireLimits{}};
  std::vector<blitz::RequestFrame> frames;
  (void)assembler.Feed(wire, &frames);
  tracer->End(span);

  span = tracer->Begin("textio.parse", root, request);
  blitz::Result<blitz::QuerySpec> spec =
      blitz::ParseBjq(frames.front().body, blitz::BjqLimits{});
  tracer->End(span);

  span = tracer->Begin("serve.plancache.fingerprint", root, request);
  std::optional<blitz::NoEstimateEstimator> no_estimate;
  blitz::QueryOptimizerOptions opts = ServingOptions(*spec, &no_estimate);
  const blitz::PlanFingerprint fp = blitz::ComputePlanFingerprint(
      spec->catalog, spec->graph, opts, kServingFingerprintBudget);
  tracer->End(span);

  span = tracer->Begin("serve.plancache.lookup", root, request);
  std::optional<blitz::OptimizedQuery> result = state->cache.Lookup(fp);
  tracer->End(span);

  if (!result.has_value()) {
    opts.collect_report = true;
    opts.table_arena = &state->arena;
    span = tracer->Begin("api.optimize", root, request);
    blitz::Result<blitz::OptimizedQuery> optimized =
        blitz::OptimizeQuery(spec->catalog, spec->graph, opts);
    tracer->End(span);
    if (!optimized.ok()) {
      tracer->End(root);
      return fp.exact_canonical;
    }
    if (misses != nullptr) {
      misses->push_back(Miss{body, *optimized->report, optimized->tier});
    }
    span = tracer->Begin("serve.plancache.insert", root, request);
    state->cache.Insert(fp, *optimized);
    tracer->End(span);
    result = std::move(optimized).value();
  }

  span = tracer->Begin("serve.reply", root, request);
  blitz::ServeReply reply;
  reply.plan = result->plan.ToString(&spec->catalog);
  reply.cost = result->cost;
  reply.tier = blitz::OptimizerTierName(result->tier);
  reply.passes = result->passes;
  reply.degradations =
      result->report.has_value()
          ? static_cast<int>(result->report->degradations.size())
          : 0;
  reply.estimator = blitz::EstimatorKindName(
      result->report.has_value()
          ? result->report->estimator
          : spec->estimator.value_or(blitz::EstimatorKind::kPaperFanout));
  reply.cached = result->from_cache;
  const int encode = tracer->Begin("serve.wire.encode", span, request);
  const std::string out = blitz::EncodeResponseFrame(blitz::ResponseFrame{
      request, blitz::StatusCode::kOk, 0, blitz::EncodeReplyBody(reply)});
  tracer->End(encode);
  tracer->End(span);
  tracer->End(root);
  return fp.exact_canonical;
}

double Mean(double sum, double count) { return count > 0 ? sum / count : 0; }

/// Up to `limit` evenly spaced elements of `items`.
template <typename T>
std::vector<const T*> Sample(const std::vector<const T*>& items,
                             std::size_t limit) {
  std::vector<const T*> out;
  const std::size_t step = std::max<std::size_t>(1, items.size() / limit);
  for (std::size_t i = 0; i < items.size() && out.size() < limit; i += step) {
    out.push_back(items[i]);
  }
  return out;
}

}  // namespace

ReplayResult Replay(const Traffic& traffic, const std::vector<int>& timed,
                    double cap_seconds) {
  const std::vector<int>& setup = traffic.setup_stream();
  // One untraced pass over the timed stream, cut at `cap_seconds`, fixes
  // how many timed requests every pass replays.
  std::uint64_t replayed = timed.size();
  const auto pass = [&](Tracer* tracer, std::vector<Miss>* misses,
                        std::uint64_t* inexact, bool capped) {
    ServerState state;
    std::uint64_t id = 0;
    for (int body : setup) {
      ServeOne(traffic, body, ++id, tracer, &state, misses);
    }
    const std::int64_t start = NowNs();
    const std::int64_t cap = static_cast<std::int64_t>(cap_seconds * 1e9);
    std::uint64_t i = 0;
    for (; i < replayed; ++i) {
      if (capped && i % 16 == 0 && NowNs() - start > cap) break;
      if (!ServeOne(traffic, timed[i], ++id, tracer, &state, misses) &&
          inexact != nullptr) {
        ++*inexact;
      }
    }
    replayed = i;
    return (NowNs() - start) * 1e-9;
  };
  Tracer off(false);
  pass(&off, nullptr, nullptr, /*capped=*/true);
  // The measured passes: traced, then untraced again, over the same
  // requests (the first untraced pass also warms the process).
  Tracer on(true);
  std::vector<Miss> misses;
  std::uint64_t inexact = 0;
  const double traced_s = pass(&on, &misses, &inexact, false);
  const double untraced_s = pass(&off, nullptr, nullptr, false);
  const std::uint64_t first_timed = setup.size() + 1;

  // Self time: a span's duration minus its children's.
  const std::vector<Span>& spans = on.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, std::pair<double, double>> timed_ns;  // sum, count
  std::map<std::string, std::pair<double, double>> all_ns;
  double self_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = static_cast<double>(s.end - s.start);
    auto& all = all_ns[s.name];
    all.first += ns;
    all.second += 1;
    if (s.request < first_timed) continue;
    auto& t = timed_ns[s.name];
    t.first += ns;
    t.second += 1;
    if (s.parent >= 0) self_ns += ns - child_ns[i];
  }
  const double n_timed = static_cast<double>(replayed);
  const auto timed_us = [&](const char* name) {
    const auto& [sum, count] = timed_ns[name];
    return Mean(sum, count) * 1e-3;
  };

  ReplayResult out;
  out.timed_replayed = replayed;
  out.traced_self_ms = Mean(self_ns, n_timed) * 1e-6;
  LayerMetrics& m = out.metrics;
  m["textio.parse_us"] = timed_us("textio.parse");
  m["serve.wire.frame_us"] = Mean(timed_ns["serve.wire.decode"].first +
                                      timed_ns["serve.wire.encode"].first,
                                  n_timed) * 1e-3;
  m["serve.reply_us"] = timed_us("serve.reply");
  m["serve.plancache.fingerprint_us"] = timed_us("serve.plancache.fingerprint");
  m["serve.plancache.lookup_us"] = timed_us("serve.plancache.lookup");
  m["serve.plancache.inexact_share"] =
      Mean(static_cast<double>(inexact), n_timed);
  m["serve.plancache.insert_us"] =
      Mean(all_ns["serve.plancache.insert"].first,
           all_ns["serve.plancache.insert"].second) * 1e-3;
  m["api.optimize_ms"] = Mean(all_ns["api.optimize"].first,
                              all_ns["api.optimize"].second) * 1e-6;
  m["obs.trace_overhead_ratio"] = Mean(traced_s, untraced_s);

  double dp_s = 0, extract_s = 0, evaluate_s = 0, attach_s = 0;
  double simd = 0, nonexhaustive = 0, degradations = 0, peak_bytes = 0;
  std::vector<const Miss*> all_misses;
  std::vector<const Miss*> noest_misses;
  for (const Miss& miss : misses) {
    const blitz::OptimizeReport& r = miss.report;
    dp_s += r.optimize_seconds;
    extract_s += r.extract_seconds;
    evaluate_s += r.evaluate_seconds;
    attach_s += r.attach_seconds;
    peak_bytes =
        std::max(peak_bytes, static_cast<double>(r.peak_dp_table_bytes));
    simd += r.simd_level != blitz::SimdLevel::kScalar ? 1 : 0;
    nonexhaustive += miss.tier != blitz::OptimizerTier::kExhaustive ? 1 : 0;
    degradations += static_cast<double>(r.degradations.size());
    all_misses.push_back(&miss);
    if (r.estimator == blitz::EstimatorKind::kNoEstimate) {
      noest_misses.push_back(&miss);
    }
  }
  const double n_miss = static_cast<double>(misses.size());
  m["core.dp_ms"] = Mean(dp_s, n_miss) * 1e3;
  m["core.dp_table_peak_bytes"] = peak_bytes;
  m["simd.auto_engaged_share"] = Mean(simd, n_miss);
  m["plan.extract_us"] = Mean(extract_s, n_miss) * 1e6;
  m["plan.evaluate_us"] = Mean(evaluate_s, n_miss) * 1e6;
  m["plan.attach_us"] = Mean(attach_s, n_miss) * 1e6;
  m["api.nonexhaustive_share"] = Mean(nonexhaustive, n_miss);
  m["governor.degradations"] = degradations;

  // Exact operation counts on a sample of the misses: counting changes the
  // DP's instrumentation policy, so it runs apart from the timed replay.
  constexpr std::size_t kCountSample = 12;
  double loops = 0, kappa2 = 0, subsets = 0;
  const std::vector<const Miss*> counted = Sample(all_misses, kCountSample);
  for (const Miss* miss : counted) {
    const blitz::QuerySpec& spec = traffic.bodies()[miss->body].spec;
    std::optional<blitz::NoEstimateEstimator> no_estimate;
    blitz::QueryOptimizerOptions opts = ServingOptions(spec, &no_estimate);
    opts.collect_report = true;
    opts.count_operations = true;
    blitz::Result<blitz::OptimizedQuery> r =
        blitz::OptimizeQuery(spec.catalog, spec.graph, opts);
    if (!r.ok()) continue;
    loops += static_cast<double>(r->report->counters.loop_iterations);
    kappa2 += static_cast<double>(r->report->counters.kappa2_evaluations);
    subsets += static_cast<double>(r->report->counters.subsets_visited);
  }
  const double n_counted = static_cast<double>(counted.size());
  m["core.loop_iters"] = Mean(loops, n_counted);
  m["core.kappa2_evals"] = Mean(kappa2, n_counted);
  m["core.subsets"] = Mean(subsets, n_counted);

  double estimate_ns = 0;
  const std::vector<const Miss*> estimated = Sample(noest_misses, kCountSample);
  std::vector<double> cards;
  for (const Miss* miss : estimated) {
    const blitz::NoEstimateEstimator estimator(
        traffic.bodies()[miss->body].spec.graph);
    const std::int64_t t0 = NowNs();
    estimator.EstimateAll(&cards);
    estimate_ns += static_cast<double>(NowNs() - t0);
  }
  m["card.estimate_ms"] =
      Mean(estimate_ns, static_cast<double>(estimated.size())) * 1e-6;
  return out;
}

}  // namespace perfbench
