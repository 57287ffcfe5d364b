#ifndef BLITZ_SERVE_SERVER_H_
#define BLITZ_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/optimize_query.h"
#include "card/no_estimate.h"
#include "core/table_arena.h"
#include "governor/budget.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/plancache.h"
#include "serve/wire.h"
#include "textio/bjq.h"

namespace blitz {

/// Configuration for a BlitzServer instance.
struct ServerOptions {
  /// Dedicated optimizer worker threads draining the request queue. (The
  /// rank-parallel ThreadPool is a barrier pool for one DP pass, not a task
  /// queue — serving needs its own workers.)
  int num_workers = 4;

  /// Bounded request-queue depth across all connections and tenants. A full
  /// queue sheds with kUnavailable + retry_after_ms rather than buffering
  /// unboundedly — the global backstop behind the per-tenant caps.
  int max_queue = 256;

  /// Deadline stamped onto requests that do not carry their own
  /// deadline_ms. 0 = none (the optimizer template's budget still applies).
  double default_deadline_ms = 0;

  /// How long a drain waits for in-flight requests to finish naturally
  /// before cancelling them.
  double drain_grace_ms = 2000;

  /// Estimator for requests whose .bjq carries no `estimator` directive.
  /// The serving tier has no local base tables to histogram, so only paper
  /// and noest are servable — Validate() rejects hist here, and a request
  /// asking for it is answered kInvalidArgument. The resolved name rides
  /// back on the reply's `estimator` line.
  EstimatorKind default_estimator = EstimatorKind::kPaperFanout;

  AdmissionOptions admission;
  WireLimits wire;
  BjqLimits parse;

  /// Template for per-request optimizer configuration. The server stamps
  /// per-request fields (cost model, threshold, estimator, collect_report,
  /// table_arena, budget) on a copy; everything else — parallelism, SIMD
  /// level, degrade_on_budget — is honored as configured here.
  /// degrade_on_budget defaults to true, so over-budget requests degrade
  /// exhaustive -> hybrid -> greedy and still answer.
  QueryOptimizerOptions optimizer;

  /// Plan-cache bounds (serve/plancache.h). max_entries = 0 turns caching
  /// off entirely (blitzd --cache-entries 0): every probe misses and every
  /// request runs the optimizer, through the same request path.
  PlanCache::Options cache;

  /// Retention policy of the shared DP-table arena.
  DpTableArena::Options arena;

  Status Validate() const;
};

/// A connection's response channel — the only way the server talks to a
/// connection. Transports (the epoll multiplexer and the blocking
/// ServeStream pump, serve/mux.h) implement it. The server calls
/// SendResponse exactly once per SubmitRequest / SubmitProtocolError call
/// and once per refused AcceptConnection — from worker threads or from
/// inside the submitting call itself (sheds, /statz, parse errors, cache
/// hits) — so implementations must be thread-safe and must tolerate calls
/// after their transport closed (drop the frame; the request still counts
/// as answered). Queued work holds the sink by shared_ptr until it answers.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void SendResponse(const ResponseFrame& response) = 0;
};

/// A multi-tenant optimizer server: frames in, plans out.
///
/// Threading model: a transport calls AcceptConnection once per new
/// connection, then SubmitRequest per parsed frame from its reader thread
/// (the epoll loop, or a ServeStream pump). Every request takes one path,
/// whatever the cache state. The submitting thread answers /statz, sheds
/// while draining, applies tenant admission, resolves the body (parse,
/// estimator, optimizer options, fingerprint), probes the plan cache, and
/// stamps the budget; parse errors, unservable estimators, cache hits and
/// sheds are answered right there (no queue, no worker — this is what makes
/// warm repeat traffic cheap). A miss is queued for num_workers dedicated
/// threads, which optimize through the cache's single-flight GetOrCompute
/// and answer out of request order — clients match on frame id. One
/// request can never take the process down: parse errors, admission sheds,
/// budget exhaustion, and injected faults (serve.* points) all turn into
/// status-coded response frames on the same connection.
///
/// Lifecycle: Create -> AcceptConnection + SubmitRequest (any number of
/// connections, concurrently) -> BeginDrain -> Shutdown. Drain stops
/// admitting (new requests shed with kUnavailable), waits drain_grace_ms
/// for in-flight work, then cancels the remainder via their per-request
/// CancellationTokens — every admitted request is answered (a plan, an
/// error, or kCancelled) before Shutdown returns.
class BlitzServer {
 public:
  /// Validates options, starts the worker threads.
  static Result<std::unique_ptr<BlitzServer>> Create(ServerOptions options);

  ~BlitzServer();

  BlitzServer(const BlitzServer&) = delete;
  BlitzServer& operator=(const BlitzServer&) = delete;

  /// Admits a new connection. An armed serve.accept fault refuses it:
  /// `sink` is answered once with id 0 and the error is returned, and the
  /// transport must close the connection without reading from it.
  Status AcceptConnection(ResponseSink& sink);

  /// Submits one parsed request frame. Exactly one SendResponse per call —
  /// possibly synchronously (shed, /statz, parse error, cache hit), possibly
  /// later from a worker, which holds `sink` until then.
  void SubmitRequest(const std::shared_ptr<ResponseSink>& sink,
                     RequestFrame frame);

  /// Reports a connection-level framing failure: answers once, with id 0.
  /// The transport should stop reading and close once pending responses
  /// flush.
  void SubmitProtocolError(ResponseSink& sink, const Status& error);

  /// Stops admitting new requests (sheds with kUnavailable). Non-blocking;
  /// idempotent. An armed serve.drain fault skips the grace period: the
  /// next Shutdown cancels in-flight work immediately.
  void BeginDrain();

  /// BeginDrain + wait: lets in-flight requests finish for up to
  /// drain_grace_ms, cancels stragglers, stops and joins the workers. Every
  /// admitted request has been answered when this returns. Idempotent.
  void Shutdown();

  bool draining() const;

  /// Pool statistics of the shared DP-table arena.
  DpTableArena::Stats arena_stats() const;

  /// Requests answered since startup (any status).
  std::uint64_t requests_answered() const;

  /// Requests queued for a worker and not yet answered (queued +
  /// executing).
  int in_flight() const;

  /// Plan-cache counters. With the cache disabled only `misses` moves: one
  /// per resolved request.
  PlanCache::Stats cache_stats() const { return cache_.GetStats(); }

  /// The /statz reply body: the blitz-statz-v1 magic line plus one
  /// `<key> <value>` pair per line — queue/worker occupancy, cache
  /// counters, latency percentiles, and per-tenant admission state.
  /// Forward-extensible: readers must ignore unknown keys.
  std::string StatzBody() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// A request's pre-DP work, done once on the submitting thread: the
  /// parsed query, its per-request optimizer options and its cache key.
  /// Pinned on the heap, because `options.estimator` may point at
  /// `no_estimate`, which borrows `spec.graph`.
  struct ResolvedQuery {
    explicit ResolvedQuery(QuerySpec parsed) : spec(std::move(parsed)) {}
    ResolvedQuery(const ResolvedQuery&) = delete;
    ResolvedQuery& operator=(const ResolvedQuery&) = delete;

    QuerySpec spec;
    NoEstimateEstimator no_estimate{spec.graph};
    QueryOptimizerOptions options;  ///< Budget stamped at enqueue.
    PlanFingerprint fingerprint;
  };

  /// One admitted request. Owning the token via shared_ptr keeps
  /// drain-cancellation race-free with job completion.
  struct Job {
    std::shared_ptr<ResponseSink> sink;
    std::uint64_t id = 0;
    std::string tenant;
    std::chrono::steady_clock::time_point start_time;
    std::unique_ptr<ResolvedQuery> query;
    std::shared_ptr<CancellationToken> token;
    std::uint64_t token_key = 0;  ///< Nonzero once queued (in_flight_).
  };

  explicit BlitzServer(ServerOptions options);

  /// Runs the serve.parse fault point, parses `body`, resolves its
  /// estimator and builds its optimizer options and fingerprint.
  Result<std::unique_ptr<ResolvedQuery>> Resolve(std::string_view body);
  void WorkerLoop();
  void ProcessJob(Job job);
  /// Answers an admitted request: releases its tenant slot (and in-flight
  /// entry), records its latency and response counter, then responds.
  void Finish(const Job& job, ResponseFrame response);
  void Respond(ResponseSink& sink, const ResponseFrame& response);
  void RecordLatencySample(std::chrono::steady_clock::time_point start);
  void CancelInFlight();

  const ServerOptions options_;
  DpTableArena arena_;
  AdmissionController admission_;
  PlanCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   ///< Workers wait for jobs / stop.
  std::condition_variable idle_cv_;    ///< Shutdown waits for in-flight 0.
  std::deque<Job> queue_;
  std::map<std::uint64_t, std::shared_ptr<CancellationToken>> in_flight_;
  std::uint64_t next_token_key_ = 1;
  int in_flight_count_ = 0;  ///< Queued + executing.
  bool draining_ = false;
  bool drain_skip_grace_ = false;  ///< Armed serve.drain fault fired.
  bool stopping_ = false;
  bool shut_down_ = false;
  std::uint64_t requests_answered_ = 0;
  Histogram latency_;  ///< End-to-end request latency (seconds), under mu_.

  std::vector<std::thread> workers_;
};

}  // namespace blitz

#endif  // BLITZ_SERVE_SERVER_H_
