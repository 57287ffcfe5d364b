#include "serve/server.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "governor/faultpoints.h"
#include "obs/metrics.h"

namespace blitz {

namespace {

void Count(std::string_view name) {
  if (MetricsRegistry* metrics = GlobalMetrics()) metrics->AddCounter(name);
}

/// The retry hint stamped on queue-full and draining sheds: long enough to
/// let a queue of optimizations drain a bit, short enough that a retrying
/// client rides out a transient spike instead of giving up.
constexpr double kShedRetryAfterMs = 50;

/// Serving-grade fingerprint budget. The library default (512 IR nodes) is
/// tuned for offline exactness; on the serving hot path a budget-exhausting
/// symmetric query would cost milliseconds *per request* on the submitting
/// thread, so the server caps the search low. Exhaustion is safe — the
/// fallback fingerprint still hits for byte-identical repeats.
constexpr int kServingFingerprintBudget = 16;

/// Histograms need base tables the serving tier does not have, so hist is
/// refused both as the server default and as a request's directive.
constexpr char kHistUnservable[] =
    "estimator hist needs local base tables; the serving tier supports "
    "paper and noest";

ResponseFrame ErrorFrame(std::uint64_t id, const Status& error,
                         double retry_after_ms = 0) {
  return ResponseFrame{id, error.code(), retry_after_ms, error.message()};
}

/// The OK reply body. Every server result carries a report: Resolve sets
/// collect_report, and cached entries keep the inserting run's report.
std::string ReplyBody(const OptimizedQuery& result, const Catalog& catalog) {
  ServeReply reply;
  reply.plan = result.plan.ToString(&catalog);
  reply.cost = result.cost;
  reply.tier = OptimizerTierName(result.tier);
  reply.passes = result.passes;
  reply.degradations = static_cast<int>(result.report->degradations.size());
  reply.estimator = EstimatorKindName(result.report->estimator);
  reply.cached = result.from_cache;
  return EncodeReplyBody(reply);
}

}  // namespace

Status ServerOptions::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (default_deadline_ms < 0) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (drain_grace_ms < 0) {
    return Status::InvalidArgument("drain_grace_ms must be >= 0");
  }
  if (default_estimator == EstimatorKind::kSampleHistogram) {
    return Status::InvalidArgument(kHistUnservable);
  }
  if (cache.shards < 1) {
    return Status::InvalidArgument("cache.shards must be >= 1");
  }
  BLITZ_RETURN_IF_ERROR(admission.Validate());
  return optimizer.Validate();
}

Result<std::unique_ptr<BlitzServer>> BlitzServer::Create(
    ServerOptions options) {
  BLITZ_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<BlitzServer>(new BlitzServer(std::move(options)));
}

BlitzServer::BlitzServer(ServerOptions options)
    : options_(std::move(options)),
      arena_(options_.arena),
      admission_(options_.admission),
      cache_(options_.cache),
      latency_(Histogram::DefaultLatencyBounds()) {
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BlitzServer::~BlitzServer() { Shutdown(); }

Status BlitzServer::AcceptConnection(ResponseSink& sink) {
  std::optional<FaultSpec> fault = FaultHit(kFaultServeAccept);
  if (!fault.has_value()) return Status::OK();
  // Connection-level failure: answer once (id 0 — no frame was read) so
  // the client sees a status instead of a silent close, then refuse.
  const Status error = fault->kind == FaultKind::kFailStatus
                           ? fault->status
                           : Status::Unavailable("injected accept failure");
  Count("serve.accept_rejects");
  Respond(sink, ErrorFrame(0, error, kShedRetryAfterMs));
  return error;
}

void BlitzServer::SubmitProtocolError(ResponseSink& sink,
                                      const Status& error) {
  // The stream is no longer frame-aligned; nothing after this point can be
  // parsed, so answer with id 0. The process — and every other
  // connection — is unaffected.
  Count("serve.protocol_errors");
  Respond(sink, ErrorFrame(0, error));
}

Result<std::unique_ptr<BlitzServer::ResolvedQuery>> BlitzServer::Resolve(
    std::string_view body) {
  if (std::optional<FaultSpec> fault = FaultHit(kFaultServeParse)) {
    if (fault->kind == FaultKind::kFailStatus) return fault->status;
    return Status::ResourceExhausted("injected parse allocation failure");
  }
  Result<QuerySpec> parsed = ParseBjq(body, options_.parse);
  if (!parsed.ok()) return parsed.status();
  // The request's estimator directive wins over the server default.
  const EstimatorKind estimator =
      parsed->estimator.value_or(options_.default_estimator);
  if (estimator == EstimatorKind::kSampleHistogram) {
    return Status::InvalidArgument(kHistUnservable);
  }

  auto query = std::make_unique<ResolvedQuery>(std::move(*parsed));
  QueryOptimizerOptions& opts = query->options;
  opts = options_.optimizer;
  opts.cost_model = query->spec.cost_model;
  opts.initial_cost_threshold = query->spec.threshold;
  opts.estimator = estimator == EstimatorKind::kNoEstimate
                       ? &query->no_estimate
                       : nullptr;
  opts.collect_report = true;  // Degradation history feeds the reply body.
  opts.table_arena = &arena_;
  query->fingerprint = ComputePlanFingerprint(
      query->spec.catalog, query->spec.graph, opts, kServingFingerprintBudget);
  return query;
}

void BlitzServer::SubmitRequest(const std::shared_ptr<ResponseSink>& sink,
                                RequestFrame frame) {
  // 1. Introspection is answered before admission and before the draining
  // check — /statz must work while the server sheds everything else.
  if (frame.body == kStatzBody) {
    Count("serve.statz");
    Respond(*sink, ResponseFrame{frame.id, StatusCode::kOk, 0, StatzBody()});
    return;
  }

  Count("serve.requests");
  // A shed before admission holds no tenant slot: it answers directly.
  const auto shed = [&](const Status& status, double retry_after_ms,
                        std::string_view counter) {
    Count(counter);
    Respond(*sink, ErrorFrame(frame.id, status, retry_after_ms));
  };

  // 2. Draining.
  bool draining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining = draining_ || stopping_;
  }
  // Shed outside mu_: Respond re-enters it for the answered counter.
  if (draining) {
    shed(Status::Unavailable("server is draining"), kShedRetryAfterMs,
         "serve.shed.draining");
    return;
  }

  // 3. Tenant admission.
  Job job;
  job.start_time = std::chrono::steady_clock::now();
  AdmissionController::Decision decision =
      admission_.Admit(frame.tenant, frame.body.size());
  if (!decision.status.ok()) {
    shed(decision.status, decision.retry_after_ms, "serve.shed.admission");
    return;
  }
  // Admitted: from here every answer goes through Finish.
  job.sink = sink;
  job.id = frame.id;
  job.tenant = std::move(frame.tenant);

  // 4. Resolve. A body the server cannot serve (parse error, hist) is
  // answered here and never takes a queue slot.
  Result<std::unique_ptr<ResolvedQuery>> resolved = Resolve(frame.body);
  if (!resolved.ok()) {
    Finish(job, ErrorFrame(job.id, resolved.status()));
    return;
  }
  job.query = std::move(*resolved);

  // 5. Cache probe: a hit skips the queue and the workers entirely — the
  // warm-path latency is a parse + a fingerprint + one shard lookup.
  if (std::optional<OptimizedQuery> hit = cache_.Lookup(job.query->fingerprint);
      hit.has_value()) {
    Count("serve.cache.hit");
    Finish(job, ResponseFrame{job.id, StatusCode::kOk, 0,
                              ReplyBody(*hit, job.query->spec.catalog)});
    return;
  }
  Count("serve.cache.miss");

  // 6. Budget, enqueue fault, queue bound.
  const TenantQuota& quota = admission_.quota_for(job.tenant);
  double deadline_ms =
      frame.deadline_ms > 0 ? frame.deadline_ms : options_.default_deadline_ms;
  if (quota.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > quota.max_deadline_ms)) {
    deadline_ms = quota.max_deadline_ms;
  }
  job.token = std::make_shared<CancellationToken>();
  ResourceBudget& budget = job.query->options.budget;
  if (deadline_ms > 0) budget.deadline_seconds = deadline_ms / 1000.0;
  if (quota.max_dp_table_bytes > 0) {
    budget.max_dp_table_bytes = quota.max_dp_table_bytes;
  }
  budget.cancellation = job.token.get();
  // Resolve the deadline at enqueue so time spent waiting in the queue
  // counts against the request's allowance, not just optimize time.
  budget = budget.Resolved();

  if (std::optional<FaultSpec> fault = FaultHit(kFaultServeEnqueue)) {
    const Status error =
        fault->kind == FaultKind::kFailStatus
            ? fault->status
            : Status::ResourceExhausted("injected enqueue failure");
    Count("serve.shed.enqueue_fault");
    Finish(job, ErrorFrame(job.id, error, kShedRetryAfterMs));
    return;
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_ || stopping_ ||
        queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      const bool full = !draining_ && !stopping_;
      lock.unlock();
      Count(full ? "serve.shed.queue" : "serve.shed.draining");
      Finish(job, ErrorFrame(job.id,
                             Status::Unavailable(full ? "request queue is full"
                                                      : "server is draining"),
                             kShedRetryAfterMs));
      return;
    }
    job.token_key = next_token_key_++;
    in_flight_[job.token_key] = job.token;
    ++in_flight_count_;
    queue_.push_back(std::move(job));
    if (MetricsRegistry* metrics = GlobalMetrics()) {
      metrics->MaxGauge("serve.queue_depth_peak",
                        static_cast<double>(queue_.size()));
    }
  }
  queue_cv_.notify_one();
}

void BlitzServer::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    ProcessJob(std::move(job));
  }
}

void BlitzServer::ProcessJob(Job job) {
  // Cancelled while queued (a drain past its grace period): answer without
  // doing any work. Cancellation never degrades.
  if (job.token->cancelled()) {
    Finish(job, ErrorFrame(job.id, Status::Cancelled(
                                       "cancelled during server drain")));
    return;
  }

  // Single-flight through the cache: concurrent identical requests
  // coalesce onto one DP run; a completed, degradation-free result is
  // inserted for the next probe to hit. The submit-side probe already
  // counted this request's miss.
  const ResolvedQuery& query = *job.query;
  Result<OptimizedQuery> optimized = cache_.GetOrCompute(
      query.fingerprint,
      [&] {
        return OptimizeQuery(query.spec.catalog, query.spec.graph,
                             query.options);
      },
      [&] { return job.token->cancelled(); }, /*probed=*/true);
  if (!optimized.ok()) {
    Finish(job, ErrorFrame(job.id, optimized.status()));
    return;
  }
  if (optimized->from_cache) Count("serve.cache.hit");
  if (!optimized->report->degradations.empty()) Count("serve.degradations");
  Finish(job, ResponseFrame{job.id, StatusCode::kOk, 0,
                            ReplyBody(*optimized, query.spec.catalog)});
}

void BlitzServer::Finish(const Job& job, ResponseFrame response) {
  admission_.Release(job.tenant);
  if (job.token_key != 0) {  // It was queued: leave the in-flight set.
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(job.token_key);
    if (--in_flight_count_ == 0) idle_cv_.notify_all();
  }
  RecordLatencySample(job.start_time);
  Count(response.code == StatusCode::kOk ? "serve.responses.ok"
                                         : "serve.responses.error");
  // Answer last: a transport may treat the connection as square the moment
  // this response lands, so all of the request's bookkeeping is done.
  Respond(*job.sink, response);
}

void BlitzServer::RecordLatencySample(
    std::chrono::steady_clock::time_point start) {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    latency_.Record(seconds);
  }
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->RecordLatency("serve.latency", seconds);
  }
}

void BlitzServer::Respond(ResponseSink& sink, const ResponseFrame& response) {
  {
    // Counted before delivery, so a client that has its answer (or a
    // statz snapshot taken after it) already sees it counted.
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_answered_;
  }
  sink.SendResponse(response);
}

std::string BlitzServer::StatzBody() const {
  const PlanCache::Stats cache = cache_.GetStats();
  const DpTableArena::Stats arena = arena_.stats();
  std::string out(kStatzMagic);
  out += '\n';
  {
    std::lock_guard<std::mutex> lock(mu_);
    out += StrFormat("requests_answered %llu\n",
                     static_cast<unsigned long long>(requests_answered_));
    out += StrFormat("in_flight %d\n", in_flight_count_);
    out += StrFormat("queue_depth %zu\n", queue_.size());
    out += StrFormat("draining %d\n", draining_ || stopping_ ? 1 : 0);
    out += StrFormat("latency_count %llu\n",
                     static_cast<unsigned long long>(latency_.count()));
    out += StrFormat("latency_p50_ms %.3f\n",
                     latency_.Percentile(50) * 1e3);
    out += StrFormat("latency_p95_ms %.3f\n",
                     latency_.Percentile(95) * 1e3);
    out += StrFormat("latency_p99_ms %.3f\n",
                     latency_.Percentile(99) * 1e3);
  }
  out += StrFormat("workers %d\n", options_.num_workers);
  out += StrFormat("max_queue %d\n", options_.max_queue);
  out += StrFormat("cache_enabled %d\n",
                   options_.cache.max_entries > 0 ? 1 : 0);
  out += StrFormat("cache_hits %llu\n",
                   static_cast<unsigned long long>(cache.hits));
  out += StrFormat("cache_misses %llu\n",
                   static_cast<unsigned long long>(cache.misses));
  out += StrFormat("cache_inserts %llu\n",
                   static_cast<unsigned long long>(cache.inserts));
  out += StrFormat("cache_evictions %llu\n",
                   static_cast<unsigned long long>(cache.evictions));
  out += StrFormat("cache_bypasses %llu\n",
                   static_cast<unsigned long long>(cache.bypasses));
  out += StrFormat("cache_coalesced %llu\n",
                   static_cast<unsigned long long>(cache.coalesced));
  out += StrFormat("cache_entries %zu\n", cache.entries);
  out += StrFormat("cache_bytes %zu\n", cache.bytes);
  out += StrFormat("arena_hits %llu\n",
                   static_cast<unsigned long long>(arena.hits));
  out += StrFormat("arena_retained_tables %llu\n",
                   static_cast<unsigned long long>(arena.retained_tables));
  out += StrFormat("tenants_tracked %zu\n", admission_.tracked_tenants());
  for (const auto& [tenant, in_flight] : admission_.Snapshot()) {
    out += StrFormat("tenant_in_flight.%s %d\n", tenant.c_str(), in_flight);
  }
  return out;
}

void BlitzServer::BeginDrain() {
  bool skip_grace = false;
  if (std::optional<FaultSpec> fault = FaultHit(kFaultServeDrain)) {
    (void)fault;  // Any armed kind forces the no-grace drain path.
    skip_grace = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  if (skip_grace) drain_skip_grace_ = true;
}

void BlitzServer::CancelInFlight() {
  for (auto& [key, token] : in_flight_) {
    (void)key;
    token->Cancel();
  }
}

void BlitzServer::Shutdown() {
  BeginDrain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    const double grace_ms = drain_skip_grace_ ? 0 : options_.drain_grace_ms;
    idle_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(grace_ms)),
        [this] { return in_flight_count_ == 0; });
    if (in_flight_count_ > 0) {
      // Grace expired: cancel the stragglers. Workers observe the tokens at
      // their next amortized governor check and answer kCancelled, so every
      // admitted request still gets a response.
      if (MetricsRegistry* metrics = GlobalMetrics()) {
        metrics->AddCounter("serve.drain.cancelled",
                            static_cast<std::uint64_t>(in_flight_count_));
      }
      CancelInFlight();
      idle_cv_.wait(lock, [this] { return in_flight_count_ == 0; });
    }
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool BlitzServer::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

DpTableArena::Stats BlitzServer::arena_stats() const {
  return arena_.stats();
}

std::uint64_t BlitzServer::requests_answered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_answered_;
}

int BlitzServer::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_count_;
}

}  // namespace blitz
