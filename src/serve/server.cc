#include "serve/server.h"

#include <chrono>
#include <utility>

#include "card/no_estimate.h"
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
/// fallback fingerprint still hits for byte-identical repeats — and the
/// probe and insert paths share this constant, so their keys always agree.
constexpr int kServingFingerprintBudget = 16;

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
    return Status::InvalidArgument(
        "estimator hist needs local base tables; the serving tier supports "
        "paper and noest");
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
  Respond(sink,
          ResponseFrame{0, error.code(), kShedRetryAfterMs, error.message()});
  return error;
}

void BlitzServer::SubmitProtocolError(ResponseSink& sink,
                                      const Status& error) {
  // The stream is no longer frame-aligned; nothing after this point can be
  // parsed, so answer with id 0. The process — and every other
  // connection — is unaffected.
  Count("serve.protocol_errors");
  Respond(sink, ResponseFrame{0, error.code(), 0, error.message()});
}

std::string BlitzServer::BuildReplyBody(
    const OptimizedQuery& result, const Catalog& catalog,
    EstimatorKind requested_estimator) const {
  ServeReply reply;
  reply.plan = result.plan.ToString(&catalog);
  reply.cost = result.cost;
  reply.tier = OptimizerTierName(result.tier);
  reply.passes = result.passes;
  reply.degradations =
      result.report.has_value()
          ? static_cast<int>(result.report->degradations.size())
          : 0;
  reply.estimator = result.report.has_value()
                        ? EstimatorKindName(result.report->estimator)
                        : EstimatorKindName(requested_estimator);
  reply.cached = result.from_cache;
  return EncodeReplyBody(reply);
}

void BlitzServer::SubmitRequest(const std::shared_ptr<ResponseSink>& sink,
                                RequestFrame frame) {
  // Introspection is answered before admission and before the draining
  // check — /statz must work while the server sheds everything else.
  if (frame.body == kStatzBody) {
    Count("serve.statz");
    Respond(*sink, ResponseFrame{frame.id, StatusCode::kOk, 0, StatzBody()});
    return;
  }

  Count("serve.requests");
  const auto shed = [&](const Status& status, double retry_after_ms,
                        std::string_view counter) {
    Count(counter);
    Respond(*sink, ResponseFrame{frame.id, status.code(), retry_after_ms,
                                 status.message()});
  };

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

  const auto start_time = std::chrono::steady_clock::now();
  AdmissionController::Decision decision =
      admission_.Admit(frame.tenant, frame.body.size());
  if (!decision.status.ok()) {
    shed(decision.status, decision.retry_after_ms, "serve.shed.admission");
    return;
  }
  // Admitted: from here every early exit must Release the tenant slot.

  Job job;
  job.sink = sink;
  job.id = frame.id;
  job.tenant = frame.tenant;
  job.body = std::move(frame.body);

  // Plan-cache probe, on the submitting thread: parse and canonicalize
  // here so a hit skips the queue and the workers entirely — the warm-path
  // latency is a parse + a fingerprint + one shard lookup. A miss hands
  // the parsed spec and fingerprint to the worker (no duplicate work);
  // anything unusual (parse error, unservable estimator) is deliberately
  // left for ProcessJob so error ordering matches the uncached server.
  if (!cache_.disabled()) {
    Result<QuerySpec> parsed = ParseBjq(job.body, options_.parse);
    if (parsed.ok()) {
      const EstimatorKind estimator_kind =
          parsed->estimator.value_or(options_.default_estimator);
      if (estimator_kind != EstimatorKind::kSampleHistogram) {
        std::optional<NoEstimateEstimator> no_estimate;
        if (estimator_kind == EstimatorKind::kNoEstimate) {
          no_estimate.emplace(parsed->graph);
        }
        QueryOptimizerOptions opts = options_.optimizer;
        opts.cost_model = parsed->cost_model;
        opts.initial_cost_threshold = parsed->threshold;
        opts.estimator = no_estimate.has_value() ? &*no_estimate : nullptr;
        PlanFingerprint fp =
            ComputePlanFingerprint(parsed->catalog, parsed->graph, opts,
                                   kServingFingerprintBudget);
        if (std::optional<OptimizedQuery> hit = cache_.Lookup(fp);
            hit.has_value()) {
          const std::string body =
              BuildReplyBody(*hit, parsed->catalog, estimator_kind);
          admission_.Release(job.tenant);
          Count("serve.cache.hit");
          RecordLatencySample(start_time);
          Respond(*sink, ResponseFrame{job.id, StatusCode::kOk, 0, body});
          return;
        }
        Count("serve.cache.miss");
        job.fingerprint = std::move(fp);
      }
      job.spec = std::move(*parsed);
    }
  }

  const TenantQuota& quota = admission_.quota_for(job.tenant);
  double deadline_ms =
      frame.deadline_ms > 0 ? frame.deadline_ms : options_.default_deadline_ms;
  if (quota.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > quota.max_deadline_ms)) {
    deadline_ms = quota.max_deadline_ms;
  }

  job.token = std::make_shared<CancellationToken>();
  job.enqueue_time = start_time;
  job.budget = options_.optimizer.budget;
  if (deadline_ms > 0) job.budget.deadline_seconds = deadline_ms / 1000.0;
  if (quota.max_dp_table_bytes > 0) {
    job.budget.max_dp_table_bytes = quota.max_dp_table_bytes;
  }
  job.budget.cancellation = job.token.get();
  // Resolve the deadline at enqueue so time spent waiting in the queue
  // counts against the request's allowance, not just optimize time.
  job.budget = job.budget.Resolved();

  if (std::optional<FaultSpec> fault = FaultHit(kFaultServeEnqueue)) {
    admission_.Release(job.tenant);
    const Status error =
        fault->kind == FaultKind::kFailStatus
            ? fault->status
            : Status::ResourceExhausted("injected enqueue failure");
    shed(error, kShedRetryAfterMs, "serve.shed.enqueue_fault");
    return;
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_ || stopping_ ||
        queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      const bool full = !draining_ && !stopping_;
      lock.unlock();
      admission_.Release(job.tenant);
      shed(Status::Unavailable(full ? "request queue is full"
                                    : "server is draining"),
           kShedRetryAfterMs,
           full ? "serve.shed.queue" : "serve.shed.draining");
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
    FinishJob(job, ResponseFrame{job.id, StatusCode::kCancelled, 0,
                                 "cancelled during server drain"});
    return;
  }

  if (std::optional<FaultSpec> fault = FaultHit(kFaultServeParse)) {
    const Status error =
        fault->kind == FaultKind::kFailStatus
            ? fault->status
            : Status::ResourceExhausted("injected parse allocation failure");
    FinishJob(job, ResponseFrame{job.id, error.code(), 0, error.message()});
    return;
  }

  QuerySpec spec;
  if (job.spec.has_value()) {
    spec = std::move(*job.spec);  // The cache probe already parsed it.
  } else {
    Result<QuerySpec> parsed = ParseBjq(job.body, options_.parse);
    if (!parsed.ok()) {
      const Status error = parsed.status();
      FinishJob(job,
                ResponseFrame{job.id, error.code(), 0, error.message()});
      return;
    }
    spec = std::move(*parsed);
  }

  // Resolve the cardinality estimator: the request's directive wins over
  // the server default. Histograms need base tables the serving tier does
  // not have, so a hist request is a request-level error, not a crash.
  const EstimatorKind estimator_kind =
      spec.estimator.value_or(options_.default_estimator);
  if (estimator_kind == EstimatorKind::kSampleHistogram) {
    FinishJob(job,
              ResponseFrame{job.id, StatusCode::kInvalidArgument, 0,
                            "estimator hist needs local base tables; the "
                            "serving tier supports paper and noest"});
    return;
  }
  std::optional<NoEstimateEstimator> no_estimate;
  if (estimator_kind == EstimatorKind::kNoEstimate) {
    no_estimate.emplace(spec.graph);
  }

  QueryOptimizerOptions opts = options_.optimizer;
  opts.cost_model = spec.cost_model;
  opts.initial_cost_threshold = spec.threshold;
  opts.budget = job.budget;
  opts.table_arena = &arena_;
  opts.collect_report = true;  // Degradation history feeds the reply body.
  opts.estimator = no_estimate.has_value() ? &*no_estimate : nullptr;

  Result<OptimizedQuery> optimized = Status::Internal("unreachable");
  if (cache_.disabled()) {
    optimized = OptimizeQuery(spec.catalog, spec.graph, opts);
  } else {
    // Single-flight through the cache: concurrent identical requests
    // coalesce onto one DP run; a completed, degradation-free result is
    // inserted for the next reader-thread probe to hit.
    PlanFingerprint fp =
        job.fingerprint.has_value()
            ? std::move(*job.fingerprint)
            : ComputePlanFingerprint(spec.catalog, spec.graph, opts,
                                     kServingFingerprintBudget);
    optimized = cache_.GetOrCompute(
        fp, [&] { return OptimizeQuery(spec.catalog, spec.graph, opts); },
        [&] { return job.token->cancelled(); });
    if (optimized.ok() && optimized->from_cache) Count("serve.cache.hit");
  }
  if (!optimized.ok()) {
    const Status error = optimized.status();
    FinishJob(job, ResponseFrame{job.id, error.code(), 0, error.message()});
    return;
  }

  const int degradations =
      optimized->report.has_value()
          ? static_cast<int>(optimized->report->degradations.size())
          : 0;
  if (degradations > 0) Count("serve.degradations");
  FinishJob(job,
            ResponseFrame{job.id, StatusCode::kOk, 0,
                          BuildReplyBody(*optimized, spec.catalog,
                                         estimator_kind)});
}

void BlitzServer::FinishJob(const Job& job, ResponseFrame response) {
  admission_.Release(job.tenant);
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(job.token_key);
    if (--in_flight_count_ == 0) idle_cv_.notify_all();
  }
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter(response.code == StatusCode::kOk
                            ? "serve.responses.ok"
                            : "serve.responses.error");
  }
  RecordLatencySample(job.enqueue_time);
  // Answer last: a transport may treat the connection as square the moment
  // this response lands, so all of the job's bookkeeping is already done.
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
  out += StrFormat("cache_enabled %d\n", cache_.disabled() ? 0 : 1);
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
