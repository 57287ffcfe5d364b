#ifndef BLITZ_SERVE_CLIENT_H_
#define BLITZ_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "serve/stream.h"
#include "serve/wire.h"

namespace blitz {

/// Exponential backoff with full-range jitter for retrying shed requests.
/// Attempt k (1-based) sleeps
///
///   min(max_backoff_ms, initial_backoff_ms * multiplier^(k-1)) * U
///
/// where U is uniform in [1 - jitter, 1 + jitter] — the decorrelation that
/// keeps a thundering herd of shed clients from re-arriving in lockstep. A
/// server retry_after_ms hint raises the floor of the computed backoff.
struct RetryPolicy {
  /// Total tries, including the first (1 = no retries).
  int max_attempts = 4;

  double initial_backoff_ms = 25;
  double max_backoff_ms = 2000;
  double multiplier = 2.0;

  /// Jitter half-width as a fraction of the backoff; in [0, 1].
  double jitter = 0.5;

  Status Validate() const;
};

/// Client side of the blitz-serve-v1 protocol over any ByteStream.
///
/// Two usage modes:
///   - Optimize(): one synchronous request/response with automatic retry on
///     overload sheds (kResourceExhausted / kUnavailable responses).
///   - Send()/Receive(): raw pipelining for load generators — many requests
///     in flight on one connection, responses matched by id upstream.
///
/// Not thread-safe; one BlitzClient per thread (the protocol itself
/// supports any number of connections).
class BlitzClient {
 public:
  struct Options {
    std::string tenant = "default";
    WireLimits wire;
    RetryPolicy retry;

    /// Jitter seed — backoff sequences are reproducible per client.
    std::uint64_t seed = 1;

    /// Sleep hook, overridable so tests assert backoff schedules without
    /// real waiting. Defaults to an actual sleep.
    std::function<void(double ms)> sleep_ms;
  };

  BlitzClient(ByteStream* stream, Options options);

  /// One request, synchronously: sends `bjq`, awaits the response, retries
  /// (with backoff) responses whose code says the server shed the request.
  /// Deadline 0 = server default. Returns the parsed reply, the server's
  /// terminal error, or the transport error.
  Result<ServeReply> Optimize(const std::string& bjq, double deadline_ms = 0);

  /// Introspection: sends the /statz request and returns the raw statz
  /// body (the blitz-statz-v1 key/value text; see serve/wire.h). Works
  /// against a draining server — statz is answered before admission.
  Result<std::string> Statz();

  /// Pipelining: frames and sends one request without waiting. Returns the
  /// assigned request id.
  Result<std::uint64_t> Send(const std::string& bjq, double deadline_ms = 0);

  /// Pipelining: next response frame in arrival order (which is completion
  /// order, not send order). nullopt on clean end-of-stream.
  Result<std::optional<ResponseFrame>> Receive();

  /// Half-closes the request direction — tells a draining server this
  /// client is done sending while responses stay readable.
  void CloseSend();

  /// True for response codes that mean "the server did not execute this
  /// request and a later retry may succeed".
  static bool IsRetryable(StatusCode code);

 private:
  double BackoffMs(int attempt, double retry_after_ms);

  ByteStream* stream_;
  Options options_;
  ResponseFrameReader reader_;
  Rng rng_;
  std::uint64_t next_id_ = 1;
};

}  // namespace blitz

#endif  // BLITZ_SERVE_CLIENT_H_
