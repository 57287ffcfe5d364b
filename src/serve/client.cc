#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace blitz {

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (initial_backoff_ms < 0 || max_backoff_ms < initial_backoff_ms) {
    return Status::InvalidArgument(
        "backoff bounds must satisfy 0 <= initial <= max");
  }
  if (multiplier < 1) {
    return Status::InvalidArgument("multiplier must be >= 1");
  }
  if (jitter < 0 || jitter > 1) {
    return Status::InvalidArgument("jitter must be in [0, 1]");
  }
  return Status::OK();
}

BlitzClient::BlitzClient(ByteStream* stream, Options options)
    : stream_(stream),
      options_(std::move(options)),
      reader_(stream, options_.wire),
      rng_(options_.seed) {
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](double ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    };
  }
}

bool BlitzClient::IsRetryable(StatusCode code) {
  // kResourceExhausted / kUnavailable are the shed codes: admission or
  // queue pressure rejected the request before any work ran. Everything
  // else (parse errors, deadline blown *during* optimization, cancellation)
  // is a verdict on the executed request, not on server load.
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

double BlitzClient::BackoffMs(int attempt, double retry_after_ms) {
  double backoff = options_.retry.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) backoff *= options_.retry.multiplier;
  backoff = std::min(backoff, options_.retry.max_backoff_ms);
  backoff = std::max(backoff, retry_after_ms);  // Server hint is a floor.
  const double jitter = options_.retry.jitter;
  const double factor = 1 - jitter + 2 * jitter * rng_.NextDouble();
  return backoff * factor;
}

Result<std::uint64_t> BlitzClient::Send(const std::string& bjq,
                                        double deadline_ms) {
  // Fail fast on a tenant the header cannot carry (a space or newline
  // would desync the framing and poison the connection with a confusing
  // server-side protocol error).
  if (!IsValidTenantName(options_.tenant)) {
    return Status::InvalidArgument(
        "tenant must be 1-64 chars of [A-Za-z0-9_.-], got \"" +
        options_.tenant + "\"");
  }
  RequestFrame frame;
  frame.tenant = options_.tenant;
  frame.id = next_id_++;
  frame.deadline_ms = deadline_ms;
  frame.body = bjq;
  BLITZ_RETURN_IF_ERROR(stream_->Write(EncodeRequestFrame(frame)));
  return frame.id;
}

Result<std::optional<ResponseFrame>> BlitzClient::Receive() {
  return reader_.Read();
}

void BlitzClient::CloseSend() { stream_->CloseWrite(); }

Result<std::string> BlitzClient::Statz() {
  Result<std::uint64_t> id = Send(std::string(kStatzBody));
  if (!id.ok()) return id.status();
  for (;;) {
    Result<std::optional<ResponseFrame>> received = Receive();
    if (!received.ok()) return received.status();
    if (!received->has_value()) {
      return Status::Unavailable("connection closed before the response");
    }
    if ((*received)->id != *id && (*received)->id != 0) continue;
    if ((*received)->code != StatusCode::kOk) {
      return Status((*received)->code, (*received)->body);
    }
    if (!StartsWith((*received)->body, kStatzMagic)) {
      return Status::InvalidArgument("reply is not a statz body");
    }
    return std::move((*received)->body);
  }
}

Result<ServeReply> BlitzClient::Optimize(const std::string& bjq,
                                         double deadline_ms) {
  for (int attempt = 1;; ++attempt) {
    Result<std::uint64_t> id = Send(bjq, deadline_ms);
    if (!id.ok()) return id.status();

    ResponseFrame response;
    for (;;) {
      Result<std::optional<ResponseFrame>> received = Receive();
      if (!received.ok()) return received.status();
      if (!received->has_value()) {
        return Status::Unavailable("connection closed before the response");
      }
      response = std::move(**received);
      // A synchronous client has exactly one request outstanding, but a
      // server ending the connection answers with id 0 — surface that as
      // this request's outcome rather than spinning on a dead stream.
      if (response.id == *id || response.id == 0) break;
    }

    if (response.code == StatusCode::kOk) {
      return ParseReplyBody(response.body);
    }
    const Status error(response.code, response.body);
    if (!IsRetryable(response.code) ||
        attempt >= options_.retry.max_attempts || response.id == 0) {
      return error;
    }
    options_.sleep_ms(BackoffMs(attempt, response.retry_after_ms));
  }
}

}  // namespace blitz
