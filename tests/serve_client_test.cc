// Tests for the client library (serve/client.h): retry/backoff behavior
// against a scripted in-process peer.

#include "serve/client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/stream.h"
#include "serve/wire.h"

namespace blitz {
namespace {

constexpr char kBjq[] = "relation A 100\nrelation B 200\npredicate A B 0.1\n";

/// A scripted peer: answers request k with responses[k] (echoing the
/// request id), then keeps serving until the client half-closes.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<ResponseFrame> responses)
      : responses_(std::move(responses)) {
    auto [client_end, server_end] = CreateDuplexPipe();
    client_end_ = std::move(client_end);
    server_end_ = std::move(server_end);
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedServer() {
    client_end_->Close();
    thread_.join();
  }

  ByteStream* client_stream() { return client_end_.get(); }
  int requests_seen() const { return requests_seen_; }

 private:
  void Run() {
    RequestFrameReader reader(server_end_.get(), WireLimits{});
    for (;;) {
      Result<std::optional<RequestFrame>> request = reader.Read();
      if (!request.ok() || !request->has_value()) return;
      ResponseFrame response;
      if (static_cast<std::size_t>(requests_seen_) < responses_.size()) {
        response = responses_[static_cast<std::size_t>(requests_seen_)];
      } else {
        response.code = StatusCode::kInternal;
        response.body = "script exhausted";
      }
      ++requests_seen_;
      response.id = (*request)->id;
      if (!server_end_->Write(EncodeResponseFrame(response)).ok()) return;
    }
  }

  std::vector<ResponseFrame> responses_;
  std::unique_ptr<ByteStream> client_end_;
  std::unique_ptr<ByteStream> server_end_;
  std::thread thread_;
  int requests_seen_ = 0;
};

ResponseFrame Ok() {
  ServeReply reply;
  reply.plan = "(A x B)";
  reply.cost = 42;
  reply.tier = "exhaustive";
  ResponseFrame response;
  response.code = StatusCode::kOk;
  response.body = EncodeReplyBody(reply);
  return response;
}

ResponseFrame Shed(StatusCode code, double retry_after_ms = 0) {
  ResponseFrame response;
  response.code = code;
  response.retry_after_ms = retry_after_ms;
  response.body = "shed";
  return response;
}

BlitzClient::Options RecordingOptions(std::vector<double>* sleeps) {
  BlitzClient::Options options;
  options.sleep_ms = [sleeps](double ms) { sleeps->push_back(ms); };
  return options;
}

TEST(RetryPolicyTest, Validation) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.max_attempts = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.jitter = 1.5;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.max_backoff_ms = policy.initial_backoff_ms - 1;
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(ClientTest, SuccessNeedsNoRetry) {
  ScriptedServer server({Ok()});
  std::vector<double> sleeps;
  BlitzClient client(server.client_stream(), RecordingOptions(&sleeps));
  Result<ServeReply> reply = client.Optimize(kBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(server.requests_seen(), 1);
}

TEST(ClientTest, RetriesShedsWithExponentialBackoff) {
  ScriptedServer server({Shed(StatusCode::kResourceExhausted),
                         Shed(StatusCode::kUnavailable), Ok()});
  std::vector<double> sleeps;
  BlitzClient client(server.client_stream(), RecordingOptions(&sleeps));
  Result<ServeReply> reply = client.Optimize(kBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(server.requests_seen(), 3);
  ASSERT_EQ(sleeps.size(), 2u);
  // Defaults: base 25ms then 50ms, jitter +/-50%.
  EXPECT_GE(sleeps[0], 12.5);
  EXPECT_LE(sleeps[0], 37.5);
  EXPECT_GE(sleeps[1], 25.0);
  EXPECT_LE(sleeps[1], 75.0);
}

TEST(ClientTest, ServerRetryAfterHintRaisesTheBackoffFloor) {
  ScriptedServer server(
      {Shed(StatusCode::kResourceExhausted, /*retry_after_ms=*/500), Ok()});
  std::vector<double> sleeps;
  BlitzClient client(server.client_stream(), RecordingOptions(&sleeps));
  ASSERT_TRUE(client.Optimize(kBjq).ok());
  ASSERT_EQ(sleeps.size(), 1u);
  // Floor 500ms, jittered by +/-50%: at least 250ms, never the bare 25ms.
  EXPECT_GE(sleeps[0], 250.0);
}

TEST(ClientTest, GivesUpAfterMaxAttempts) {
  ScriptedServer server({Shed(StatusCode::kResourceExhausted),
                         Shed(StatusCode::kResourceExhausted),
                         Shed(StatusCode::kResourceExhausted)});
  std::vector<double> sleeps;
  BlitzClient::Options options = RecordingOptions(&sleeps);
  options.retry.max_attempts = 3;
  BlitzClient client(server.client_stream(), std::move(options));
  Result<ServeReply> reply = client.Optimize(kBjq);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.requests_seen(), 3);
  EXPECT_EQ(sleeps.size(), 2u);
}

TEST(ClientTest, TerminalErrorsAreNotRetried) {
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kInternal}) {
    ScriptedServer server({Shed(code)});
    std::vector<double> sleeps;
    BlitzClient client(server.client_stream(), RecordingOptions(&sleeps));
    Result<ServeReply> reply = client.Optimize(kBjq);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), code);
    EXPECT_TRUE(sleeps.empty()) << StatusCodeToString(code);
    EXPECT_EQ(server.requests_seen(), 1);
  }
}

TEST(ClientTest, IsRetryableClassification) {
  EXPECT_TRUE(BlitzClient::IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(BlitzClient::IsRetryable(StatusCode::kUnavailable));
  EXPECT_FALSE(BlitzClient::IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(BlitzClient::IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(BlitzClient::IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(BlitzClient::IsRetryable(StatusCode::kCancelled));
}

TEST(ClientTest, PipelinedSendsMatchResponsesById) {
  ScriptedServer server({Ok(), Ok(), Ok()});
  BlitzClient::Options options;
  options.sleep_ms = [](double) {};
  BlitzClient client(server.client_stream(), std::move(options));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    Result<std::uint64_t> id = client.Send(kBjq);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < 3; ++i) {
    Result<std::optional<ResponseFrame>> response = client.Receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->has_value());
    EXPECT_EQ((*response)->id, ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ((*response)->code, StatusCode::kOk);
  }
}

TEST(ClientTest, InvalidTenantFailsFastWithoutTouchingTheWire) {
  // A tenant the space-delimited header cannot carry must be rejected
  // client-side: encoded anyway, it would desync the framing and poison
  // the connection with a confusing server-side protocol error.
  for (const std::string& tenant : std::vector<std::string>{
           "has space", "has\nnewline", "", std::string(65, 'a')}) {
    ScriptedServer server({Ok()});
    BlitzClient::Options options;
    options.sleep_ms = [](double) {};
    options.tenant = tenant;
    BlitzClient client(server.client_stream(), std::move(options));
    Result<ServeReply> reply = client.Optimize(kBjq);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(server.requests_seen(), 0);
  }
}

TEST(ClientTest, ConnectionClosedMidCallIsUnavailable) {
  auto [client_end, server_end] = CreateDuplexPipe();
  server_end->Close();
  BlitzClient::Options options;
  options.sleep_ms = [](double) {};
  BlitzClient client(client_end.get(), std::move(options));
  Result<ServeReply> reply = client.Optimize(kBjq);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace blitz
