// Edge-case tests for the epoll connection multiplexer (serve/mux.h):
// fragmented frames, cross-connection error isolation, mid-frame
// disconnects, the slow-loris write timeout, /statz over the mux,
// serve.epoll.wait fault injection, parity with the blocking ServeStream
// pump, and a 1k-socket SIGTERM-style drain with exactly-once response
// accounting.

#include "serve/mux.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "governor/faultpoints.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "serve/wire.h"

namespace blitz {
namespace {

constexpr char kSmallBjq[] =
    "relation A 100\nrelation B 200\npredicate A B 0.1\n";

/// A unix-socket listener plus the wake pipe and mux thread: the blitzd
/// serving topology in miniature. Connections are blocking FdStreams on the
/// client side; the mux side is nonblocking by construction.
class MuxHarness {
 public:
  explicit MuxHarness(ServerOptions server_options = ServerOptions{},
                      MuxOptions mux_options = MuxOptions{}) {
    std::snprintf(path_, sizeof(path_), "/tmp/blitz_mux_test_%d_%p.sock",
                  ::getpid(), static_cast<void*>(this));
    ::unlink(path_);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_, std::strlen(path_) + 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0)
        << strerror(errno);
    EXPECT_EQ(::listen(listen_fd_, 1024), 0);
    EXPECT_EQ(::pipe(wake_pipe_), 0);

    Result<std::unique_ptr<BlitzServer>> server =
        BlitzServer::Create(server_options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);

    mux_options.listen_fd = listen_fd_;
    mux_options.wake_fd = wake_pipe_[0];
    thread_ = std::thread([this, mux_options] {
      served_ = ServeMultiplexed(server_.get(), mux_options);
    });
  }

  ~MuxHarness() {
    Finish();
    ::close(listen_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    ::unlink(path_);
  }

  /// Fires the wake fd (the SIGTERM analog) and joins the mux thread.
  Status Finish() {
    if (thread_.joinable()) {
      const char byte = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
      thread_.join();
    }
    return served_;
  }

  /// Opens one blocking client connection.
  int Connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_, std::strlen(path_) + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << strerror(errno);
    return fd;
  }

  BlitzServer* server() { return server_.get(); }

 private:
  char path_[128];
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<BlitzServer> server_;
  std::thread thread_;
  Status served_ = Status::OK();
};

TEST(ServeMuxTest, AnswersRequestsAndDrainsCleanly) {
  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");
  EXPECT_FALSE(reply->cached);
  Result<ServeReply> again = client.Optimize(kSmallBjq);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cached);
  EXPECT_EQ(again->plan, reply->plan);
  EXPECT_EQ(again->cost, reply->cost);
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, ReassemblesByteAtATimeFrames) {
  MuxHarness harness;
  const int fd = harness.Connect();
  RequestFrame frame;
  frame.tenant = "drip";
  frame.id = 7;
  frame.body = kSmallBjq;
  const std::string encoded = EncodeRequestFrame(frame);
  for (char c : encoded) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
    // A short pause every few bytes so the mux really sees fragments.
    if ((c & 3) == 0) std::this_thread::yield();
  }
  FdStream stream(fd, fd, /*own_fds=*/true);
  ResponseFrameReader reader(&stream, WireLimits{});
  Result<std::optional<ResponseFrame>> response = reader.Read();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_value());
  EXPECT_EQ((*response)->id, 7u);
  EXPECT_EQ((*response)->code, StatusCode::kOk);
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, GarbageOnOneConnectionDoesNotPoisonAnother) {
  MuxHarness harness;
  const int bad_fd = harness.Connect();
  const int good_fd = harness.Connect();

  // The good connection starts a legitimate request...
  FdStream good(good_fd, good_fd, /*own_fds=*/true);
  BlitzClient client(&good, BlitzClient::Options{});
  // ...while the bad one interleaves garbage.
  ASSERT_GT(::send(bad_fd, "utter garbage, not a frame\n", 27, 0), 0);

  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");

  // The bad connection got the id-0 protocol error and was closed.
  FdStream bad(bad_fd, bad_fd, /*own_fds=*/true);
  ResponseFrameReader reader(&bad, WireLimits{});
  Result<std::optional<ResponseFrame>> response = reader.Read();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_value());
  EXPECT_EQ((*response)->id, 0u);
  EXPECT_EQ((*response)->code, StatusCode::kInvalidArgument);
  Result<std::optional<ResponseFrame>> eof = reader.Read();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());

  good.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, MidFrameDisconnectIsHarmless) {
  MuxHarness harness;
  {
    const int fd = harness.Connect();
    // A header promising 1000 body bytes, then only a few, then gone.
    const std::string partial = "blitzq1 ghost 1 1000\nrelation A";
    ASSERT_GT(::send(fd, partial.data(), partial.size(), 0), 0);
    ::close(fd);
  }
  // The mux must shrug it off and keep serving.
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, StatzIsServedOverTheMux) {
  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());  // Warm: a cache hit.
  Result<std::string> statz = client.Statz();
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_NE(statz->find("requests_answered 2"), std::string::npos) << *statz;
  EXPECT_NE(statz->find("cache_hits 1"), std::string::npos) << *statz;
  EXPECT_NE(statz->find("cache_inserts 1"), std::string::npos) << *statz;
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, SlowLorisPeerForfeitsItsConnection) {
  MuxOptions mux_options;
  mux_options.write_timeout_ms = 200;
  MuxHarness harness(ServerOptions{}, mux_options);

  const int fd = harness.Connect();
  // Shrink the receive window so pending responses overflow the socket.
  const int tiny = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

  // Pipeline many requests and never read a byte.
  RequestFrame frame;
  frame.tenant = "loris";
  frame.body = kSmallBjq;
  // Enough pipelined responses (~115 B each) to overflow the server side's
  // default unix-socket send buffer, forcing EAGAIN and the stall clock.
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    frame.id = id;
    const std::string encoded = EncodeRequestFrame(frame);
    if (::send(fd, encoded.data(), encoded.size(), MSG_NOSIGNAL) < 0) break;
  }

  // Crucially, do NOT read yet: a loris never does. The pending responses
  // overflow the socket, the mux stalls on EAGAIN, and after
  // write_timeout_ms the connection is killed. Only then drain what was
  // buffered and observe the EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Closed: the timeout fired.
  }
  ::close(fd);

  // And the rest of the world is unaffected.
  const int good_fd = harness.Connect();
  FdStream stream(good_fd, good_fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  EXPECT_TRUE(client.Optimize(kSmallBjq).ok());
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, EpollWaitFailStatusFaultDrainsGracefully) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);

  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::Internal("injected epoll failure");
  registry.Arm(kFaultServeEpollWait, spec);

  // The loop hits the fault on its next wait cycle and starts the drain;
  // our connection is closed once everything submitted is answered.
  char buf[256];
  Result<std::size_t> n = stream.Read(buf, sizeof(buf));
  while (n.ok() && *n > 0) n = stream.Read(buf, sizeof(buf));

  const Status served = harness.Finish();
  EXPECT_FALSE(served.ok());
  EXPECT_NE(served.message().find("injected epoll failure"), std::string::npos)
      << served.ToString();
}

TEST(ServeMuxTest, TransientEpollFaultSkipsOneCycleAndKeepsServing) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);
  FaultSpec spec;
  spec.kind = FaultKind::kClockSkew;  // Any non-kFailStatus kind: a no-op
  spec.times = 3;                     // cycle, not a drain.
  registry.Arm(kFaultServeEpollWait, spec);

  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
  EXPECT_GE(registry.hits(kFaultServeEpollWait), 3u);
}

/// One response as the parity test compares it. A statz body keeps only
/// its keys: the counter values (and which tenants are momentarily in
/// flight) depend on worker timing, not on the transport.
using Answer = std::tuple<std::uint64_t, StatusCode, std::string>;

std::vector<Answer> ReadAnswers(ByteStream* stream) {
  std::vector<Answer> answers;
  ResponseFrameReader reader(stream, WireLimits{});
  for (;;) {
    Result<std::optional<ResponseFrame>> response = reader.Read();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok() || !response->has_value()) break;
    std::string body = std::move((*response)->body);
    if (StartsWith(body, kStatzMagic)) {
      std::string keys;
      for (const std::string& line : StrSplit(body, '\n')) {
        if (line.empty() || StartsWith(line, "tenant_in_flight.")) continue;
        keys += line.substr(0, line.find(' ')) + "\n";
      }
      body = keys;
    }
    answers.emplace_back((*response)->id, (*response)->code, std::move(body));
  }
  std::sort(answers.begin(), answers.end());
  return answers;
}

// Both transports run the same server path, so one byte script must get
// the same answers through the blocking pump and through the epoll loop:
// pipelined queries, /statz, a repeat answered from the plan cache, and a
// trailing truncated frame that ends the connection with one id-0 error.
TEST(ServeMuxTest, StreamAndMuxTransportsAnswerAScriptIdentically) {
  const auto request = [](std::uint64_t id, std::string body) {
    RequestFrame frame;
    frame.id = id;
    frame.body = std::move(body);
    return EncodeRequestFrame(frame);
  };
  const std::string script =
      request(1, kSmallBjq) +
      request(2,
              "relation A 100\nrelation B 200\nrelation C 50\n"
              "predicate A B 0.1\npredicate B C 0.2\n") +
      request(3, std::string(kStatzBody)) + request(4, kSmallBjq) +
      "blitzq1 default 5 100\nrelation A";
  // One worker runs the queue in order, so request 1 is always the fresh
  // computation and its repeat, request 4, the cache hit.
  ServerOptions options;
  options.num_workers = 1;

  std::vector<Answer> via_stream;
  {
    Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
    ASSERT_TRUE(server.ok());
    auto [client_end, server_end] = CreateDuplexPipe();
    Status served = Status::OK();
    std::thread pump([&served, &server, stream = server_end.get()] {
      served = ServeStream(server->get(), stream);
      stream->Close();
    });
    ASSERT_TRUE(client_end->Write(script).ok());
    client_end->CloseWrite();
    via_stream = ReadAnswers(client_end.get());
    pump.join();
    EXPECT_EQ(served.code(), StatusCode::kInvalidArgument)
        << served.ToString();
  }

  std::vector<Answer> via_mux;
  {
    MuxHarness harness(options);
    const int fd = harness.Connect();
    FdStream stream(fd, fd, /*own_fds=*/true);
    ASSERT_TRUE(stream.Write(script).ok());
    stream.CloseWrite();
    via_mux = ReadAnswers(&stream);
    EXPECT_TRUE(harness.Finish().ok());
  }

  EXPECT_EQ(via_stream, via_mux);
  ASSERT_EQ(via_stream.size(), 5u);
  EXPECT_EQ(via_stream[0],
            Answer(0, StatusCode::kInvalidArgument, "stream ended mid-frame"));
  for (std::size_t i = 1; i < via_stream.size(); ++i) {
    EXPECT_EQ(std::get<0>(via_stream[i]), i);
    EXPECT_EQ(std::get<1>(via_stream[i]), StatusCode::kOk);
  }
  EXPECT_NE(std::get<2>(via_stream[3]).find("blitz-statz-v1\n"),
            std::string::npos);
  EXPECT_EQ(std::get<2>(via_stream[1]).find("cached 1"), std::string::npos);
  EXPECT_NE(std::get<2>(via_stream[4]).find("cached 1"), std::string::npos);
}

// The headline property: 1k concurrent sockets, one request each, drain
// mid-traffic — every submitted request is answered exactly once and every
// connection sees clean EOF afterwards.
TEST(ServeMuxTest, ThousandSocketDrainAnswersEverythingExactlyOnce) {
  ServerOptions server_options;
  server_options.admission.default_quota.max_in_flight = 4096;
  server_options.max_queue = 4096;
  MuxHarness harness(server_options);

  constexpr int kConns = 1000;
  std::vector<int> fds(kConns, -1);
  RequestFrame frame;
  frame.tenant = "horde";
  frame.body = kSmallBjq;
  for (int i = 0; i < kConns; ++i) {
    fds[i] = harness.Connect();
    frame.id = static_cast<std::uint64_t>(i) + 1;
    const std::string encoded = EncodeRequestFrame(frame);
    ASSERT_EQ(::send(fds[i], encoded.data(), encoded.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(encoded.size()));
  }

  // Drain while traffic is still in flight. A request still sitting in a
  // socket buffer at drain time is legitimately dropped (never admitted),
  // so exactly-once means: no connection sees more than one response, and
  // the total delivered equals the total the server answered.
  std::thread finisher([&harness] { (void)harness.Finish(); });

  int answered = 0;
  for (int i = 0; i < kConns; ++i) {
    FdStream stream(fds[i], fds[i], /*own_fds=*/true);
    ResponseFrameReader reader(&stream, WireLimits{});
    int responses = 0;
    for (;;) {
      Result<std::optional<ResponseFrame>> response = reader.Read();
      if (!response.ok()) {
        // A drain-time close that leaves our request unread in the server's
        // receive queue surfaces as ECONNRESET rather than a clean FIN (the
        // request was never admitted, so no response is owed). Any response
        // the server did write was queued before the close and is delivered
        // ahead of the error, so this branch never swallows one.
        EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
            << "conn " << i << ": " << response.status().ToString();
        break;
      }
      if (!response->has_value()) break;  // Clean EOF.
      if ((*response)->id != 0) {
        EXPECT_EQ((*response)->id, static_cast<std::uint64_t>(i) + 1);
      }
      ++responses;
    }
    EXPECT_LE(responses, 1) << "conn " << i;
    answered += responses;
  }
  finisher.join();
  EXPECT_GE(answered, 1);
  EXPECT_EQ(harness.server()->requests_answered(),
            static_cast<std::uint64_t>(answered));
}

}  // namespace
}  // namespace blitz
