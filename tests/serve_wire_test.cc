// Tests for the blitz-serve-v1 wire format (serve/wire.h) and the
// ByteStream transports underneath it (serve/stream.h).

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/stream.h"

namespace blitz {
namespace {

RequestFrame MakeRequest(std::uint64_t id, std::string body) {
  RequestFrame frame;
  frame.tenant = "tenant-a";
  frame.id = id;
  frame.body = std::move(body);
  return frame;
}

TEST(WireTest, RequestRoundTrip) {
  RequestFrame frame = MakeRequest(42, "relation A 10\n");
  frame.deadline_ms = 250;
  const std::string encoded = EncodeRequestFrame(frame);

  auto [client, server] = CreateDuplexPipe();
  ASSERT_TRUE(client->Write(encoded).ok());
  client->CloseWrite();

  RequestFrameReader reader(server.get(), WireLimits{});
  Result<std::optional<RequestFrame>> read = reader.Read();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ((*read)->tenant, "tenant-a");
  EXPECT_EQ((*read)->id, 42u);
  EXPECT_EQ((*read)->deadline_ms, 250);
  EXPECT_EQ((*read)->body, "relation A 10\n");

  // Clean EOF at the frame boundary reads as nullopt, not an error.
  Result<std::optional<RequestFrame>> eof = reader.Read();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
}

TEST(WireTest, ResponseRoundTripWithRetryAfter) {
  ResponseFrame frame;
  frame.id = 7;
  frame.code = StatusCode::kResourceExhausted;
  frame.retry_after_ms = 12.5;
  frame.body = "tenant over quota";

  auto [a, b] = CreateDuplexPipe();
  ASSERT_TRUE(a->Write(EncodeResponseFrame(frame)).ok());
  a->CloseWrite();

  ResponseFrameReader reader(b.get(), WireLimits{});
  Result<std::optional<ResponseFrame>> read = reader.Read();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ((*read)->id, 7u);
  EXPECT_EQ((*read)->code, StatusCode::kResourceExhausted);
  EXPECT_EQ((*read)->retry_after_ms, 12.5);
  EXPECT_EQ((*read)->body, "tenant over quota");
}

TEST(WireTest, PipelinedFramesReadBackToBack) {
  auto [a, b] = CreateDuplexPipe();
  std::string wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    wire += EncodeRequestFrame(MakeRequest(id, "body" + std::to_string(id)));
  }
  ASSERT_TRUE(a->Write(wire).ok());
  a->CloseWrite();

  RequestFrameReader reader(b.get(), WireLimits{});
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Result<std::optional<RequestFrame>> read = reader.Read();
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(read->has_value());
    EXPECT_EQ((*read)->id, id);
    EXPECT_EQ((*read)->body, "body" + std::to_string(id));
  }
}

TEST(WireTest, MalformedHeadersAreErrors) {
  const std::vector<std::string> bad = {
      "blitzq2 default 1 0\n",              // wrong magic
      "blitzq1 default 1\n",                // missing body length
      "blitzq1 default one 0\n",            // non-numeric id
      "blitzq1 default 1 zero\n",           // non-numeric length
      "blitzq1 bad~tenant 1 0\n",           // invalid tenant character
      "blitzq1 default 1 0 frobnicate=1\n", // unknown optional field
      "blitzq1 default 1 0 deadline_ms=-5\n",
      "blitzq1 default 99999999999999999999999 0\n",  // uint64 overflow
  };
  for (const std::string& header : bad) {
    auto [a, b] = CreateDuplexPipe();
    ASSERT_TRUE(a->Write(header).ok());
    a->CloseWrite();
    RequestFrameReader reader(b.get(), WireLimits{});
    Result<std::optional<RequestFrame>> read = reader.Read();
    EXPECT_FALSE(read.ok()) << "accepted: " << header;
  }
}

TEST(WireTest, TenantNameValidation) {
  EXPECT_TRUE(IsValidTenantName("default"));
  EXPECT_TRUE(IsValidTenantName("team-7.shard_2"));
  EXPECT_TRUE(IsValidTenantName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName(std::string(65, 'a')));
  EXPECT_FALSE(IsValidTenantName("has space"));    // Splits the header.
  EXPECT_FALSE(IsValidTenantName("has\nnewline"));  // Ends the header.
  EXPECT_FALSE(IsValidTenantName("bad~tenant"));
}

TEST(WireTest, OversizedDeclaredBodyRejectedBeforeReading) {
  auto [a, b] = CreateDuplexPipe();
  // Declares 1 GiB; only the header is ever sent. The reader must reject
  // from the declared length alone instead of trying to buffer it.
  ASSERT_TRUE(a->Write("blitzq1 default 1 1073741824\n").ok());
  WireLimits limits;
  limits.max_body_bytes = 1 << 20;
  RequestFrameReader reader(b.get(), limits);
  Result<std::optional<RequestFrame>> read = reader.Read();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kResourceExhausted);
}

TEST(WireTest, UnterminatedHeaderBoundedByLimit) {
  auto [a, b] = CreateDuplexPipe();
  ASSERT_TRUE(a->Write(std::string(4096, 'x')).ok());
  WireLimits limits;
  limits.max_header_bytes = 256;
  RequestFrameReader reader(b.get(), limits);
  Result<std::optional<RequestFrame>> read = reader.Read();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, TruncatedBodyIsAnError) {
  auto [a, b] = CreateDuplexPipe();
  ASSERT_TRUE(a->Write("blitzq1 default 1 100\nshort").ok());
  a->CloseWrite();
  RequestFrameReader reader(b.get(), WireLimits{});
  Result<std::optional<RequestFrame>> read = reader.Read();
  EXPECT_FALSE(read.ok());
}

TEST(WireTest, StatusCodeNamesRoundTripTheWire) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kUnavailable}) {
    ResponseFrame frame;
    frame.id = 1;
    frame.code = code;
    auto [a, b] = CreateDuplexPipe();
    ASSERT_TRUE(a->Write(EncodeResponseFrame(frame)).ok());
    ResponseFrameReader reader(b.get(), WireLimits{});
    Result<std::optional<ResponseFrame>> read = reader.Read();
    ASSERT_TRUE(read.ok());
    EXPECT_EQ((*read)->code, code) << StatusCodeToString(code);
  }
}

TEST(WireTest, ReplyBodyRoundTrip) {
  ServeReply reply;
  reply.plan = "((A x B) x C)";
  reply.cost = 12345.6789;
  reply.tier = "exhaustive";
  reply.passes = 3;
  reply.degradations = 1;
  Result<ServeReply> parsed = ParseReplyBody(EncodeReplyBody(reply));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->plan, reply.plan);
  EXPECT_EQ(parsed->cost, reply.cost);  // %.17g round-trips doubles exactly.
  EXPECT_EQ(parsed->tier, reply.tier);
  EXPECT_EQ(parsed->passes, reply.passes);
  EXPECT_EQ(parsed->degradations, reply.degradations);
}

TEST(WireTest, ReplyBodyIgnoresUnknownKeysButRequiresCore) {
  Result<ServeReply> ok =
      ParseReplyBody("plan (A x B)\ncost 5\ntier greedy\nfuture_field 1\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->plan, "(A x B)");

  EXPECT_FALSE(ParseReplyBody("cost 5\ntier greedy\n").ok());
  EXPECT_FALSE(ParseReplyBody("plan p\ncost nan-ish\ntier greedy\n").ok());
}

TEST(WireTest, ReplyBodyCachedFlagRoundTrips) {
  ServeReply reply;
  reply.plan = "(A x B)";
  reply.cost = 9.5;
  reply.tier = "exhaustive";
  reply.cached = true;
  const std::string body = EncodeReplyBody(reply);
  Result<ServeReply> parsed = ParseReplyBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->cached);

  // Fresh answers omit the line entirely (not "cached 0"), so pre-cache
  // readers never see an unfamiliar key on the common path.
  reply.cached = false;
  const std::string fresh = EncodeReplyBody(reply);
  EXPECT_EQ(fresh.find("cached"), std::string::npos) << fresh;
  Result<ServeReply> fresh_parsed = ParseReplyBody(fresh);
  ASSERT_TRUE(fresh_parsed.ok());
  EXPECT_FALSE(fresh_parsed->cached);
}

TEST(AssemblerTest, ByteAtATimeFeedReassemblesPipelinedFrames) {
  RequestFrame first = MakeRequest(1, "relation A 10\n");
  first.deadline_ms = 125;
  const RequestFrame second = MakeRequest(2, "");
  const std::string wire =
      EncodeRequestFrame(first) + EncodeRequestFrame(second);

  RequestFrameAssembler assembler{WireLimits{}};
  std::vector<RequestFrame> frames;
  for (char byte : wire) {
    ASSERT_TRUE(assembler.Feed(std::string_view(&byte, 1), &frames).ok());
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].id, 1u);
  EXPECT_EQ(frames[0].deadline_ms, 125);
  EXPECT_EQ(frames[0].body, "relation A 10\n");
  EXPECT_EQ(frames[1].id, 2u);
  EXPECT_TRUE(frames[1].body.empty());
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(AssemblerTest, SingleFeedYieldsEveryCompleteFrame) {
  std::string wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    wire += EncodeRequestFrame(MakeRequest(id, "relation A 10\n"));
  }
  // Plus a trailing partial header, which must stay buffered.
  wire += "blitzq1 tenant-a";

  RequestFrameAssembler assembler{WireLimits{}};
  std::vector<RequestFrame> frames;
  ASSERT_TRUE(assembler.Feed(wire, &frames).ok());
  EXPECT_EQ(frames.size(), 5u);
  EXPECT_TRUE(assembler.mid_frame());
}

TEST(AssemblerTest, OversizedHeaderPoisonsTheAssembler) {
  WireLimits limits;
  limits.max_header_bytes = 32;
  RequestFrameAssembler assembler{limits};
  std::vector<RequestFrame> frames;
  const std::string runaway(64, 'x');  // No '\n' within the limit.
  const Status status = assembler.Feed(runaway, &frames);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(frames.empty());

  // Error stickiness: a valid frame after the poison still fails with the
  // original error — the stream is no longer frame-aligned.
  const Status again =
      assembler.Feed(EncodeRequestFrame(MakeRequest(1, "")), &frames);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), status.code());
  EXPECT_TRUE(frames.empty());
}

TEST(AssemblerTest, OversizedDeclaredBodyRejectedBeforeBuffering) {
  WireLimits limits;
  limits.max_body_bytes = 16;
  RequestFrameAssembler assembler{limits};
  std::vector<RequestFrame> frames;
  // Header declares a body beyond the limit: rejected on the header alone,
  // before a single body byte arrives.
  const Status status =
      assembler.Feed("blitzq1 tenant-a 1 1000\n", &frames);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);

  std::vector<RequestFrame> more;
  EXPECT_FALSE(assembler.Feed("x", &more).ok());
}

TEST(AssemblerTest, MidFrameStateTracksHeaderAndBodyPhases) {
  RequestFrameAssembler assembler{WireLimits{}};
  std::vector<RequestFrame> frames;
  EXPECT_FALSE(assembler.mid_frame());

  ASSERT_TRUE(assembler.Feed("blitzq1 tenant-a 7 4\n", &frames).ok());
  EXPECT_TRUE(assembler.mid_frame());  // Header done, body pending.
  ASSERT_TRUE(assembler.Feed("ab", &frames).ok());
  EXPECT_TRUE(assembler.mid_frame());
  ASSERT_TRUE(assembler.Feed("cd", &frames).ok());
  EXPECT_FALSE(assembler.mid_frame());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].body, "abcd");
}

TEST(AssemblerTest, ResponseAssemblerMatchesTheBlockingReader) {
  ResponseFrame frame;
  frame.id = 9;
  frame.code = StatusCode::kResourceExhausted;
  frame.retry_after_ms = 31.25;
  frame.body = "try later";
  const std::string wire = EncodeResponseFrame(frame);

  ResponseFrameAssembler assembler{WireLimits{}};
  std::vector<ResponseFrame> frames;
  for (std::size_t i = 0; i < wire.size(); i += 3) {
    ASSERT_TRUE(assembler.Feed(wire.substr(i, 3), &frames).ok());
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].id, 9u);
  EXPECT_EQ(frames[0].code, StatusCode::kResourceExhausted);
  EXPECT_EQ(frames[0].retry_after_ms, 31.25);
  EXPECT_EQ(frames[0].body, "try later");
}

TEST(StreamTest, FrameReadAcrossChunkedWrites) {
  auto [a, b] = CreateDuplexPipe(/*buffer_capacity=*/8);
  const std::string body(64, 'q');
  const std::string wire = EncodeRequestFrame(MakeRequest(3, body));
  std::thread writer([&a, &wire] {
    // The whole frame through an 8-byte buffer forces chunked, blocking
    // writes, and a reader that reassembles it from many short reads.
    EXPECT_TRUE(a->Write(wire).ok());
    a->CloseWrite();
  });
  RequestFrameReader reader(b.get(), WireLimits{});
  Result<std::optional<RequestFrame>> read = reader.Read();
  Result<std::optional<RequestFrame>> eof = reader.Read();
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ((*read)->id, 3u);
  EXPECT_EQ((*read)->body, body);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
}

TEST(StreamTest, WriteAfterPeerCloseIsUnavailable) {
  auto [a, b] = CreateDuplexPipe();
  b->Close();
  Status written = a->Write("x");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
}

TEST(StreamTest, FdStreamCarriesFramesOverAPipePair) {
  int to_server[2];
  int to_client[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(to_client), 0);
  FdStream client(to_client[0], to_server[1], /*own_fds=*/true);
  FdStream server(to_server[0], to_client[1], /*own_fds=*/true);

  ASSERT_TRUE(client.Write(EncodeRequestFrame(MakeRequest(9, "abc"))).ok());
  RequestFrameReader reader(&server, WireLimits{});
  Result<std::optional<RequestFrame>> read = reader.Read();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ((*read)->id, 9u);
  EXPECT_EQ((*read)->body, "abc");

  client.CloseWrite();
  char buf[8];
  Result<std::size_t> eof = server.Read(buf, sizeof(buf));
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
}

TEST(StreamTest, FdStreamWriteTimesOutOnAStalledPipePeer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdStream writer(/*read_fd=*/-1, fds[1], /*own_fds=*/false, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/50);
  // Nobody reads fds[0]: a write larger than the pipe's buffer must fail
  // with kUnavailable after the timeout instead of blocking forever.
  Status written = writer.Write(std::string(4 << 20, 'x'));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(StreamTest, FdStreamWriteTimesOutOnAStalledSocketPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream writer(fds[0], fds[0], /*own_fds=*/true, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/50);
  // The peer never reads: the send buffer fills and the bounded poll for
  // POLLOUT expires — the stalled-client case that must not park a server
  // worker (and the SIGTERM drain behind it) indefinitely.
  Status written = writer.Write(std::string(4 << 20, 'x'));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  ::close(fds[1]);
}

TEST(StreamTest, FdStreamBoundedWriteSucceedsWithAReadingPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream writer(fds[0], fds[0], /*own_fds=*/true, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/5000);
  const std::string payload(4 << 20, 'y');
  std::thread reader([&] {
    std::size_t total = 0;
    char buf[65536];
    while (total < payload.size()) {
      const ssize_t n = ::read(fds[1], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      total += static_cast<std::size_t>(n);
    }
  });
  // A healthy (if slow) peer never trips the timeout, however large the
  // payload relative to the socket buffer.
  EXPECT_TRUE(writer.Write(payload).ok());
  reader.join();
  ::close(fds[1]);
}

}  // namespace
}  // namespace blitz
