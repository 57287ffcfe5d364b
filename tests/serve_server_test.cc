// End-to-end tests for BlitzServer (serve/server.h) over in-memory duplex
// streams: request/response flow, request isolation, admission sheds,
// per-tenant fairness, deadline degradation, graceful drain, and plan-cache
// accounting (answers and counters agree with the cache on and off).

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/mux.h"
#include "serve/stream.h"
#include "serve/wire.h"
#include "testing/fuzzer.h"
#include "textio/bjq.h"

namespace blitz {
namespace {

constexpr char kSmallBjq[] =
    "relation A 100\nrelation B 200\npredicate A B 0.1\n";

/// A connected client: the server serves its end on a dedicated thread.
class TestConnection {
 public:
  explicit TestConnection(BlitzServer* server) {
    auto [client_end, server_end] = CreateDuplexPipe();
    client_end_ = std::move(client_end);
    server_end_ = std::move(server_end);
    thread_ = std::thread([server, stream = server_end_.get()] {
      (void)ServeStream(server, stream);
    });
  }

  ~TestConnection() { Finish(); }

  /// Half-closes the request direction and joins the serve thread.
  void Finish() {
    if (thread_.joinable()) {
      client_end_->CloseWrite();
      thread_.join();
    }
  }

  ByteStream* stream() { return client_end_.get(); }

 private:
  std::unique_ptr<ByteStream> client_end_;
  std::unique_ptr<ByteStream> server_end_;
  std::thread thread_;
};

/// The value of a `<key> <value>` line in a statz body ("" if absent).
std::string StatzValue(const std::string& statz, const std::string& key) {
  const std::string needle = "\n" + key + " ";
  const std::size_t at = statz.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  return statz.substr(begin, statz.find('\n', begin) - begin);
}

std::uint64_t Counter(const MetricsSnapshot& snapshot, std::string_view name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

std::string FuzzBody(std::uint64_t seed, int n) {
  fuzz::FuzzerOptions options;
  options.seed = seed;
  options.min_relations = n;
  options.max_relations = n;
  Result<fuzz::FuzzCase> fuzz_case = fuzz::GenerateCase(options, 0);
  EXPECT_TRUE(fuzz_case.ok());
  return WriteBjq(fuzz::ToQuerySpec(*fuzz_case, CostModelKind::kNaive));
}

TEST(ServerTest, AnswersASimpleRequest) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");
  EXPECT_EQ(reply->tier, "exhaustive");
  EXPECT_GT(reply->cost, 0);

  conn.Finish();
  EXPECT_EQ((*server)->requests_answered(), 1u);
}

TEST(ServerTest, MalformedBodyIsIsolatedToItsRequest) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // A body ParseBjq rejects, with a line-numbered message.
  Result<ServeReply> bad = client.Optimize("relation A 100\nbogus line\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().message();

  // The same connection keeps working: the failure was request-scoped.
  Result<ServeReply> good = client.Optimize(kSmallBjq);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(ServerTest, FrameErrorEndsTheConnectionWithAnIdZeroResponse) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());

  ASSERT_TRUE(conn.stream()->Write("this is not a frame header\n").ok());
  ResponseFrameReader reader(conn.stream(), WireLimits{});
  Result<std::optional<ResponseFrame>> response = reader.Read();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_value());
  EXPECT_EQ((*response)->id, 0u);
  EXPECT_EQ((*response)->code, StatusCode::kInvalidArgument);

  // A second connection is unaffected — the process survived.
  conn.Finish();
  TestConnection conn2(server->get());
  BlitzClient client(conn2.stream(), BlitzClient::Options{});
  EXPECT_TRUE(client.Optimize(kSmallBjq).ok());
}

TEST(ServerTest, OversizedBodyIsShedByAdmission) {
  ServerOptions options;
  options.admission.default_quota.max_body_bytes = 64;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());

  BlitzClient::Options client_options;
  client_options.retry.max_attempts = 1;
  BlitzClient client(conn.stream(), std::move(client_options));
  const std::string big(1000, '#');  // 1000 bytes of comment: valid, big.
  Result<ServeReply> reply = client.Optimize(big + "\n" + kSmallBjq);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
}

TEST(ServerTest, ExpiredDeadlineStillAnswersViaDegradation) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // ~0 deadline: expired by the time a worker picks it up. The degradation
  // ladder must still hand back a greedy plan rather than an error.
  Result<ServeReply> reply =
      client.Optimize(FuzzBody(/*seed=*/7, /*n=*/12), /*deadline_ms=*/0.01);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tier, "greedy");
  EXPECT_GE(reply->degradations, 1);
}

TEST(ServerTest, TenantDeadlineCapApplies) {
  ServerOptions options;
  options.admission.default_quota.max_deadline_ms = 0.01;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // The request asks for a generous deadline; the tenant cap clamps it to
  // ~nothing, so the answer comes from the degraded tiers.
  Result<ServeReply> reply =
      client.Optimize(FuzzBody(/*seed=*/9, /*n=*/12), /*deadline_ms=*/60000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tier, "greedy");
}

TEST(ServerTest, QueuePressureShedsWithRetryHint) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // Pipeline more work than one worker plus a one-slot queue can hold;
  // n=14 keeps the worker busy long enough for later sends to pile up.
  const std::string slow = FuzzBody(/*seed=*/3, /*n=*/14);
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send(slow).ok());
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    Result<std::optional<ResponseFrame>> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->has_value());
    if ((*response)->code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ((*response)->code, StatusCode::kUnavailable);
      EXPECT_GT((*response)->retry_after_ms, 0);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, kRequests);
}

TEST(ServerTest, NoisyTenantCannotStarveAQuietOne) {
  ServerOptions options;
  options.num_workers = 2;
  options.admission.tenants["noisy"].max_in_flight = 1;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());

  TestConnection noisy_conn(server->get());
  BlitzClient::Options noisy_options;
  noisy_options.tenant = "noisy";
  BlitzClient noisy(noisy_conn.stream(), std::move(noisy_options));

  // Flood: far more than the noisy tenant's single in-flight slot.
  const std::string slow = FuzzBody(/*seed=*/5, /*n=*/14);
  constexpr int kFlood = 8;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(noisy.Send(slow).ok());
  }

  // The quiet tenant gets served while the flood is in progress.
  TestConnection quiet_conn(server->get());
  BlitzClient::Options quiet_options;
  quiet_options.tenant = "quiet";
  BlitzClient quiet(quiet_conn.stream(), std::move(quiet_options));
  Result<ServeReply> reply = quiet.Optimize(kSmallBjq);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();

  int noisy_shed = 0;
  for (int i = 0; i < kFlood; ++i) {
    Result<std::optional<ResponseFrame>> response = noisy.Receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->has_value());
    if ((*response)->code != StatusCode::kOk) {
      EXPECT_EQ((*response)->code, StatusCode::kResourceExhausted);
      ++noisy_shed;
    }
  }
  EXPECT_GE(noisy_shed, 1);
}

TEST(ServerTest, QuietTenantLatencyStaysBoundedUnderNoisyFlood) {
  // The acceptance bar for per-tenant admission: with a noisy tenant
  // capped at one in-flight slot, a quiet tenant's latency under the
  // flood stays within 2x its unloaded p99 (plus a small absolute
  // allowance for scheduler noise — unloaded requests are sub-millisecond,
  // while actual starvation behind the flood's queue would cost tens).
  ServerOptions options;
  options.num_workers = 2;
  options.admission.tenants["noisy"].max_in_flight = 1;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());

  TestConnection quiet_conn(server->get());
  BlitzClient::Options quiet_options;
  quiet_options.tenant = "quiet";
  BlitzClient quiet(quiet_conn.stream(), std::move(quiet_options));

  const auto measure = [&quiet]() -> double {
    const auto start = std::chrono::steady_clock::now();
    Result<ServeReply> reply = quiet.Optimize(kSmallBjq);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  constexpr int kSamples = 20;

  double unloaded_p99 = 0;  // max of 20 samples ~ p99 for this purpose
  for (int i = 0; i < kSamples; ++i) {
    unloaded_p99 = std::max(unloaded_p99, measure());
  }

  // Sustained flood: the noisy tenant keeps an 8-deep pipelined window of
  // slow queries; with its single admitted slot, at most one worker is
  // ever busy on its behalf and the rest of the window is shed.
  std::atomic<bool> stop{false};
  std::thread flood([&server, &stop] {
    TestConnection conn(server->get());
    BlitzClient::Options noisy_options;
    noisy_options.tenant = "noisy";
    BlitzClient noisy(conn.stream(), std::move(noisy_options));
    const std::string slow = FuzzBody(/*seed=*/5, /*n=*/14);
    int outstanding = 0;
    while (!stop.load()) {
      if (outstanding < 8) {
        if (!noisy.Send(slow).ok()) break;
        ++outstanding;
      } else {
        Result<std::optional<ResponseFrame>> r = noisy.Receive();
        if (!r.ok() || !r->has_value()) break;
        --outstanding;
      }
    }
  });
  while ((*server)->in_flight() == 0) {
    std::this_thread::yield();
  }

  double loaded_p99 = 0;
  for (int i = 0; i < kSamples; ++i) {
    loaded_p99 = std::max(loaded_p99, measure());
  }
  stop.store(true);
  flood.join();

  EXPECT_LE(loaded_p99, 2 * unloaded_p99 + 0.025)
      << "unloaded p99 " << unloaded_p99 * 1e3 << " ms, loaded p99 "
      << loaded_p99 * 1e3 << " ms";
}

TEST(ServerTest, ArenaReusesTablesAcrossRequests) {
  ServerOptions options;
  options.num_workers = 1;  // Serialized: every request after the first
                            // finds the previous request's table pooled.
  options.cache.max_entries = 0;  // Plan-cache hits would skip the
                                  // optimizer (and the arena) entirely.
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  const std::string body = FuzzBody(/*seed=*/21, /*n=*/9);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Optimize(body).ok());
  }
  const DpTableArena::Stats stats = (*server)->arena_stats();
  EXPECT_GE(stats.hits, 3u);
}

TEST(ServerTest, DrainShedsNewWorkAndAnswersInFlight) {
  ServerOptions options;
  options.num_workers = 1;
  options.drain_grace_ms = 5;  // Force the cancellation path.
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // A long optimization (n=16 exhaustive) the tiny grace cannot cover.
  ASSERT_TRUE(client.Send(FuzzBody(/*seed=*/13, /*n=*/16)).ok());

  // Wait for admission before draining, so the request races the drain as
  // in-flight work rather than being shed at the door.
  while ((*server)->in_flight() == 0) {
    std::this_thread::yield();
  }

  (*server)->BeginDrain();
  EXPECT_TRUE((*server)->draining());

  // New work is shed once draining.
  ASSERT_TRUE(client.Send(kSmallBjq).ok());

  // Shutdown blocks until both requests are answered (the long one by
  // cancellation unless it finished inside the grace window).
  (*server)->Shutdown();
  EXPECT_EQ((*server)->requests_answered(), 2u);

  std::map<std::uint64_t, ResponseFrame> responses;
  for (int i = 0; i < 2; ++i) {
    Result<std::optional<ResponseFrame>> response = client.Receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->has_value());
    responses[(*response)->id] = std::move(**response);
  }
  ASSERT_EQ(responses.count(1), 1u);
  ASSERT_EQ(responses.count(2), 1u);
  // Request 1: answered or cleanly cancelled — never dropped.
  EXPECT_TRUE(responses[1].code == StatusCode::kOk ||
              responses[1].code == StatusCode::kCancelled)
      << StatusCodeToString(responses[1].code);
  EXPECT_EQ(responses[2].code, StatusCode::kUnavailable);

  conn.Finish();
}

TEST(ServerTest, ShutdownIsIdempotent) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  (*server)->Shutdown();
  (*server)->Shutdown();
  EXPECT_TRUE((*server)->draining());
}

TEST(ServerTest, ManyConcurrentConnections) {
  ServerOptions options;
  options.num_workers = 4;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestConnection conn(server->get());
      BlitzClient client(conn.stream(), BlitzClient::Options{});
      for (int i = 0; i < kPerClient; ++i) {
        const std::string body =
            FuzzBody(/*seed=*/static_cast<std::uint64_t>(c * 100 + i),
                     /*n=*/4 + (i % 6));
        Result<ServeReply> reply = client.Optimize(body);
        if (reply.ok()) ++ok_counts[static_cast<std::size_t>(c)];
      }
      conn.Finish();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[static_cast<std::size_t>(c)], kPerClient)
        << "client " << c;
  }
}

TEST(ServerTest, OptionValidationRejectsNonsense) {
  ServerOptions bad;
  bad.num_workers = 0;
  EXPECT_FALSE(BlitzServer::Create(bad).ok());
  bad = ServerOptions{};
  bad.max_queue = 0;
  EXPECT_FALSE(BlitzServer::Create(bad).ok());
  bad = ServerOptions{};
  bad.drain_grace_ms = -1;
  EXPECT_FALSE(BlitzServer::Create(bad).ok());
  bad = ServerOptions{};
  bad.cache.shards = 0;
  EXPECT_FALSE(BlitzServer::Create(bad).ok());
}

TEST(ServerTest, RepeatRequestsAreAnsweredFromThePlanCache) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  Result<ServeReply> cold = client.Optimize(kSmallBjq);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cached);

  Result<ServeReply> warm = client.Optimize(kSmallBjq);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->cached);
  // Bit-identical reuse: same plan text, same cost, same tier, same
  // §3.3 counter provenance (passes).
  EXPECT_EQ(warm->plan, cold->plan);
  EXPECT_EQ(warm->cost, cold->cost);
  EXPECT_EQ(warm->tier, cold->tier);
  EXPECT_EQ(warm->passes, cold->passes);

  const PlanCache::Stats stats = (*server)->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServerTest, NoCacheOptionDisablesReuse) {
  ServerOptions options;
  options.cache.max_entries = 0;
  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());
  Result<ServeReply> again = client.Optimize(kSmallBjq);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cached);
  EXPECT_EQ((*server)->cache_stats().entries, 0u);
}

TEST(ServerTest, StatzCountsOneMissPerComputedRequest) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  // N distinct queries one after another, then one repeat: the probe
  // misses each distinct query once and the repeat hits inline.
  constexpr int kDistinct = 3;
  for (int i = 0; i < kDistinct; ++i) {
    Result<ServeReply> reply =
        client.Optimize(FuzzBody(/*seed=*/40 + i, /*n=*/5 + i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply->cached);
  }
  Result<ServeReply> repeat = client.Optimize(FuzzBody(/*seed=*/40, /*n=*/5));
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat->cached);

  Result<std::string> statz = client.Statz();
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_EQ(StatzValue(*statz, "cache_misses"), std::to_string(kDistinct))
      << *statz;
  EXPECT_EQ(StatzValue(*statz, "cache_hits"), "1") << *statz;
}

/// What one run of the cache on/off script saw: every response by frame id,
/// plus the server's response counters.
struct ScriptRun {
  std::map<std::uint64_t, ResponseFrame> responses;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
};

/// Pushes a fixed script through ServeStream on one connection: a valid
/// query, a malformed body, an `estimator hist` query, a repeat of the
/// valid query, and /statz. The repeat is sent only after the first three
/// are answered, so with the cache on it is a deterministic inline hit.
ScriptRun RunCacheScript(const ServerOptions& options) {
  ScriptRun run;
  MetricsRegistry metrics;
  SetGlobalMetrics(&metrics);
  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) {
    SetGlobalMetrics(nullptr);
    return run;
  }
  {
    TestConnection conn(server->get());
    ResponseFrameReader reader(conn.stream(), WireLimits{});
    const auto send = [&](std::uint64_t id, std::string body) {
      RequestFrame frame;
      frame.id = id;
      frame.body = std::move(body);
      EXPECT_TRUE(conn.stream()->Write(EncodeRequestFrame(frame)).ok());
    };
    const auto receive = [&](int count) {
      for (int i = 0; i < count; ++i) {
        Result<std::optional<ResponseFrame>> response = reader.Read();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_TRUE(response->has_value());
        run.responses[(*response)->id] = std::move(**response);
      }
    };
    send(1, kSmallBjq);
    send(2, "relation A 100\nbogus line\n");
    send(3, std::string("estimator hist\n") + kSmallBjq);
    receive(3);
    send(4, kSmallBjq);
    send(5, std::string(kStatzBody));
    receive(2);
  }
  (*server)->Shutdown();
  SetGlobalMetrics(nullptr);
  const MetricsSnapshot snapshot = metrics.TakeSnapshot();
  run.responses_ok = Counter(snapshot, "serve.responses.ok");
  run.responses_error = Counter(snapshot, "serve.responses.error");
  return run;
}

/// An OK reply body without its `cached` provenance line.
std::string WithoutCachedLine(std::string body) {
  const std::size_t at = body.find("cached 1\n");
  if (at != std::string::npos) body.erase(at, 9);
  return body;
}

TEST(ServerTest, CacheOnAndOffGiveTheSameAnswers) {
  ServerOptions off;
  off.cache.max_entries = 0;
  const ScriptRun cached = RunCacheScript(ServerOptions{});
  const ScriptRun uncached = RunCacheScript(off);
  ASSERT_EQ(cached.responses.size(), 5u);
  ASSERT_EQ(uncached.responses.size(), 5u);

  for (std::uint64_t id = 1; id <= 5; ++id) {
    const ResponseFrame& on = cached.responses.at(id);
    const ResponseFrame& no = uncached.responses.at(id);
    EXPECT_EQ(on.code, no.code) << "id " << id;
    if (on.code != StatusCode::kOk) {
      EXPECT_EQ(on.body, no.body) << "id " << id;  // The error message.
    }
  }
  EXPECT_EQ(cached.responses.at(1).code, StatusCode::kOk);
  EXPECT_EQ(cached.responses.at(2).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(cached.responses.at(3).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(cached.responses.at(5).code, StatusCode::kOk);
  // The OK bodies agree apart from the repeat's provenance line.
  for (std::uint64_t id : {1u, 4u}) {
    EXPECT_EQ(WithoutCachedLine(cached.responses.at(id).body),
              uncached.responses.at(id).body)
        << "id " << id;
  }
  EXPECT_NE(cached.responses.at(4).body.find("\ncached 1\n"),
            std::string::npos);
  EXPECT_NE(cached.responses.at(5).body.find("\ncache_enabled 1\n"),
            std::string::npos);
  EXPECT_NE(uncached.responses.at(5).body.find("\ncache_enabled 0\n"),
            std::string::npos);

  // Every answer from admission onward is counted, the inline hit too.
  for (const ScriptRun* run : {&cached, &uncached}) {
    EXPECT_EQ(run->responses_ok, 2u);
    EXPECT_EQ(run->responses_error, 2u);
  }
}

TEST(ServerTest, StatzAnswersBeforeAdmissionAndWhileDraining) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());
  // Finish releases the tenant's admission slot before it responds; the
  // wait for full quiescence keeps the tenant accounting below
  // deterministic even if that order ever changes.
  while ((*server)->in_flight() != 0) std::this_thread::yield();

  Result<std::string> statz = client.Statz();
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_EQ(statz->rfind(kStatzMagic, 0), 0u) << *statz;
  EXPECT_NE(statz->find("\nrequests_answered 1\n"), std::string::npos)
      << *statz;
  EXPECT_NE(statz->find("\ncache_enabled 1\n"), std::string::npos) << *statz;
  EXPECT_NE(statz->find("\ndraining 0\n"), std::string::npos) << *statz;
  // Admission erases a tenant's slot entry when its last request releases,
  // so a quiesced server reports zero tracked tenants.
  EXPECT_NE(statz->find("\ntenants_tracked 0\n"), std::string::npos) << *statz;

  // A draining server sheds optimize requests but still answers statz.
  (*server)->BeginDrain();
  Result<std::string> draining = client.Statz();
  ASSERT_TRUE(draining.ok()) << draining.status().ToString();
  EXPECT_NE(draining->find("\ndraining 1\n"), std::string::npos) << *draining;
}

}  // namespace
}  // namespace blitz
