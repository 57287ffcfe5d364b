// Chaos suite for the serving tier: every serve.* fault point is armed
// while concurrent fuzzer-generated traffic flows, and the invariants are
// checked each time — every request gets a well-formed status-coded
// response, the process never dies, and the server keeps serving after the
// fault clears. Run under ASan/UBSan in CI (the serve-soak job) this also
// pins "no leaks on any error path".

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "governor/faultpoints.h"
#include "serve/client.h"
#include "serve/mux.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "serve/wire.h"
#include "testing/fuzzer.h"
#include "textio/bjq.h"

namespace blitz {
namespace {

constexpr char kSmallBjq[] =
    "relation A 100\nrelation B 200\npredicate A B 0.1\n";

std::string FuzzBody(std::uint64_t seed, std::uint64_t index) {
  fuzz::FuzzerOptions options;
  options.seed = seed;
  options.min_relations = 2;
  options.max_relations = 10;
  Result<fuzz::FuzzCase> fuzz_case = fuzz::GenerateCase(options, index);
  EXPECT_TRUE(fuzz_case.ok());
  return WriteBjq(fuzz::ToQuerySpec(*fuzz_case, CostModelKind::kNaive));
}

struct LoadReport {
  int responses = 0;
  int ok = 0;
  int errors = 0;
  bool all_well_formed = true;
};

/// Runs `clients` pipelining connections against `server`, each sending
/// `per_client` mixed-n fuzzer queries, and validates every response frame.
LoadReport RunLoad(BlitzServer* server, int clients, int per_client,
                   std::uint64_t seed) {
  std::vector<LoadReport> reports(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([server, per_client, seed, c,
                          report = &reports[static_cast<std::size_t>(c)]] {
      auto [client_end, server_end] = CreateDuplexPipe();
      std::thread serve_thread([server, stream = server_end.get()] {
        (void)ServeStream(server, stream);
        // If the connection ended early (accept fault, protocol error) the
        // buffered responses stay readable but the client must see EOF.
        stream->Close();
      });
      BlitzClient::Options options;
      options.tenant = "chaos-" + std::to_string(c);
      BlitzClient client(client_end.get(), std::move(options));
      int sent = 0;
      for (int i = 0; i < per_client; ++i) {
        if (client
                .Send(FuzzBody(seed + static_cast<std::uint64_t>(c),
                               static_cast<std::uint64_t>(i)))
                .ok()) {
          ++sent;
        }
      }
      for (int i = 0; i < sent; ++i) {
        Result<std::optional<ResponseFrame>> response = client.Receive();
        if (!response.ok() || !response->has_value()) {
          // A serve.accept fault ends the connection after one id-0
          // response; the remaining sends are answered by EOF. That is
          // well-formed shedding, not a protocol violation.
          break;
        }
        ++report->responses;
        if ((*response)->code == StatusCode::kOk) {
          if (!ParseReplyBody((*response)->body).ok()) {
            report->all_well_formed = false;
          }
          ++report->ok;
        } else {
          // Error responses must carry a code the wire format can name
          // (guaranteed by parsing) and a non-empty message.
          if ((*response)->body.empty()) report->all_well_formed = false;
          ++report->errors;
        }
      }
      client_end->CloseWrite();
      serve_thread.join();
      client_end->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  LoadReport total;
  for (const LoadReport& r : reports) {
    total.responses += r.responses;
    total.ok += r.ok;
    total.errors += r.errors;
    total.all_well_formed = total.all_well_formed && r.all_well_formed;
  }
  return total;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultInjectionCompiled) {
      GTEST_SKIP() << "fault injection compiled out";
    }
  }

  /// Arms `point` to fire `times` times while load runs, then verifies the
  /// server still answers cleanly after the fault clears.
  void RunChaosRound(std::string_view point, FaultSpec spec) {
    FaultRegistry registry;
    ScopedFaultRegistry scoped(&registry);

    ServerOptions options;
    options.num_workers = 4;
    Result<std::unique_ptr<BlitzServer>> server =
        BlitzServer::Create(options);
    ASSERT_TRUE(server.ok());

    registry.Arm(point, spec);
    const LoadReport report =
        RunLoad(server->get(), /*clients=*/4, /*per_client=*/8,
                /*seed=*/20260808);
    EXPECT_TRUE(report.all_well_formed) << point;
    EXPECT_GT(report.responses, 0) << point;
    EXPECT_GT(registry.hits(point), 0u) << point << " never reached";

    // The fault was bounded; once spent, the server must serve normally.
    registry.Disarm(point);
    auto [client_end, server_end] = CreateDuplexPipe();
    std::thread serve_thread(
        [&server, stream = server_end.get()] {
          (void)ServeStream(server->get(), stream);
        });
    BlitzClient client(client_end.get(), BlitzClient::Options{});
    Result<ServeReply> after = client.Optimize(kSmallBjq);
    EXPECT_TRUE(after.ok()) << point << ": " << after.status().ToString();
    client_end->CloseWrite();
    serve_thread.join();

    (*server)->Shutdown();
    // No request may be left unanswered or double-answered.
    EXPECT_EQ((*server)->in_flight(), 0) << point;
  }
};

TEST_F(ServeChaosTest, AcceptFault) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::Unavailable("injected accept failure");
  spec.times = 2;
  RunChaosRound(kFaultServeAccept, spec);
}

TEST_F(ServeChaosTest, ParseFault) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::Internal("injected parse failure");
  spec.times = 5;
  RunChaosRound(kFaultServeParse, spec);
}

TEST_F(ServeChaosTest, ParseAllocFault) {
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  spec.times = 5;
  RunChaosRound(kFaultServeParse, spec);
}

TEST_F(ServeChaosTest, EnqueueFault) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::ResourceExhausted("injected enqueue failure");
  spec.times = 5;
  RunChaosRound(kFaultServeEnqueue, spec);
}

TEST_F(ServeChaosTest, ArenaAllocFault) {
  // kBadAlloc on the arena is a budget-class failure inside a degradable
  // call: requests still answer (via the ladder), nothing crashes.
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  spec.times = 8;
  RunChaosRound(kFaultServeArenaAlloc, spec);
}

TEST_F(ServeChaosTest, CacheInsertFault) {
  // A failed insert degrades to a bypass: the request's own result is
  // unaffected, only reuse for later twins is lost.
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::ResourceExhausted("injected cache-insert failure");
  spec.times = 5;
  RunChaosRound(kFaultServeCacheInsert, spec);
}

TEST_F(ServeChaosTest, DrainFaultForcesImmediateCancellation) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);

  ServerOptions options;
  options.num_workers = 2;
  options.drain_grace_ms = 60000;  // Without the fault, drain would idle.
  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());

  auto [client_end, server_end] = CreateDuplexPipe();
  std::thread serve_thread([&server, stream = server_end.get()] {
    (void)ServeStream(server->get(), stream);
  });
  BlitzClient client(client_end.get(), BlitzClient::Options{});

  fuzz::FuzzerOptions fuzz_options;
  fuzz_options.seed = 99;
  fuzz_options.min_relations = 16;
  fuzz_options.max_relations = 16;
  Result<fuzz::FuzzCase> slow_case = fuzz::GenerateCase(fuzz_options, 0);
  ASSERT_TRUE(slow_case.ok());
  ASSERT_TRUE(
      client
          .Send(WriteBjq(fuzz::ToQuerySpec(*slow_case, CostModelKind::kNaive)))
          .ok());
  while ((*server)->in_flight() == 0) {
    std::this_thread::yield();
  }

  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  registry.Arm(kFaultServeDrain, spec);
  // The armed fault voids the 60s grace: Shutdown must cancel and return
  // promptly instead of waiting out the long optimization.
  (*server)->BeginDrain();
  (*server)->Shutdown();
  EXPECT_GT(registry.hits(kFaultServeDrain), 0u);

  Result<std::optional<ResponseFrame>> response = client.Receive();
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->has_value());
  EXPECT_TRUE((*response)->code == StatusCode::kOk ||
              (*response)->code == StatusCode::kCancelled)
      << StatusCodeToString((*response)->code);

  client_end->CloseWrite();
  serve_thread.join();
}

// All five points armed at once under load: the everything-is-on-fire run.
TEST_F(ServeChaosTest, AllPointsArmedTogether) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);

  ServerOptions options;
  options.num_workers = 4;
  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());

  FaultSpec fail;
  fail.kind = FaultKind::kFailStatus;
  fail.status = Status::Internal("chaos");
  fail.times = 3;
  FaultSpec alloc;
  alloc.kind = FaultKind::kBadAlloc;
  alloc.times = 3;
  registry.Arm(kFaultServeAccept, fail);
  registry.Arm(kFaultServeParse, alloc);
  registry.Arm(kFaultServeEnqueue, fail);
  registry.Arm(kFaultServeArenaAlloc, alloc);
  registry.Arm(kFaultServeCacheInsert, fail);

  const LoadReport report = RunLoad(server->get(), /*clients=*/6,
                                    /*per_client=*/8, /*seed=*/777);
  EXPECT_TRUE(report.all_well_formed);
  EXPECT_GT(report.responses, 0);
  EXPECT_GT(report.ok, 0);  // Most traffic still lands plans.

  (*server)->Shutdown();
  EXPECT_EQ((*server)->in_flight(), 0);
}

}  // namespace
}  // namespace blitz
