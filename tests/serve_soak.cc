// serve_soak: closed-loop soak harness for the blitzd serving tier.
//
// Usage:
//   serve_soak [--seconds=S] [--seed=N] [--clients=C] [--workers=W]
//              [--no-chaos] [--repro-dir=DIR] [--verbose]
//
// Drives an in-process BlitzServer with C concurrent pipelining clients
// sending fuzzer-generated mixed-n queries — salted with malformed bodies,
// near-zero deadlines, and raw protocol garbage — while a chaos thread
// randomly arms and disarms the serve.* fault points. The run passes iff:
//
//   - every response frame parses (the server never emits garbage),
//   - every OK body parses as a reply (plan/cost/tier present),
//   - every error body carries a message,
//   - after drain, the server owes no responses (in_flight == 0).
//
// Deterministic from --seed: traffic, fault schedule, and injection points
// all derive from it. On a violation the offending request body (when
// known) is written under --repro-dir and the run exits 1.
//
// CI runs this under ASan/UBSan for 60s (serve-soak job); CTest runs a
// short bounded slice (label `serve`). Crashes, leaks, and hangs surface
// as nonzero exit / sanitizer reports / job timeout respectively.
//
// Exit codes: 0 pass, 1 violation, 2 usage.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "governor/faultpoints.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/mux.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "serve/wire.h"
#include "testing/fuzzer.h"
#include "textio/bjq.h"

namespace {

using blitz::BlitzClient;
using blitz::BlitzServer;
using blitz::CostModelKind;
using blitz::CreateDuplexPipe;
using blitz::FaultKind;
using blitz::FaultRegistry;
using blitz::FaultSpec;
using blitz::MetricsRegistry;
using blitz::ParseReplyBody;
using blitz::ResponseFrame;
using blitz::Result;
using blitz::Rng;
using blitz::ScopedFaultRegistry;
using blitz::ServerOptions;
using blitz::SetGlobalMetrics;
using blitz::StatusCode;
using blitz::WriteBjq;

constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;

struct SoakConfig {
  double seconds = 5;
  std::uint64_t seed = 20260808;
  int clients = 8;
  int workers = 4;
  bool chaos = true;
  std::string repro_dir;
  bool verbose = false;
};

struct SoakTotals {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> violations{0};
};

void ReportViolation(const SoakConfig& config, SoakTotals* totals,
                     const std::string& what, const std::string& body) {
  const std::uint64_t count = ++totals->violations;
  std::fprintf(stderr, "serve_soak: VIOLATION: %s\n", what.c_str());
  if (!config.repro_dir.empty() && !body.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.repro_dir, ec);
    const std::string path = config.repro_dir + "/violation-" +
                             std::to_string(count) + ".bjq";
    std::ofstream out(path);
    out << "# serve_soak --seed=" << config.seed << "\n# " << what << "\n"
        << body;
    std::fprintf(stderr, "serve_soak: repro body written to %s\n",
                 path.c_str());
  }
}

/// One client's closed loop: send a pipelined window, read it back,
/// validate every frame, reconnect when a connection-level event (accept
/// fault, protocol garbage we sent) ends the stream.
void ClientLoop(const SoakConfig& config, BlitzServer* server, int index,
                const std::atomic<bool>* stop, SoakTotals* totals) {
  Rng rng(blitz::DeriveSeed(config.seed, 1000 + static_cast<std::uint64_t>(index)));
  blitz::fuzz::FuzzerOptions fuzz_options;
  fuzz_options.seed = blitz::DeriveSeed(config.seed, static_cast<std::uint64_t>(index));
  fuzz_options.min_relations = 2;
  fuzz_options.max_relations = 15;
  std::uint64_t case_index = 0;

  std::unique_ptr<blitz::ByteStream> client_end;
  std::unique_ptr<blitz::ByteStream> server_end;
  std::unique_ptr<BlitzClient> client;
  std::thread serve_thread;
  const auto connect = [&] {
    auto pipe = CreateDuplexPipe(/*buffer_capacity=*/1 << 18);
    client_end = std::move(pipe.first);
    server_end = std::move(pipe.second);
    serve_thread = std::thread([server, stream = server_end.get()] {
      (void)ServeStream(server, stream);
      stream->Close();  // EOF to the client when the server hangs up first.
    });
    BlitzClient::Options options;
    options.tenant = "soak-" + std::to_string(index);
    client = std::make_unique<BlitzClient>(client_end.get(),
                                           std::move(options));
  };
  const auto disconnect = [&] {
    if (serve_thread.joinable()) {
      client_end->CloseWrite();
      serve_thread.join();
    }
    client.reset();
    client_end.reset();
    server_end.reset();
  };
  connect();

  while (!stop->load(std::memory_order_relaxed)) {
    // Compose a window of pipelined requests: mostly well-formed fuzz
    // queries, salted with malformed bodies and near-zero deadlines.
    const int window = 1 + static_cast<int>(rng.NextBounded(8));
    std::vector<std::string> bodies;
    bool sent_protocol_garbage = false;
    int sent = 0;
    for (int i = 0; i < window; ++i) {
      const double dice = rng.NextDouble();
      if (dice < 0.05) {
        // Raw protocol garbage: ends the connection by design.
        if (client_end->Write("\x01garbage\xff not a frame\n").ok()) {
          sent_protocol_garbage = true;
        }
        break;
      }
      std::string body;
      if (dice < 0.15) {
        body = "relation A 100\nthis line does not parse\n";
      } else {
        Result<blitz::fuzz::FuzzCase> fuzz_case =
            blitz::fuzz::GenerateCase(fuzz_options, case_index++);
        if (!fuzz_case.ok()) continue;
        body = WriteBjq(
            blitz::fuzz::ToQuerySpec(*fuzz_case, CostModelKind::kNaive));
      }
      const double deadline_ms =
          rng.NextDouble() < 0.2 ? 0.05 + rng.NextDouble() : 0;
      if (!client->Send(body, deadline_ms).ok()) break;
      bodies.push_back(std::move(body));
      ++sent;
      totals->sent.fetch_add(1, std::memory_order_relaxed);
    }

    bool reconnect_needed = sent_protocol_garbage;
    for (int i = 0; i < sent; ++i) {
      Result<std::optional<ResponseFrame>> response = client->Receive();
      if (!response.ok()) {
        // The server wrote bytes that do not parse as a frame: always a
        // violation, the one thing the serving tier must never do.
        ReportViolation(config, totals,
                        "unparseable response frame: " +
                            response.status().ToString(),
                        i < static_cast<int>(bodies.size()) ? bodies[static_cast<std::size_t>(i)] : "");
        reconnect_needed = true;
        break;
      }
      if (!response->has_value()) {
        // EOF mid-window: a connection-level event (accept fault) ended
        // the stream after shedding. Unanswered sends are not violations —
        // the server answered with its id-0 terminal response or clean
        // close.
        reconnect_needed = true;
        break;
      }
      totals->responses.fetch_add(1, std::memory_order_relaxed);
      const ResponseFrame& frame = **response;
      if (frame.code == StatusCode::kOk) {
        totals->ok.fetch_add(1, std::memory_order_relaxed);
        if (!ParseReplyBody(frame.body).ok()) {
          ReportViolation(config, totals, "OK response with invalid body",
                          i < static_cast<int>(bodies.size()) ? bodies[static_cast<std::size_t>(i)] : "");
        }
      } else {
        totals->errors.fetch_add(1, std::memory_order_relaxed);
        if (frame.body.empty()) {
          ReportViolation(config, totals,
                          std::string("empty error message for code ") +
                              blitz::StatusCodeToString(frame.code),
                          "");
        }
      }
      if (frame.id == 0) {  // Terminal connection response.
        reconnect_needed = true;
        break;
      }
    }
    if (reconnect_needed) {
      disconnect();
      totals->reconnects.fetch_add(1, std::memory_order_relaxed);
      connect();
    }
  }
  disconnect();
}

/// Randomly arms/disarms serve.* fault points on a deterministic schedule.
void ChaosLoop(const SoakConfig& config, FaultRegistry* registry,
               const std::atomic<bool>* stop) {
  Rng rng(blitz::DeriveSeed(config.seed, 0xC4A05));
  const std::string_view points[] = {
      blitz::kFaultServeAccept, blitz::kFaultServeParse,
      blitz::kFaultServeEnqueue, blitz::kFaultServeArenaAlloc,
      blitz::kFaultServeCacheInsert};
  while (!stop->load(std::memory_order_relaxed)) {
    const std::string_view point =
        points[rng.NextBounded(sizeof(points) / sizeof(points[0]))];
    FaultSpec spec;
    if (rng.NextBool(0.5)) {
      spec.kind = FaultKind::kBadAlloc;
    } else {
      spec.kind = FaultKind::kFailStatus;
      spec.status = blitz::Status::Internal("chaos injection");
    }
    spec.after = static_cast<int>(rng.NextBounded(3));
    spec.times = 1 + static_cast<int>(rng.NextBounded(4));
    registry->Arm(point, spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        5 + static_cast<int>(rng.NextBounded(20))));
    if (rng.NextBool(0.3)) registry->Disarm(point);
  }
  for (const std::string_view point : points) registry->Disarm(point);
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_soak [--seconds=S] [--seed=N] [--clients=C] "
               "[--workers=W] [--no-chaos] [--repro-dir=DIR] [--verbose]\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view prefix) {
      return std::string(arg.substr(prefix.size()));
    };
    if (arg.rfind("--seconds=", 0) == 0) {
      if (!blitz::ParseDouble(value("--seconds="), &config.seconds) ||
          config.seconds <= 0) {
        return Usage();
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      int seed = 0;
      if (!blitz::ParseInt(value("--seed="), &seed)) return Usage();
      config.seed = static_cast<std::uint64_t>(seed);
    } else if (arg.rfind("--clients=", 0) == 0) {
      if (!blitz::ParseInt(value("--clients="), &config.clients) ||
          config.clients < 1) {
        return Usage();
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!blitz::ParseInt(value("--workers="), &config.workers) ||
          config.workers < 1) {
        return Usage();
      }
    } else if (arg == "--no-chaos") {
      config.chaos = false;
    } else if (arg.rfind("--repro-dir=", 0) == 0) {
      config.repro_dir = value("--repro-dir=");
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else {
      return Usage();
    }
  }
  if (config.chaos && !blitz::kFaultInjectionCompiled) {
    std::fprintf(stderr,
                 "serve_soak: fault injection compiled out; running "
                 "without chaos\n");
    config.chaos = false;
  }

  MetricsRegistry metrics;
  SetGlobalMetrics(&metrics);
  FaultRegistry registry;
  std::unique_ptr<ScopedFaultRegistry> scoped;
  if (config.chaos) {
    scoped = std::make_unique<ScopedFaultRegistry>(&registry);
  }

  ServerOptions server_options;
  server_options.num_workers = config.workers;
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "serve_soak: %s\n",
                 server.status().ToString().c_str());
    SetGlobalMetrics(nullptr);
    return kExitViolation;
  }

  SoakTotals totals;
  std::atomic<bool> stop{false};
  std::vector<std::thread> client_threads;
  for (int c = 0; c < config.clients; ++c) {
    client_threads.emplace_back(ClientLoop, std::cref(config),
                                server->get(), c, &stop, &totals);
  }
  std::thread chaos_thread;
  if (config.chaos) {
    chaos_thread = std::thread(ChaosLoop, std::cref(config), &registry,
                               &stop);
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : client_threads) t.join();
  if (chaos_thread.joinable()) chaos_thread.join();

  // Graceful drain must leave nothing unanswered.
  (*server)->Shutdown();
  if ((*server)->in_flight() != 0) {
    ReportViolation(config, &totals, "requests left in flight after drain",
                    "");
  }

  std::fprintf(stderr,
               "serve_soak: seed=%llu sent=%llu responses=%llu ok=%llu "
               "errors=%llu reconnects=%llu violations=%llu\n",
               static_cast<unsigned long long>(config.seed),
               static_cast<unsigned long long>(totals.sent.load()),
               static_cast<unsigned long long>(totals.responses.load()),
               static_cast<unsigned long long>(totals.ok.load()),
               static_cast<unsigned long long>(totals.errors.load()),
               static_cast<unsigned long long>(totals.reconnects.load()),
               static_cast<unsigned long long>(totals.violations.load()));
  if (config.verbose) {
    std::fprintf(stderr, "%s\n", metrics.ToJson().c_str());
  }
  server->reset();
  SetGlobalMetrics(nullptr);
  return totals.violations.load() == 0 ? kExitOk : kExitViolation;
}
