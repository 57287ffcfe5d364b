// blitzd: the long-lived optimizer-serving daemon.
//
// Speaks the blitz-serve-v1 frame protocol (src/serve/wire.h) over one of
// three transports:
//
//   blitzd --stdio                 one connection on stdin/stdout
//   blitzd --unix <path>           Unix-domain socket listener
//   blitzd --tcp <port>            TCP listener on 127.0.0.1
//
// Shutdown: SIGTERM or SIGINT begins a graceful drain — the listener stops
// accepting, blocked connection reads unwind via the self-pipe wake fd,
// in-flight requests get drain_grace_ms to finish before being cancelled,
// and every admitted request is answered before exit. Metrics are flushed
// as one JSON object to stderr at exit.
//
// Exit codes: 0 clean drain, 1 runtime error, 2 usage error.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <poll.h>

#include "card/estimator.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "serve/mux.h"
#include "serve/server.h"
#include "serve/stream.h"

namespace blitz {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

int g_wake_write_fd = -1;

void HandleTermination(int /*signo*/) {
  // Async-signal-safe: one byte down the self-pipe turns every blocked
  // read/accept into a drain.
  const char byte = 1;
  if (g_wake_write_fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_wake_write_fd, &byte, 1);
  }
}

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: blitzd (--stdio | --unix <path> | --tcp <port>) [options]\n"
      "\n"
      "Serves blitz-serve-v1 optimizer requests until SIGTERM/SIGINT,\n"
      "then drains gracefully.\n"
      "\n"
      "options:\n"
      "  --workers <n>            optimizer worker threads (default 4)\n"
      "  --max-queue <n>          bounded request queue depth (default 256)\n"
      "  --max-in-flight <n>      per-tenant in-flight cap (default 64)\n"
      "  --default-deadline-ms <ms>  deadline for requests without one\n"
      "  --drain-grace-ms <ms>    drain wait before cancelling (default\n"
      "                           2000)\n"
      "  --estimator <name>       default cardinality estimator for\n"
      "                           requests without an estimator directive\n"
      "                           (paper or noest; default paper — hist\n"
      "                           needs local base tables and is rejected)\n"
      "  --max-body-bytes <n>     request body cap (default 1048576)\n"
      "  --arena-bytes <n>        DP-table arena retention (default 256M)\n"
      "  --write-timeout-ms <ms>  response write timeout per connection;\n"
      "                           a peer that stops reading for this long\n"
      "                           forfeits its connection (default 5000,\n"
      "                           0 = never time out)\n"
      "  --max-connections <n>    open-connection cap for socket\n"
      "                           transports (default 0 = fd limit only)\n"
      "  --cache-entries <n>      plan cache entry cap (default 4096,\n"
      "                           0 disables the cache)\n"
      "  --cache-bytes <n>        plan cache retained-bytes cap\n"
      "                           (default 64M)\n"
      "  --help                   this text\n");
}

struct DaemonArgs {
  enum class Transport { kNone, kStdio, kUnix, kTcp };
  Transport transport = Transport::kNone;
  std::string unix_path;
  int tcp_port = 0;
  /// Bound on a single blocked response write: a stalled client (full TCP
  /// send buffer) loses its connection after this instead of parking a
  /// worker — and the SIGTERM drain — forever. 0 disables.
  double write_timeout_ms = 5000;
  /// Open-connection cap for the socket transports. 0 = fd limit only.
  int max_connections = 0;
  ServerOptions server;
};

Result<DaemonArgs> ParseArgs(int argc, char** argv) {
  DaemonArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(kExitOk);
    } else if (arg == "--stdio") {
      args.transport = DaemonArgs::Transport::kStdio;
    } else if (arg == "--unix") {
      const char* value = next();
      if (value == nullptr) return Status::InvalidArgument("--unix needs a path");
      args.transport = DaemonArgs::Transport::kUnix;
      args.unix_path = value;
    } else if (arg == "--tcp") {
      const char* value = next();
      if (value == nullptr || !ParseInt(value, &args.tcp_port) ||
          args.tcp_port < 1 || args.tcp_port > 65535) {
        return Status::InvalidArgument("--tcp needs a port in [1, 65535]");
      }
      args.transport = DaemonArgs::Transport::kTcp;
    } else if (arg == "--workers") {
      const char* value = next();
      if (value == nullptr || !ParseInt(value, &args.server.num_workers)) {
        return Status::InvalidArgument("--workers needs an integer");
      }
    } else if (arg == "--max-queue") {
      const char* value = next();
      if (value == nullptr || !ParseInt(value, &args.server.max_queue)) {
        return Status::InvalidArgument("--max-queue needs an integer");
      }
    } else if (arg == "--max-in-flight") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n)) {
        return Status::InvalidArgument("--max-in-flight needs an integer");
      }
      args.server.admission.default_quota.max_in_flight = n;
    } else if (arg == "--default-deadline-ms") {
      const char* value = next();
      double ms = 0;
      if (value == nullptr || !ParseDouble(value, &ms) || ms < 0) {
        return Status::InvalidArgument(
            "--default-deadline-ms needs a non-negative number");
      }
      args.server.default_deadline_ms = ms;
    } else if (arg == "--drain-grace-ms") {
      const char* value = next();
      double ms = 0;
      if (value == nullptr || !ParseDouble(value, &ms) || ms < 0) {
        return Status::InvalidArgument(
            "--drain-grace-ms needs a non-negative number");
      }
      args.server.drain_grace_ms = ms;
    } else if (arg == "--estimator") {
      const char* value = next();
      if (value == nullptr) {
        return Status::InvalidArgument(
            StrFormat("--estimator needs a name (%s)", EstimatorKindNames()));
      }
      const std::optional<EstimatorKind> kind = EstimatorKindFromName(value);
      if (!kind.has_value()) {
        return Status::InvalidArgument(
            StrFormat("unknown estimator %s (valid: %s)", value,
                      EstimatorKindNames()));
      }
      args.server.default_estimator = *kind;
    } else if (arg == "--max-body-bytes") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n) || n < 1) {
        return Status::InvalidArgument(
            "--max-body-bytes needs a positive integer");
      }
      args.server.wire.max_body_bytes = static_cast<std::uint64_t>(n);
      args.server.admission.default_quota.max_body_bytes =
          static_cast<std::uint64_t>(n);
      args.server.parse.max_bytes = static_cast<std::uint64_t>(n);
    } else if (arg == "--write-timeout-ms") {
      const char* value = next();
      double ms = 0;
      if (value == nullptr || !ParseDouble(value, &ms) || ms < 0) {
        return Status::InvalidArgument(
            "--write-timeout-ms needs a non-negative number");
      }
      args.write_timeout_ms = ms;
    } else if (arg == "--max-connections") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n) || n < 0) {
        return Status::InvalidArgument(
            "--max-connections needs a non-negative integer");
      }
      args.max_connections = n;
    } else if (arg == "--cache-entries") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n) || n < 0) {
        return Status::InvalidArgument(
            "--cache-entries needs a non-negative integer");
      }
      args.server.cache.max_entries = static_cast<std::size_t>(n);
    } else if (arg == "--cache-bytes") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n) || n < 0) {
        return Status::InvalidArgument(
            "--cache-bytes needs a non-negative integer");
      }
      args.server.cache.max_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--arena-bytes") {
      const char* value = next();
      int n = 0;
      if (value == nullptr || !ParseInt(value, &n) || n < 0) {
        return Status::InvalidArgument(
            "--arena-bytes needs a non-negative integer");
      }
      args.server.arena.max_retained_bytes = static_cast<std::uint64_t>(n);
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(arg));
    }
  }
  if (args.transport == DaemonArgs::Transport::kNone) {
    return Status::InvalidArgument(
        "one of --stdio, --unix, or --tcp is required");
  }
  return args;
}

Result<int> ListenUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());  // Stale socket from a previous run.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    const Status error =
        Status::Internal(StrFormat("bind/listen %s: %s", path.c_str(),
                                   std::strerror(errno)));
    ::close(fd);
    return error;
  }
  return fd;
}

Result<int> ListenTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    const Status error = Status::Internal(
        StrFormat("bind/listen port %d: %s", port, std::strerror(errno)));
    ::close(fd);
    return error;
  }
  return fd;
}

int RunDaemon(const DaemonArgs& args) {
  // SIGTERM/SIGINT self-pipe: the one fd every blocking site polls.
  int wake_pipe[2];
  if (::pipe(wake_pipe) != 0) {
    std::fprintf(stderr, "blitzd: pipe: %s\n", std::strerror(errno));
    return kExitError;
  }
  g_wake_write_fd = wake_pipe[1];
  struct sigaction action {};
  action.sa_handler = HandleTermination;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  MetricsRegistry metrics;
  SetGlobalMetrics(&metrics);

  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(args.server);
  if (!server.ok()) {
    std::fprintf(stderr, "blitzd: %s\n", server.status().ToString().c_str());
    SetGlobalMetrics(nullptr);
    return kExitError;
  }

  // Socket transports run the epoll multiplexer (serve/mux.h): one
  // event-loop thread owns every connection, and the wake fd (SIGTERM
  // self-pipe) triggers its drain.
  MuxOptions mux;
  mux.wake_fd = wake_pipe[0];
  mux.write_timeout_ms = args.write_timeout_ms;
  mux.max_connections = args.max_connections;

  Status served = Status::OK();
  switch (args.transport) {
    case DaemonArgs::Transport::kStdio: {
      FdStream stream(STDIN_FILENO, STDOUT_FILENO, /*own_fds=*/false,
                      wake_pipe[0], args.write_timeout_ms);
      served = ServeStream(server->get(), &stream);
      // EOF on stdin is this transport's drain signal.
      (*server)->BeginDrain();
      break;
    }
    case DaemonArgs::Transport::kUnix: {
      Result<int> listen_fd = ListenUnix(args.unix_path);
      if (!listen_fd.ok()) {
        served = listen_fd.status();
        break;
      }
      std::fprintf(stderr, "blitzd: serving on unix socket %s\n",
                   args.unix_path.c_str());
      mux.listen_fd = *listen_fd;
      served = ServeMultiplexed(server->get(), mux);
      ::close(*listen_fd);
      ::unlink(args.unix_path.c_str());
      break;
    }
    case DaemonArgs::Transport::kTcp: {
      Result<int> listen_fd = ListenTcp(args.tcp_port);
      if (!listen_fd.ok()) {
        served = listen_fd.status();
        break;
      }
      std::fprintf(stderr, "blitzd: serving on 127.0.0.1:%d\n",
                   args.tcp_port);
      mux.listen_fd = *listen_fd;
      served = ServeMultiplexed(server->get(), mux);
      ::close(*listen_fd);
      break;
    }
    case DaemonArgs::Transport::kNone:
      break;
  }

  // Graceful exit: answer or cancel everything in flight, then flush the
  // run's metrics to stderr as one JSON object.
  (*server)->Shutdown();
  std::fprintf(stderr, "%s\n", metrics.ToJson().c_str());
  server->reset();
  SetGlobalMetrics(nullptr);
  ::close(wake_pipe[0]);
  ::close(wake_pipe[1]);

  if (!served.ok()) {
    std::fprintf(stderr, "blitzd: %s\n", served.ToString().c_str());
    return kExitError;
  }
  return kExitOk;
}

}  // namespace
}  // namespace blitz

int main(int argc, char** argv) {
  blitz::Result<blitz::DaemonArgs> args = blitz::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "blitzd: %s\n", args.status().message().c_str());
    blitz::PrintUsage(stderr);
    return blitz::kExitUsage;
  }
  return blitz::RunDaemon(*args);
}
