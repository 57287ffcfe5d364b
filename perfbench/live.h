#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/wire.h"
#include "workload.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t NowNs();

/// One blitzd child process serving a unix socket, started with
/// `--unix <socket> --workers 2` and every other option at its default.
/// The destructor stops it (SIGTERM, then SIGKILL after 10 s) and reaps it.
class Daemon {
 public:
  Daemon(std::string binary, std::string socket, std::string log);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the process and connects `count` clients, retrying until the
  /// listener is up. Returns the connected fds; exits on failure.
  std::vector<int> Start(int count);

  /// Graceful stop: SIGTERM, wait for exit, close the client fds.
  void Stop();

  /// User + system CPU seconds the process has used so far.
  double CpuSeconds() const;

  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

 private:
  std::string binary_;
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
  std::vector<int> fds_;
};

/// The fate of one request.
struct Outcome {
  int body = -1;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  int answers = 0;  ///< Replies matched to it; exactly one is correct.
  blitz::StatusCode code = blitz::StatusCode::kOk;
  bool cached = false;
  bool plan_valid = false;  ///< OK replies: a bushy plan over its relations.
  double cost = 0;
};

/// A /statz snapshot: key -> value.
using Statz = std::map<std::string, double>;

/// The closed-loop generator: one thread, `load` connections each with one
/// request outstanding (a caller waits for its plan before it sends the
/// next), plus one observer connection that only carries /statz.
class Client {
 public:
  Client(const Traffic* traffic, std::vector<int> load_fds, int observer_fd);

  struct Phase {
    std::vector<Outcome> outcomes;  ///< In send order.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;          ///< Last reply (or give-up time).
    int stray_replies = 0;            ///< Ids never sent or answered twice.
    std::vector<double> queue_depth;  ///< Sampled by /statz, timed only.
  };

  /// Sends stream(0), stream(1), ... until stream returns -1 or, when
  /// `seconds` > 0, until that much time has passed; then waits for the
  /// outstanding replies. With `seconds` > 0 the observer samples
  /// queue_depth every `sample_ms`.
  Phase Run(const std::function<int(std::uint64_t)>& stream, double seconds,
            double sample_ms);

  /// A synchronous /statz read over the observer connection.
  Statz ReadStatz();

 private:
  void Send(int fd, std::uint64_t id, const std::string& body);
  bool CheckPlan(int body, const std::string& plan);

  const Traffic* traffic_;
  std::vector<int> load_fds_;
  int observer_fd_;
  std::uint64_t next_id_ = 1;
  /// Per body, the first plan text that passed the plan check; identical
  /// later replies need no re-check.
  std::vector<std::string> checked_plan_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
