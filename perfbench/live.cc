#include "live.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

/// The running daemon, for the exit handler: every exit path of the
/// generator (including std::exit on a fatal error) stops it.
pid_t g_daemon_pid = -1;

void KillDaemonAtExit() {
  if (g_daemon_pid > 0) {
    ::kill(g_daemon_pid, SIGKILL);
    ::waitpid(g_daemon_pid, nullptr, 0);
    g_daemon_pid = -1;
  }
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) Die(std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void WriteAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die(std::string("write to blitzd: ") + std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
}

Statz ParseStatz(const std::string& body) {
  Statz statz;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;  // The magic line.
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + space + 1, &end);
    if (end != line.c_str() + space + 1) statz[line.substr(0, space)] = v;
  }
  return statz;
}

/// Recursive-descent check of one infix subtree starting at `*pos`.
bool ParseSubtree(const std::string& s, std::size_t* pos,
                  const blitz::Catalog& catalog, std::vector<bool>* seen) {
  if (*pos >= s.size()) return false;
  if (s[*pos] == '(') {
    ++*pos;
    if (!ParseSubtree(s, pos, catalog, seen)) return false;
    if (s.compare(*pos, 3, " x ") != 0) return false;
    *pos += 3;
    if (!ParseSubtree(s, pos, catalog, seen)) return false;
    if (*pos >= s.size() || s[*pos] != ')') return false;
    ++*pos;
    return true;
  }
  const std::size_t end = s.find_first_of(" ()", *pos);
  const std::string name =
      s.substr(*pos, end == std::string::npos ? std::string::npos : end - *pos);
  *pos = end == std::string::npos ? s.size() : end;
  const int index = catalog.FindByName(name);
  if (index < 0 || (*seen)[index]) return false;
  (*seen)[index] = true;
  return true;
}

/// True iff `plan` (the reply's infix rendering, e.g. "((R0 x R2) x R1)")
/// is a binary join tree whose leaves are exactly the relations of `spec`,
/// each once.
bool IsValidBushyPlan(const std::string& plan, const blitz::QuerySpec& spec) {
  const int n = spec.catalog.num_relations();
  std::vector<bool> seen(n, false);
  std::size_t pos = 0;
  if (!ParseSubtree(plan, &pos, spec.catalog, &seen) || pos != plan.size()) {
    return false;
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Daemon::Daemon(std::string binary, std::string socket, std::string log)
    : binary_(std::move(binary)), socket_(std::move(socket)),
      log_(std::move(log)) {}

Daemon::~Daemon() { Stop(); }

std::vector<int> Daemon::Start(int count) {
  static const bool registered = std::atexit(KillDaemonAtExit) == 0;
  (void)registered;
  ::unlink(socket_.c_str());
  std::vector<std::string> args = {binary_, "--unix", socket_, "--workers",
                                   "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) Die(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // The daemon dies with the generator, however the generator ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    const int log = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = ::open("/dev/null", O_RDONLY);
    if (log < 0 || null < 0) ::_exit(1);
    ::dup2(null, STDIN_FILENO);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(binary_.c_str(), argv.data());
    ::_exit(127);
  }
  g_daemon_pid = pid_;
  const std::int64_t give_up = NowNs() + 20'000'000'000;
  while (static_cast<int>(fds_.size()) < count) {
    const int fd = ConnectUnix(socket_);
    if (fd >= 0) {
      fds_.push_back(fd);
      continue;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_daemon_pid = -1;
      Die("blitzd exited during start-up; see " + log_);
    }
    if (NowNs() > give_up) Die("blitzd did not accept within 20 s");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return fds_;
}

void Daemon::Stop() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  const std::int64_t give_up = NowNs() + 10'000'000'000;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowNs() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  g_daemon_pid = -1;
}

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  // After "pid (comm) ", utime and stime are fields 12 and 13 (0-based 11,
  // 12 counting from the state letter).
  double ticks = 0;
  for (int i = 0; i < 13 && fields >> field; ++i) {
    if (i == 11 || i == 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Client::Client(const Traffic* traffic, std::vector<int> load_fds,
               int observer_fd)
    : traffic_(traffic), load_fds_(std::move(load_fds)),
      observer_fd_(observer_fd), checked_plan_(traffic->bodies().size()) {}

void Client::Send(int fd, std::uint64_t id, const std::string& body) {
  blitz::RequestFrame frame;
  frame.id = id;
  frame.body = body;
  WriteAll(fd, blitz::EncodeRequestFrame(frame));
}

bool Client::CheckPlan(int body, const std::string& plan) {
  std::string& checked = checked_plan_[body];
  if (!checked.empty() && checked == plan) return true;
  if (!IsValidBushyPlan(plan, traffic_->bodies()[body].spec)) return false;
  checked = plan;
  return true;
}

Client::Phase Client::Run(const std::function<int(std::uint64_t)>& stream,
                          double seconds, double sample_ms) {
  struct Slot {
    int fd = -1;
    std::uint64_t id = 0;
    int outcome = -1;  ///< Index of the outstanding request, -1 when idle.
    blitz::ResponseFrameAssembler frames{blitz::WireLimits{}};
  };
  Phase phase;
  phase.start_ns = NowNs();
  phase.end_ns = phase.start_ns;
  const bool timed = seconds > 0;
  const std::int64_t deadline =
      timed ? phase.start_ns + static_cast<std::int64_t>(seconds * 1e9)
            : INT64_MAX;
  const std::int64_t sample_ns = static_cast<std::int64_t>(sample_ms * 1e6);
  std::vector<Slot> slots(load_fds_.size());
  for (std::size_t c = 0; c < slots.size(); ++c) slots[c].fd = load_fds_[c];
  std::uint64_t next = 0;
  bool exhausted = false;

  const auto send_next = [&](Slot& slot) {
    if (exhausted || slot.fd < 0) return;
    const std::int64_t now = NowNs();
    if (now >= deadline) return;
    const int body = stream(next);
    if (body < 0) {
      exhausted = true;
      return;
    }
    ++next;
    slot.id = next_id_++;
    slot.outcome = static_cast<int>(phase.outcomes.size());
    Outcome& o = phase.outcomes.emplace_back();
    o.body = body;
    o.send_ns = now;
    Send(slot.fd, slot.id, traffic_->bodies()[body].text);
  };
  for (Slot& slot : slots) send_next(slot);

  blitz::ResponseFrameAssembler observer_frames{blitz::WireLimits{}};
  bool statz_outstanding = false;
  std::int64_t next_sample = phase.start_ns + sample_ns;
  std::int64_t last_progress = NowNs();
  std::vector<pollfd> fds(slots.size() + 1);
  std::vector<blitz::ResponseFrame> frames;
  char buffer[1 << 16];

  for (;;) {
    int outstanding = 0;
    for (const Slot& slot : slots) outstanding += slot.outcome >= 0 ? 1 : 0;
    if (outstanding == 0 && !statz_outstanding) break;
    std::int64_t now = NowNs();
    // A daemon that stops answering for 60 s leaves the rest unanswered:
    // they count as failures and as exactly-once violations.
    if (now - last_progress > 60'000'000'000) break;
    if (timed && !statz_outstanding && now >= next_sample && now < deadline) {
      Send(observer_fd_, next_id_++, std::string(blitz::kStatzBody));
      statz_outstanding = true;
      next_sample += sample_ns;
    }
    for (std::size_t c = 0; c < slots.size(); ++c) {
      fds[c] = pollfd{slots[c].outcome >= 0 ? slots[c].fd : -1, POLLIN, 0};
    }
    fds[slots.size()] =
        pollfd{statz_outstanding ? observer_fd_ : -1, POLLIN, 0};
    int wait_ms = 100;
    if (timed && !statz_outstanding && now < deadline) {
      wait_ms = static_cast<int>(
          std::max<std::int64_t>(0, (next_sample - now) / 1'000'000));
    }
    if (::poll(fds.data(), fds.size(), wait_ms) < 0) {
      if (errno == EINTR) continue;
      Die(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (fds[c].revents == 0) continue;
      Slot& slot = slots[c];
      const ssize_t n = ::read(slot.fd, buffer, sizeof(buffer));
      if (n <= 0) {
        // The daemon closed the connection: its request stays unanswered.
        slot.outcome = -1;
        slot.fd = -1;
        continue;
      }
      frames.clear();
      if (!slot.frames.Feed(std::string_view(buffer, n), &frames).ok()) {
        Die("blitzd sent a malformed response frame");
      }
      now = NowNs();
      for (blitz::ResponseFrame& frame : frames) {
        if (slot.outcome < 0 || frame.id != slot.id) {
          ++phase.stray_replies;
          continue;
        }
        Outcome& o = phase.outcomes[slot.outcome];
        o.recv_ns = now;
        ++o.answers;
        o.code = frame.code;
        if (frame.code == blitz::StatusCode::kOk) {
          blitz::Result<blitz::ServeReply> reply =
              blitz::ParseReplyBody(frame.body);
          if (reply.ok()) {
            o.cached = reply->cached;
            o.cost = reply->cost;
            o.plan_valid = CheckPlan(o.body, reply->plan);
          }
        }
        slot.outcome = -1;
        phase.end_ns = now;
        last_progress = now;
        send_next(slot);
      }
    }
    if (fds[slots.size()].revents != 0) {
      const ssize_t n = ::read(observer_fd_, buffer, sizeof(buffer));
      if (n <= 0) Die("blitzd closed the observer connection");
      frames.clear();
      if (!observer_frames.Feed(std::string_view(buffer, n), &frames).ok()) {
        Die("blitzd sent a malformed statz frame");
      }
      for (const blitz::ResponseFrame& frame : frames) {
        const Statz statz = ParseStatz(frame.body);
        if (const auto it = statz.find("queue_depth"); it != statz.end()) {
          phase.queue_depth.push_back(it->second);
        }
        statz_outstanding = false;
      }
    }
  }
  for (int c = 0; c < static_cast<int>(slots.size()); ++c) {
    load_fds_[c] = slots[c].fd;
  }
  return phase;
}

Statz Client::ReadStatz() {
  Send(observer_fd_, next_id_++, std::string(blitz::kStatzBody));
  blitz::ResponseFrameAssembler assembler{blitz::WireLimits{}};
  std::vector<blitz::ResponseFrame> frames;
  char buffer[1 << 16];
  while (frames.empty()) {
    const ssize_t n = ::read(observer_fd_, buffer, sizeof(buffer));
    if (n <= 0) Die("blitzd closed the observer connection");
    if (!assembler.Feed(std::string_view(buffer, n), &frames).ok()) {
      Die("blitzd sent a malformed statz frame");
    }
  }
  return ParseStatz(frames.front().body);
}

}  // namespace perfbench
