#include "serve/mux.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "governor/faultpoints.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace blitz {

namespace {

void Count(std::string_view name) {
  if (MetricsRegistry* metrics = GlobalMetrics()) metrics->AddCounter(name);
}

/// Reserved epoll cookies; connection ids start above these.
constexpr std::uint64_t kListenCookie = 0;
constexpr std::uint64_t kWakeCookie = 1;
constexpr std::uint64_t kEventCookie = 2;
constexpr std::uint64_t kFirstConnId = 3;

class Multiplexer;

/// One multiplexed connection, and its own ResponseSink. The mux thread
/// owns the read side (fd, assembler, submitted/read_done bookkeeping); the
/// outbox is shared with worker threads through `mu` (SendResponse enqueues
/// from any thread). Identified by a monotonically increasing id — never by
/// fd, which the kernel reuses the moment a dead connection closes.
struct MuxConn final : ResponseSink {
  Multiplexer* mux = nullptr;
  std::uint64_t id = 0;
  int fd = -1;
  RequestFrameAssembler assembler;

  std::mutex mu;
  std::deque<std::string> outbox;  ///< Encoded frames awaiting the socket.
  std::size_t offset = 0;          ///< Bytes of outbox.front() already sent.
  bool transport_closed = false;   ///< fd gone; drop further responses.
  std::uint64_t responses = 0;     ///< SendResponse calls (incl. dropped).

  // Mux-thread-only state.
  std::uint64_t submitted = 0;  ///< SubmitRequest + SubmitProtocolError.
  bool read_done = false;       ///< EOF or framing error; no more submits.
  bool want_epollout = false;
  bool stalled = false;
  std::chrono::steady_clock::time_point stall_since;

  explicit MuxConn(const WireLimits& limits) : assembler(limits) {}

  void SendResponse(const ResponseFrame& response) override;
};

class Multiplexer {
 public:
  Multiplexer(BlitzServer* server, const MuxOptions& options)
      : server_(server), options_(options) {}

  Status Run();

  /// Called from any thread (worker SendResponse): marks the connection as
  /// having fresh outbox bytes and wakes the event loop.
  void NotifyReady(std::uint64_t id) {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready_.push_back(id);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
  }

  const WireLimits& wire_limits() const { return server_->options().wire; }

 private:
  void AcceptReady();
  void ReadReady(const std::shared_ptr<MuxConn>& conn);
  /// Flushes as much of the outbox as the socket accepts. Returns false if
  /// the connection died mid-write (already hard-closed).
  bool Flush(const std::shared_ptr<MuxConn>& conn);
  void UpdateInterest(const std::shared_ptr<MuxConn>& conn);
  /// Immediately severs the transport: pending outbox bytes are dropped,
  /// future responses are dropped. The MuxConn object stays alive (queued
  /// jobs hold it as their sink) until its last job answers.
  void HardClose(const std::shared_ptr<MuxConn>& conn);
  /// Closes the connection iff it owes nothing: read side finished, every
  /// submitted request answered, outbox flushed.
  void MaybeFinish(const std::shared_ptr<MuxConn>& conn);
  void StartDrain();
  void CheckStalls(std::chrono::steady_clock::time_point now);

  BlitzServer* server_;
  const MuxOptions options_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::uint64_t next_id_ = kFirstConnId;
  std::unordered_map<std::uint64_t, std::shared_ptr<MuxConn>> conns_;
  std::unordered_set<std::uint64_t> stalled_;

  std::mutex ready_mu_;
  std::vector<std::uint64_t> ready_;

  bool draining_ = false;
  bool accepting_ = true;
  std::atomic<bool> shutdown_done_{false};
  std::thread drain_thread_;
};

void MuxConn::SendResponse(const ResponseFrame& response) {
  {
    std::lock_guard<std::mutex> lock(mu);
    ++responses;
    if (!transport_closed) outbox.push_back(EncodeResponseFrame(response));
  }
  mux->NotifyReady(id);
}

void Multiplexer::AcceptReady() {
  for (;;) {
    const int fd = accept4(options_.listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient resource exhaustion (EMFILE and friends): drop this
      // round; the event stays level-triggered and we retry next cycle.
      Count("serve.mux.accept_errors");
      return;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >=
            static_cast<std::size_t>(options_.max_connections)) {
      close(fd);
      Count("serve.mux.accept_overflow");
      continue;
    }
    auto conn = std::make_shared<MuxConn>(wire_limits());
    conn->mux = this;
    conn->id = next_id_++;
    conn->fd = fd;
    // A refused connection holds its one id-0 answer; flush it and close.
    conn->read_done = !server_->AcceptConnection(*conn).ok();

    epoll_event ev{};
    ev.events = conn->read_done ? 0u : static_cast<std::uint32_t>(EPOLLIN);
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns_.emplace(conn->id, conn);
    if (conn->read_done) {
      if (Flush(conn)) MaybeFinish(conn);
    }
  }
}

void Multiplexer::ReadReady(const std::shared_ptr<MuxConn>& conn) {
  char buf[64 * 1024];
  while (!conn->read_done) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      HardClose(conn);  // Peer reset under us; jobs answer into the void.
      return;
    }
    if (n == 0) {
      const Status eof = conn->assembler.AtEndOfStream();
      if (!eof.ok()) {
        // The peer died inside a frame: a connection-level error.
        server_->SubmitProtocolError(*conn, eof);
        ++conn->submitted;
      }
      conn->read_done = true;
      break;
    }
    std::vector<RequestFrame> frames;
    const Status fed = conn->assembler.Feed(
        std::string_view(buf, static_cast<std::size_t>(n)), &frames);
    for (RequestFrame& frame : frames) {
      ++conn->submitted;
      // May answer synchronously (shed / statz / cache hit) via
      // SendResponse, which lands in this connection's outbox.
      server_->SubmitRequest(conn, std::move(frame));
    }
    if (!fed.ok()) {
      // Frame desync: answer once with id 0 and stop reading.
      server_->SubmitProtocolError(*conn, fed);
      ++conn->submitted;
      conn->read_done = true;
      break;
    }
  }
  if (!Flush(conn)) return;
  UpdateInterest(conn);
  MaybeFinish(conn);
}

bool Multiplexer::Flush(const std::shared_ptr<MuxConn>& conn) {
  std::unique_lock<std::mutex> lock(conn->mu);
  if (conn->transport_closed) return false;
  while (!conn->outbox.empty()) {
    const std::string& front = conn->outbox.front();
    const ssize_t n = send(conn->fd, front.data() + conn->offset,
                           front.size() - conn->offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->stalled) {
          conn->stalled = true;
          conn->stall_since = std::chrono::steady_clock::now();
          stalled_.insert(conn->id);
        }
        conn->want_epollout = true;
        lock.unlock();
        UpdateInterest(conn);
        return true;
      }
      if (errno == EINTR) continue;
      lock.unlock();
      HardClose(conn);
      return false;
    }
    // Progress resets the stall clock: a slow-but-moving peer is not a
    // slow loris.
    if (conn->stalled) {
      conn->stalled = false;
      stalled_.erase(conn->id);
    }
    conn->offset += static_cast<std::size_t>(n);
    if (conn->offset == front.size()) {
      conn->outbox.pop_front();
      conn->offset = 0;
    }
  }
  if (conn->want_epollout) {
    conn->want_epollout = false;
    lock.unlock();
    UpdateInterest(conn);
  }
  return true;
}

void Multiplexer::UpdateInterest(const std::shared_ptr<MuxConn>& conn) {
  if (conn->fd < 0) return;
  epoll_event ev{};
  ev.events = (conn->read_done ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn->want_epollout ? static_cast<std::uint32_t>(EPOLLOUT)
                                   : 0u);
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Multiplexer::HardClose(const std::shared_ptr<MuxConn>& conn) {
  if (conn->fd < 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  conn->fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->transport_closed = true;
    conn->outbox.clear();
    conn->offset = 0;
  }
  stalled_.erase(conn->id);
  conns_.erase(conn->id);
}

void Multiplexer::MaybeFinish(const std::shared_ptr<MuxConn>& conn) {
  if (!conn->read_done || conn->fd < 0) return;
  bool done;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    done = conn->outbox.empty() && conn->responses >= conn->submitted;
  }
  if (done) HardClose(conn);  // Nothing owed; outbox already empty.
}

void Multiplexer::StartDrain() {
  if (draining_) return;
  draining_ = true;
  if (accepting_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, options_.listen_fd, nullptr);
    accepting_ = false;
  }
  // The wake pipe stays readable forever (level-triggered); deregister it
  // or the drain loop would spin instead of sleeping between ticks.
  if (options_.wake_fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, options_.wake_fd, nullptr);
  }
  server_->BeginDrain();
  // Shutdown blocks until every admitted request is answered — run it off
  // the event loop so reads (sheds) and writes keep flowing meanwhile.
  drain_thread_ = std::thread([this] {
    server_->Shutdown();
    shutdown_done_.store(true, std::memory_order_release);
    NotifyReady(0);  // Wake the loop; cookie 0 is ignored as a conn id.
  });
}

void Multiplexer::CheckStalls(std::chrono::steady_clock::time_point now) {
  if (options_.write_timeout_ms <= 0 || stalled_.empty()) return;
  std::vector<std::shared_ptr<MuxConn>> victims;
  for (const std::uint64_t id : stalled_) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    const double ms = std::chrono::duration<double, std::milli>(
                          now - it->second->stall_since)
                          .count();
    if (ms >= options_.write_timeout_ms) victims.push_back(it->second);
  }
  for (const auto& conn : victims) {
    Count("serve.mux.write_timeouts");
    HardClose(conn);
  }
}

Status Multiplexer::Run() {
  BLITZ_RETURN_IF_ERROR(options_.Validate());
  Status result = Status::OK();

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(StrFormat("epoll_create1: %s", strerror(errno)));
  }
  event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    close(epoll_fd_);
    return Status::Internal(StrFormat("eventfd: %s", strerror(errno)));
  }

  // The listening socket must not block the loop in accept.
  const int listen_flags = fcntl(options_.listen_fd, F_GETFL, 0);
  fcntl(options_.listen_fd, F_SETFL, listen_flags | O_NONBLOCK);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenCookie;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, options_.listen_fd, &ev);
  ev.data.u64 = kEventCookie;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  if (options_.wake_fd >= 0) {
    ev.data.u64 = kWakeCookie;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, options_.wake_fd, &ev);
  }

  epoll_event events[256];
  for (;;) {
    if (std::optional<FaultSpec> fault = FaultHit(kFaultServeEpollWait)) {
      if (fault->kind == FaultKind::kFailStatus) {
        // Unrecoverable event-loop failure: drain gracefully — every
        // admitted request still answers — then report the fault.
        if (result.ok()) result = fault->status;
        StartDrain();
      } else {
        continue;  // Transient kinds: this wait cycle is a no-op.
      }
    }

    const bool ticking = !stalled_.empty() || draining_;
    const int timeout_ms = ticking ? 50 : 500;
    const int n = epoll_wait(epoll_fd_, events, 256, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      result = Status::Internal(StrFormat("epoll_wait: %s", strerror(errno)));
      StartDrain();
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t cookie = events[i].data.u64;
      if (cookie == kListenCookie) {
        if (accepting_) AcceptReady();
        continue;
      }
      if (cookie == kWakeCookie) {
        StartDrain();
        continue;
      }
      if (cookie == kEventCookie) {
        std::uint64_t drained = 0;
        while (read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // The ready list is swept below.
      }
      const auto it = conns_.find(cookie);
      if (it == conns_.end()) continue;  // Closed earlier this sweep.
      std::shared_ptr<MuxConn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        HardClose(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!Flush(conn)) continue;
        MaybeFinish(conn);
        if (conns_.count(cookie) == 0) continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) != 0 &&
          !conn->read_done) {
        ReadReady(conn);
      }
    }

    // Sweep connections with fresh worker responses.
    std::vector<std::uint64_t> ready;
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready.swap(ready_);
    }
    for (const std::uint64_t id : ready) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      std::shared_ptr<MuxConn> conn = it->second;
      if (Flush(conn)) MaybeFinish(conn);
    }

    CheckStalls(std::chrono::steady_clock::now());

    if (draining_ && shutdown_done_.load(std::memory_order_acquire)) {
      // Every admitted request is answered (Shutdown returned), so each
      // connection owes only its buffered bytes. Close the ones that are
      // square; keep ticking until the rest flush or hit the write
      // timeout.
      std::vector<std::shared_ptr<MuxConn>> open;
      open.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) open.push_back(conn);
      for (const auto& conn : open) {
        conn->read_done = true;  // No further submits can be admitted.
        if (Flush(conn)) MaybeFinish(conn);
      }
      if (conns_.empty()) break;
    }
  }

  if (drain_thread_.joinable()) drain_thread_.join();
  close(event_fd_);
  close(epoll_fd_);
  fcntl(options_.listen_fd, F_SETFL, listen_flags);
  return result;
}

/// ServeStream's sink: writes each response straight to the stream
/// (serialized — workers answer concurrently) and counts them, so the pump
/// knows when its connection is square.
class StreamSink final : public ResponseSink {
 public:
  explicit StreamSink(ByteStream* stream) : stream_(stream) {}

  void SendResponse(const ResponseFrame& response) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stream_->Write(EncodeResponseFrame(response)).ok()) {
      Count("serve.write_errors");
    }
    ++responses_;
    answered_cv_.notify_all();
  }

  /// Blocks until `submitted` responses have been sent. After that the
  /// server never touches the stream again, so the caller may destroy it.
  void WaitForResponses(std::uint64_t submitted) {
    std::unique_lock<std::mutex> lock(mu_);
    answered_cv_.wait(lock, [&] { return responses_ >= submitted; });
  }

 private:
  ByteStream* const stream_;
  std::mutex mu_;
  std::condition_variable answered_cv_;
  std::uint64_t responses_ = 0;
};

}  // namespace

Status ServeStream(BlitzServer* server, ByteStream* stream) {
  const auto sink = std::make_shared<StreamSink>(stream);
  BLITZ_RETURN_IF_ERROR(server->AcceptConnection(*sink));
  RequestFrameReader reader(stream, server->options().wire);
  std::uint64_t submitted = 0;
  Status result = Status::OK();
  for (;;) {
    Result<std::optional<RequestFrame>> frame = reader.Read();
    if (!frame.ok()) {
      result = frame.status();
      server->SubmitProtocolError(*sink, result);
      ++submitted;
      break;
    }
    if (!frame->has_value()) break;  // Clean EOF at a frame boundary.
    ++submitted;
    server->SubmitRequest(sink, std::move(**frame));
  }
  sink->WaitForResponses(submitted);
  return result;
}

Status MuxOptions::Validate() const {
  if (listen_fd < 0) {
    return Status::InvalidArgument("MuxOptions.listen_fd must be a socket");
  }
  if (write_timeout_ms < 0) {
    return Status::InvalidArgument(
        "MuxOptions.write_timeout_ms must be >= 0");
  }
  if (max_connections < 0) {
    return Status::InvalidArgument(
        "MuxOptions.max_connections must be >= 0");
  }
  return Status::OK();
}

Status ServeMultiplexed(BlitzServer* server, const MuxOptions& options) {
  Multiplexer mux(server, options);
  return mux.Run();
}

}  // namespace blitz
