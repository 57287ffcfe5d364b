#include "serve/stream.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include <limits.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/strings.h"

#ifndef PIPE_BUF
#define PIPE_BUF 512  // The POSIX minimum.
#endif

namespace blitz {

namespace {

/// Whole milliseconds until `deadline`, clamped into [0, INT_MAX] for
/// poll(2). 0 means the deadline has passed.
int MsUntil(std::chrono::steady_clock::time_point deadline) {
  const long long left =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now())
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, INT_MAX));
}

}  // namespace

FdStream::FdStream(int read_fd, int write_fd, bool own_fds, int wake_fd,
                   double write_timeout_ms)
    : read_fd_(read_fd),
      write_fd_(write_fd),
      own_fds_(own_fds),
      wake_fd_(wake_fd),
      write_timeout_ms_(write_timeout_ms) {}

FdStream::~FdStream() { Close(); }

Result<std::size_t> FdStream::Read(char* buf, std::size_t len) {
  for (;;) {
    if (read_fd_ < 0) return std::size_t{0};
    if (wake_fd_ >= 0) {
      // Wait for data or the wake signal; the wake side wins ties so a
      // drain request is honored even under a steady request stream.
      struct pollfd fds[2];
      fds[0] = {wake_fd_, POLLIN, 0};
      fds[1] = {read_fd_, POLLIN, 0};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (fds[0].revents != 0) return std::size_t{0};  // Drain requested.
      if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    }
    const ssize_t n = ::read(read_fd_, buf, len);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return Status::Unavailable(StrFormat("read: %s", std::strerror(errno)));
  }
}

Status FdStream::Write(std::string_view data) {
  const bool bounded = write_timeout_ms_ > 0;
  const std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              bounded ? write_timeout_ms_ : 0));
  const auto timed_out = [&] {
    return Status::Unavailable(
        StrFormat("write timed out after %g ms (peer not reading)",
                  write_timeout_ms_));
  };
  while (!data.empty()) {
    if (write_fd_ < 0) return Status::Unavailable("stream closed");
    ssize_t n;
    if (socket_send_) {
      // MSG_DONTWAIT turns "peer stopped reading" into EAGAIN handled by
      // the bounded poll below, instead of an unbounded block inside
      // send(2) that neither the wake fd nor a cancellation token can
      // interrupt.
      n = ::send(write_fd_, data.data(), data.size(),
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        socket_send_ = false;  // A pipe or file: take the write(2) path.
        continue;
      }
    } else if (bounded) {
      // POLLOUT on a pipe guarantees PIPE_BUF bytes of space, so a write
      // chunked to that after a successful poll cannot block.
      const int wait_ms = MsUntil(deadline);
      if (wait_ms == 0) return timed_out();
      struct pollfd pfd = {write_fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (ready == 0) return timed_out();
      n = ::write(write_fd_, data.data(),
                  std::min<std::size_t>(data.size(), PIPE_BUF));
    } else {
      n = ::write(write_fd_, data.data(), data.size());
    }
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket send buffer full: wait for space, bounded when configured.
      int wait_ms = -1;
      if (bounded) {
        wait_ms = MsUntil(deadline);
        if (wait_ms == 0) return timed_out();
      }
      struct pollfd pfd = {write_fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR) {
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (bounded && ready == 0) return timed_out();
      continue;
    }
    return Status::Unavailable(StrFormat("write: %s", std::strerror(errno)));
  }
  return Status::OK();
}

void FdStream::CloseWrite() {
  if (write_fd_ < 0) return;
  if (write_fd_ == read_fd_) {
    // A socket: shut down just the send side so responses already in the
    // peer's buffer stay readable.
    ::shutdown(write_fd_, SHUT_WR);
    return;
  }
  if (own_fds_) ::close(write_fd_);
  write_fd_ = -1;
}

void FdStream::Close() {
  if (own_fds_) {
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
    if (read_fd_ >= 0) ::close(read_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

namespace {

/// One direction of the in-memory duplex: a bounded byte queue with
/// blocking producer/consumer semantics and half-close.
class PipeBuffer {
 public:
  explicit PipeBuffer(std::size_t capacity) : capacity_(capacity) {}

  Status Write(std::string_view data) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!data.empty()) {
      space_cv_.wait(lock, [&] {
        return bytes_.size() < capacity_ || closed_;
      });
      if (closed_) return Status::Unavailable("pipe closed");
      const std::size_t take =
          std::min(capacity_ - bytes_.size(), data.size());
      bytes_.insert(bytes_.end(), data.begin(), data.begin() + take);
      data.remove_prefix(take);
      data_cv_.notify_all();
    }
    return Status::OK();
  }

  Result<std::size_t> Read(char* buf, std::size_t len) {
    std::unique_lock<std::mutex> lock(mu_);
    data_cv_.wait(lock, [&] { return !bytes_.empty() || closed_; });
    if (bytes_.empty()) return std::size_t{0};  // Closed and drained: EOF.
    const std::size_t got = std::min(len, bytes_.size());
    std::copy_n(bytes_.begin(), got, buf);
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<long>(got));
    space_cv_.notify_all();
    return got;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    data_cv_.notify_all();
    space_cv_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable data_cv_;
  std::condition_variable space_cv_;
  std::deque<char> bytes_;
  bool closed_ = false;
};

/// One endpoint of the duplex: reads from one buffer, writes the other.
class DuplexEndpoint : public ByteStream {
 public:
  DuplexEndpoint(std::shared_ptr<PipeBuffer> in,
                 std::shared_ptr<PipeBuffer> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~DuplexEndpoint() override { Close(); }

  Result<std::size_t> Read(char* buf, std::size_t len) override {
    return in_->Read(buf, len);
  }

  Status Write(std::string_view data) override { return out_->Write(data); }

  void CloseWrite() override { out_->Close(); }

  void Close() override {
    out_->Close();
    in_->Close();
  }

 private:
  std::shared_ptr<PipeBuffer> in_;
  std::shared_ptr<PipeBuffer> out_;
};

}  // namespace

std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
CreateDuplexPipe(std::size_t buffer_capacity) {
  auto a_to_b = std::make_shared<PipeBuffer>(buffer_capacity);
  auto b_to_a = std::make_shared<PipeBuffer>(buffer_capacity);
  return {std::make_unique<DuplexEndpoint>(b_to_a, a_to_b),
          std::make_unique<DuplexEndpoint>(a_to_b, b_to_a)};
}

}  // namespace blitz
