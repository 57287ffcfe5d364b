#ifndef BLITZ_SERVE_STREAM_H_
#define BLITZ_SERVE_STREAM_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace blitz {

/// A blocking, bidirectional byte stream: the transport under the client
/// and the blocking server pump (ServeStream, serve/mux.h), which speak
/// frames (serve/wire.h) over it. Concrete transports are a POSIX fd pair
/// (sockets, pipes, stdio) and an in-memory duplex for tests and
/// closed-loop benchmarks.
///
/// Threading contract: one reader thread and one writer thread may use a
/// stream concurrently (the serving pattern: a connection's reader loop
/// plus whichever worker finishes a response), but Read must not race Read
/// and Write must not race Write — callers serialize their own side.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Reads up to `len` bytes into `buf`; blocks until at least one byte is
  /// available. Returns the byte count, 0 on end-of-stream.
  virtual Result<std::size_t> Read(char* buf, std::size_t len) = 0;

  /// Writes all of `data` (blocking). kUnavailable once the peer is gone.
  virtual Status Write(std::string_view data) = 0;

  /// Half-close: signals end-of-stream to the peer's reader while leaving
  /// this side's reader open (the drain handshake).
  virtual void CloseWrite() = 0;

  /// Full close; unblocks any reader with end-of-stream.
  virtual void Close() = 0;
};

/// A ByteStream over POSIX file descriptors. `read_fd` and `write_fd` may
/// be the same (a socket) or distinct (a pipe pair / stdio). When
/// `wake_fd` >= 0, a readable wake_fd aborts a blocked Read with
/// end-of-stream — the daemon's SIGTERM self-pipe, which turns "blocked in
/// read(2) forever" into a clean drain. When `write_timeout_ms` > 0, a
/// Write whose peer stops consuming (full socket send buffer / pipe) fails
/// with kUnavailable after that long instead of blocking forever — the
/// bound that keeps a stalled client from parking a server worker, and the
/// drain behind it, indefinitely. 0 = block until the peer reads or dies.
/// Owns read_fd/write_fd iff `own_fds`; never owns wake_fd.
class FdStream : public ByteStream {
 public:
  FdStream(int read_fd, int write_fd, bool own_fds, int wake_fd = -1,
           double write_timeout_ms = 0);
  ~FdStream() override;

  Result<std::size_t> Read(char* buf, std::size_t len) override;
  Status Write(std::string_view data) override;
  void CloseWrite() override;
  void Close() override;

 private:
  int read_fd_;
  int write_fd_;
  const bool own_fds_;
  const int wake_fd_;
  const double write_timeout_ms_;
  bool socket_send_ = true;  ///< Until send(2) says ENOTSOCK.
};

/// An in-memory duplex pipe: Create() returns two connected endpoints, each
/// a full ByteStream; bytes written to one are read from the other through
/// a bounded buffer (blocking both ways). The unit-test and bench
/// transport — no sockets, no fds, sanitizer-friendly.
std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
CreateDuplexPipe(std::size_t buffer_capacity = 1 << 16);

}  // namespace blitz

#endif  // BLITZ_SERVE_STREAM_H_
