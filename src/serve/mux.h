#ifndef BLITZ_SERVE_MUX_H_
#define BLITZ_SERVE_MUX_H_

#include "common/status.h"
#include "serve/server.h"
#include "serve/stream.h"

namespace blitz {

/// Configuration for ServeMultiplexed.
struct MuxOptions {
  /// Listening socket (unix or TCP). Set nonblocking by the multiplexer;
  /// still owned by the caller.
  int listen_fd = -1;

  /// Optional wake descriptor (the blitzd SIGTERM self-pipe): when it
  /// becomes readable the multiplexer stops accepting, drains the server,
  /// flushes every pending response, closes all connections, and returns.
  int wake_fd = -1;

  /// A connection whose peer accepts no bytes for this long while
  /// responses are pending is closed (the slow-loris bound — same
  /// semantics as FdStream's bounded write path). 0 disables.
  double write_timeout_ms = 5000;

  /// Open-connection cap; accepts beyond it are closed immediately.
  /// 0 = unbounded (the process fd limit is the backstop).
  int max_connections = 0;

  Status Validate() const;
};

/// The two transports over BlitzServer's connection API (AcceptConnection,
/// SubmitRequest, SubmitProtocolError, with a ResponseSink per
/// connection). Both share the per-connection contract: a malformed or
/// over-limit frame is answered once with id 0 and ends the connection
/// after pending responses flush; EOF mid-frame is a protocol error, EOF
/// at a frame boundary is clean; every submitted request is answered
/// exactly once (the server's guarantee — transports only move frames).
/// A connection is square once its sink has sent as many responses as the
/// transport submitted.

/// Serves one blocking ByteStream connection on the calling thread: reads
/// frames (FrameReader), submits each, writes every response through a
/// counting sink, and returns once the stream ended and every submitted
/// frame has been answered. Returns the accept refusal or protocol error
/// that ended the connection, or OK on clean EOF. This pump exists beside
/// the multiplexer because epoll rejects regular files:
/// `blitzd --stdio < frames.bin` needs a blocking reader.
Status ServeStream(BlitzServer* server, ByteStream* stream);

/// Runs an epoll-based connection multiplexer: one event-loop thread owns
/// every socket — nonblocking accept, per-connection incremental frame
/// reassembly (RequestFrameAssembler), and write backpressure via a
/// per-connection outbox with EPOLLOUT arming — so concurrency is bounded
/// by file descriptors, not reader threads. This is what pushes blitzd
/// past the thread-per-connection ceiling to 10k sockets.
///
/// Blocks until drained (wake_fd readable, or a kFailStatus
/// serve.epoll.wait fault — transient kinds skip one cycle). Returns OK on
/// a clean wake-initiated drain, the armed status on a fault-initiated
/// one, or an I/O error if the event loop itself failed.
Status ServeMultiplexed(BlitzServer* server, const MuxOptions& options);

}  // namespace blitz

#endif  // BLITZ_SERVE_MUX_H_
