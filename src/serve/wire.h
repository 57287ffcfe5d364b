#ifndef BLITZ_SERVE_WIRE_H_
#define BLITZ_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/stream.h"

namespace blitz {

/// The blitzd wire protocol ("blitz-serve-v1"): length-framed .bjq requests
/// and status-coded responses over any ByteStream. Each frame is one ASCII
/// header line followed by exactly `body_bytes` bytes of payload, so a
/// reader never scans untrusted bytes for a delimiter beyond the (bounded)
/// header:
///
///   request:   blitzq1 <tenant> <id> <body_bytes> [deadline_ms=<ms>]\n
///              <body: a .bjq document>
///   response:  blitzr1 <id> <StatusCodeName> <body_bytes>
///                  [retry_after_ms=<ms>]\n
///              <body: reply lines on OK, the error message otherwise>
///
/// `id` is a client-chosen request identifier echoed in the response;
/// responses may arrive out of request order (workers finish when they
/// finish), so pipelining clients match on it. `tenant` names the admission
/// bucket ([A-Za-z0-9_.-]). retry_after_ms rides on shed responses
/// (kResourceExhausted / kUnavailable) as the server's backoff hint.
///
/// An OK response body is line-oriented:
///
///   plan <paper-notation plan string>
///   cost <double>
///   tier <exhaustive|hybrid|greedy>
///   passes <int>
///   degradations <int>
///   estimator <paper|hist|noest>
///
/// `estimator` names the cardinality estimator the plan was optimized
/// under (card/estimator.h). Readers treat it as optional — replies from
/// servers predating the field simply omit it — which is the protocol's
/// forward-extensibility rule at work: unknown keys are ignored, absent
/// optional keys default.
///
/// A reply answered from the server's plan cache additionally carries
///
///   cached 1
///
/// with `tier` still naming the tier that *originally* produced the plan —
/// cache hits preserve provenance rather than inventing a new tier. The
/// line is omitted (not "cached 0") on fresh answers, so old readers are
/// unaffected.
///
/// Introspection: a request whose body is exactly `/statz` (kStatzBody) is
/// answered inline — no admission, no queueing, works while draining —
/// with an OK frame whose body is the forward-extensible statz text: a
/// `blitz-statz-v1` magic line followed by one `<key> <value>` pair per
/// line (admission, queue, worker, cache, and latency counters; see
/// BlitzServer::StatzBody). Readers ignore unknown keys.
///
/// Malformed or over-limit headers are a *connection*-level failure
/// (kInvalidArgument / kResourceExhausted from the frame reader): the
/// stream can no longer be trusted to be frame-aligned, so the server
/// answers once with id 0 and closes. Body-level problems (bad .bjq) are
/// request-level and answered normally.

/// True iff `tenant` fits the wire charset: 1-64 chars of [A-Za-z0-9_.-].
/// Tenant names travel unquoted in the space-delimited request header, so
/// anything outside this set (a space, a newline) would desync the framing;
/// both the server's parser and the client's Send validate against it.
bool IsValidTenantName(std::string_view tenant);

/// Size caps a frame reader enforces before trusting any length field.
struct WireLimits {
  std::uint64_t max_body_bytes = 1ull << 20;
  std::size_t max_header_bytes = 1024;
};

/// The body of the introspection request answered by BlitzServer with its
/// statz counters (see the protocol comment above).
inline constexpr std::string_view kStatzBody = "/statz";

/// Magic first line of a statz reply body.
inline constexpr std::string_view kStatzMagic = "blitz-statz-v1";

struct RequestFrame {
  std::string tenant = "default";
  std::uint64_t id = 0;
  double deadline_ms = 0;  ///< 0 = no per-request deadline.
  std::string body;
};

struct ResponseFrame {
  std::uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  double retry_after_ms = 0;  ///< > 0 only on shed responses.
  std::string body;
};

std::string EncodeRequestFrame(const RequestFrame& frame);
std::string EncodeResponseFrame(const ResponseFrame& frame);

/// Parses one request header line (everything before the '\n', magic
/// included) into the frame's header fields plus the body byte count the
/// sender declared.
Result<RequestFrame> ParseRequestHeader(std::string_view line,
                                        std::uint64_t* body_bytes);

/// Response-side counterpart of ParseRequestHeader.
Result<ResponseFrame> ParseResponseHeader(std::string_view line,
                                          std::uint64_t* body_bytes);

/// Incremental frame reassembly — the one frame parser: bytes go in as
/// they arrive off the wire, complete frames come out. The state machine
/// has two states — accumulating a header line (bounded by
/// max_header_bytes) and accumulating a body (bounded by max_body_bytes,
/// checked before a single body byte is buffered). The epoll multiplexer
/// feeds it directly and the blocking FrameReader wraps it, so both
/// enforce the same limits by construction: any error means the stream is
/// no longer frame-aligned and the connection must end after one id-0
/// response.
///
/// `Header` is the per-frame header type (RequestFrame or ResponseFrame).
template <typename Header>
class FrameAssembler {
 public:
  explicit FrameAssembler(const WireLimits& limits) : limits_(limits) {}

  /// Appends raw bytes and appends every frame they complete to `frames`
  /// (possibly none, possibly several). A non-OK status poisons the
  /// assembler: further Feed calls return the same error.
  Status Feed(std::string_view bytes, std::vector<Header>* frames);

  /// True while a partially received frame is buffered — EOF here means
  /// the peer died mid-frame, not at a frame boundary.
  bool mid_frame() const { return !buffer_.empty() || in_body_; }

  /// The end-of-stream verdict: OK at a frame boundary, the
  /// connection-level "stream ended mid-frame" error otherwise.
  Status AtEndOfStream() const {
    return mid_frame() ? Status::InvalidArgument("stream ended mid-frame")
                       : Status::OK();
  }

 private:
  const WireLimits limits_;
  std::string buffer_;     ///< Header bytes (kHeader) or body bytes (kBody).
  Header pending_{};       ///< Parsed header awaiting its body.
  std::uint64_t body_bytes_ = 0;
  bool in_body_ = false;
  Status error_ = Status::OK();
};

using RequestFrameAssembler = FrameAssembler<RequestFrame>;
using ResponseFrameAssembler = FrameAssembler<ResponseFrame>;

/// Blocking frame reader over a ByteStream (one per connection side): a
/// short loop that reads a chunk, feeds the FrameAssembler, and hands back
/// queued frames one at a time. `Header` is RequestFrame or ResponseFrame.
template <typename Header>
class FrameReader {
 public:
  FrameReader(ByteStream* stream, const WireLimits& limits)
      : stream_(stream), assembler_(limits) {}

  /// Next frame; nullopt on clean end-of-stream at a frame boundary.
  /// Errors mean the stream is no longer frame-aligned (EOF mid-frame
  /// included). Frames that arrived ahead of a framing error are returned
  /// before the error.
  Result<std::optional<Header>> Read();

 private:
  ByteStream* stream_;
  FrameAssembler<Header> assembler_;
  std::vector<Header> frames_;  ///< Reassembled, not yet returned.
  std::size_t next_ = 0;        ///< Index of the next frame to return.
  Status error_ = Status::OK();  ///< Sticky framing error.
};

using RequestFrameReader = FrameReader<RequestFrame>;
using ResponseFrameReader = FrameReader<ResponseFrame>;

/// The parsed payload of an OK response body.
struct ServeReply {
  std::string plan;
  double cost = 0;
  std::string tier;
  int passes = 1;
  int degradations = 0;
  /// Estimator the plan was optimized under; empty when the server did not
  /// send the (optional) line.
  std::string estimator;

  /// True when the plan was answered from the server's plan cache. `tier`
  /// still names the tier that originally produced the stored plan.
  bool cached = false;
};

/// Formats/parses the OK response body (see the line format above).
std::string EncodeReplyBody(const ServeReply& reply);
Result<ServeReply> ParseReplyBody(std::string_view body);

}  // namespace blitz

#endif  // BLITZ_SERVE_WIRE_H_
