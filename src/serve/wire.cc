#include "serve/wire.h"

#include <cctype>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace blitz {

namespace {

constexpr std::string_view kRequestMagic = "blitzq1";
constexpr std::string_view kResponseMagic = "blitzr1";

bool ParseUint64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Parses the optional trailing "<key>=<ms>" field shared by both headers.
bool ParseMsField(std::string_view field, std::string_view key, double* out) {
  if (!StartsWith(field, key) || field.size() <= key.size() ||
      field[key.size()] != '=') {
    return false;
  }
  double value = 0;
  if (!ParseDouble(field.substr(key.size() + 1), &value) || !(value >= 0) ||
      value > 1e12) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool IsValidTenantName(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (const char c : tenant) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string EncodeRequestFrame(const RequestFrame& frame) {
  std::string header = StrFormat(
      "%.*s %s %llu %llu", static_cast<int>(kRequestMagic.size()),
      kRequestMagic.data(), frame.tenant.c_str(),
      static_cast<unsigned long long>(frame.id),
      static_cast<unsigned long long>(frame.body.size()));
  if (frame.deadline_ms > 0) {
    header += StrFormat(" deadline_ms=%g", frame.deadline_ms);
  }
  header += '\n';
  return header + frame.body;
}

std::string EncodeResponseFrame(const ResponseFrame& frame) {
  std::string header = StrFormat(
      "%.*s %llu %s %llu", static_cast<int>(kResponseMagic.size()),
      kResponseMagic.data(), static_cast<unsigned long long>(frame.id),
      StatusCodeToString(frame.code),
      static_cast<unsigned long long>(frame.body.size()));
  if (frame.retry_after_ms > 0) {
    header += StrFormat(" retry_after_ms=%g", frame.retry_after_ms);
  }
  header += '\n';
  return header + frame.body;
}

Result<RequestFrame> ParseRequestHeader(std::string_view line,
                                        std::uint64_t* body_bytes) {
  const std::vector<std::string> fields = StrSplit(line, ' ');
  if (fields.size() < 4 || fields.size() > 5 || fields[0] != kRequestMagic) {
    return Status::InvalidArgument("malformed request header: " +
                                   std::string(line));
  }
  RequestFrame frame;
  if (!IsValidTenantName(fields[1])) {
    return Status::InvalidArgument("bad tenant name: " + fields[1]);
  }
  frame.tenant = fields[1];
  if (!ParseUint64(fields[2], &frame.id) ||
      !ParseUint64(fields[3], body_bytes)) {
    return Status::InvalidArgument("malformed request header: " +
                                   std::string(line));
  }
  if (fields.size() == 5 &&
      !ParseMsField(fields[4], "deadline_ms", &frame.deadline_ms)) {
    return Status::InvalidArgument("bad request field: " + fields[4]);
  }
  return frame;
}

Result<ResponseFrame> ParseResponseHeader(std::string_view line,
                                          std::uint64_t* body_bytes) {
  const std::vector<std::string> fields = StrSplit(line, ' ');
  if (fields.size() < 4 || fields.size() > 5 ||
      fields[0] != kResponseMagic) {
    return Status::InvalidArgument("malformed response header: " +
                                   std::string(line));
  }
  ResponseFrame frame;
  if (!ParseUint64(fields[1], &frame.id) ||
      !ParseUint64(fields[3], body_bytes)) {
    return Status::InvalidArgument("malformed response header: " +
                                   std::string(line));
  }
  const std::optional<StatusCode> code = StatusCodeFromString(fields[2]);
  if (!code.has_value()) {
    return Status::InvalidArgument("unknown status code: " + fields[2]);
  }
  frame.code = *code;
  if (fields.size() == 5 &&
      !ParseMsField(fields[4], "retry_after_ms", &frame.retry_after_ms)) {
    return Status::InvalidArgument("bad response field: " + fields[4]);
  }
  return frame;
}

template <typename Header>
Status FrameAssembler<Header>::Feed(std::string_view bytes,
                                    std::vector<Header>* frames) {
  if (!error_.ok()) return error_;
  while (!bytes.empty() || (in_body_ && buffer_.size() >= body_bytes_)) {
    if (!in_body_) {
      const std::size_t newline = bytes.find('\n');
      if (newline == std::string_view::npos) {
        buffer_.append(bytes);
        bytes = {};
        if (buffer_.size() > limits_.max_header_bytes) {
          error_ = Status::InvalidArgument(StrFormat(
              "frame header exceeds %zu bytes", limits_.max_header_bytes));
          return error_;
        }
        break;
      }
      buffer_.append(bytes.substr(0, newline));
      bytes.remove_prefix(newline + 1);
      if (buffer_.size() > limits_.max_header_bytes) {
        error_ = Status::InvalidArgument(StrFormat(
            "frame header exceeds %zu bytes", limits_.max_header_bytes));
        return error_;
      }
      Result<Header> header = [&]() -> Result<Header> {
        if constexpr (std::is_same_v<Header, RequestFrame>) {
          return ParseRequestHeader(buffer_, &body_bytes_);
        } else {
          return ParseResponseHeader(buffer_, &body_bytes_);
        }
      }();
      if (!header.ok()) {
        error_ = header.status();
        return error_;
      }
      if (body_bytes_ > limits_.max_body_bytes) {
        error_ = Status::ResourceExhausted(StrFormat(
            "frame body of %llu bytes exceeds the %llu-byte limit",
            static_cast<unsigned long long>(body_bytes_),
            static_cast<unsigned long long>(limits_.max_body_bytes)));
        return error_;
      }
      pending_ = std::move(*header);
      buffer_.clear();
      in_body_ = true;
      continue;
    }
    const std::size_t want = static_cast<std::size_t>(body_bytes_);
    if (buffer_.size() < want) {
      const std::size_t take = std::min(want - buffer_.size(), bytes.size());
      buffer_.append(bytes.substr(0, take));
      bytes.remove_prefix(take);
    }
    if (buffer_.size() < want) break;
    pending_.body = std::move(buffer_);
    frames->push_back(std::move(pending_));
    pending_ = Header{};
    buffer_.clear();
    body_bytes_ = 0;
    in_body_ = false;
  }
  return Status::OK();
}

template class FrameAssembler<RequestFrame>;
template class FrameAssembler<ResponseFrame>;

template <typename Header>
Result<std::optional<Header>> FrameReader<Header>::Read() {
  while (next_ == frames_.size()) {
    if (!error_.ok()) return error_;
    frames_.clear();
    next_ = 0;
    char chunk[64 * 1024];
    Result<std::size_t> n = stream_->Read(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      BLITZ_RETURN_IF_ERROR(assembler_.AtEndOfStream());
      return std::optional<Header>();  // Clean EOF at a frame boundary.
    }
    error_ = assembler_.Feed(std::string_view(chunk, *n), &frames_);
  }
  return std::optional<Header>(std::move(frames_[next_++]));
}

template class FrameReader<RequestFrame>;
template class FrameReader<ResponseFrame>;

std::string EncodeReplyBody(const ServeReply& reply) {
  std::string out;
  out += "plan " + reply.plan + "\n";
  out += StrFormat("cost %.17g\n", reply.cost);
  out += "tier " + reply.tier + "\n";
  out += StrFormat("passes %d\n", reply.passes);
  out += StrFormat("degradations %d\n", reply.degradations);
  if (!reply.estimator.empty()) {
    out += "estimator " + reply.estimator + "\n";
  }
  if (reply.cached) out += "cached 1\n";
  return out;
}

Result<ServeReply> ParseReplyBody(std::string_view body) {
  ServeReply reply;
  bool saw_plan = false;
  bool saw_cost = false;
  bool saw_tier = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string_view::npos) end = body.size();
    const std::string_view line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    const std::string_view key = line.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos ? "" : line.substr(space + 1);
    if (key == "plan") {
      reply.plan = std::string(value);
      saw_plan = true;
    } else if (key == "cost") {
      if (!ParseDouble(value, &reply.cost)) {
        return Status::InvalidArgument("bad reply cost: " +
                                       std::string(value));
      }
      saw_cost = true;
    } else if (key == "tier") {
      reply.tier = std::string(value);
      saw_tier = true;
    } else if (key == "passes") {
      if (!ParseInt(value, &reply.passes)) {
        return Status::InvalidArgument("bad reply passes: " +
                                       std::string(value));
      }
    } else if (key == "degradations") {
      if (!ParseInt(value, &reply.degradations)) {
        return Status::InvalidArgument("bad reply degradations: " +
                                       std::string(value));
      }
    } else if (key == "estimator") {
      reply.estimator = std::string(value);
    } else if (key == "cached") {
      reply.cached = (value == "1" || value == "true");
    }
    // Unknown keys are ignored: the reply body is forward-extensible.
  }
  if (!saw_plan || !saw_cost || !saw_tier) {
    return Status::InvalidArgument("reply body missing plan/cost/tier");
  }
  return reply;
}

}  // namespace blitz
