#include "net/frame.h"

#include "core/crc32.h"

namespace fedfc::net {

namespace {

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xFF));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               static_cast<uint16_t>(p[1]) << 8);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Validates the fixed 16-byte header and returns (task_len, body_len).
/// Shared by the buffer and stream decoders so every entry point applies the
/// identical caps *before* any allocation happens.
struct HeaderFields {
  FrameType type = FrameType::kRequest;
  StatusCode status_code = StatusCode::kOk;
  uint32_t task_len = 0;
  uint32_t body_len = 0;
  uint32_t client_index = 0;
};

Result<HeaderFields> ParseHeader(const uint8_t* header) {
  if (GetU32(header) != kFrameMagic) {
    return Status::InvalidArgument("frame: bad magic");
  }
  if (GetU16(header + 4) != kProtocolVersion) {
    return Status::InvalidArgument(
        "frame: protocol version " + std::to_string(GetU16(header + 4)) +
        " != " + std::to_string(kProtocolVersion));
  }
  HeaderFields h;
  const uint8_t type = header[6];
  if (type > static_cast<uint8_t>(FrameType::kShutdown)) {
    return Status::InvalidArgument("frame: unknown frame type " +
                                   std::to_string(type));
  }
  h.type = static_cast<FrameType>(type);
  const uint8_t code = header[7];
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("frame: unknown status code " +
                                   std::to_string(code));
  }
  h.status_code = static_cast<StatusCode>(code);
  if (h.type != FrameType::kError && h.status_code != StatusCode::kOk) {
    return Status::InvalidArgument("frame: non-error frame carries status code");
  }
  h.task_len = GetU32(header + 8);
  h.body_len = GetU32(header + 12);
  h.client_index = GetU32(header + 16);
  if (h.task_len > kMaxTaskBytes) {
    return Status::InvalidArgument("frame: task length " +
                                   std::to_string(h.task_len) + " exceeds cap");
  }
  if (h.body_len > kMaxBodyBytes) {
    return Status::InvalidArgument("frame: body length " +
                                   std::to_string(h.body_len) + " exceeds cap");
  }
  return h;
}

}  // namespace

// The implementation lives in core/crc32 (shared with the model-registry
// manifests); this alias keeps the historical net::Crc32 spelling for tests
// and benches.
uint32_t Crc32(const uint8_t* data, size_t len) {
  return ::fedfc::Crc32(data, len);
}

size_t EncodedFrameSize(const Frame& frame) {
  return kFrameHeaderBytes + frame.task.size() + frame.body.size() +
         kFrameTrailerBytes;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(EncodedFrameSize(frame));
  PutU32(&out, kFrameMagic);
  PutU16(&out, kProtocolVersion);
  out.push_back(static_cast<uint8_t>(frame.type));
  out.push_back(static_cast<uint8_t>(frame.status_code));
  PutU32(&out, static_cast<uint32_t>(frame.task.size()));
  PutU32(&out, static_cast<uint32_t>(frame.body.size()));
  PutU32(&out, frame.client_index);
  out.insert(out.end(), frame.task.begin(), frame.task.end());
  out.insert(out.end(), frame.body.begin(), frame.body.end());
  PutU32(&out, Crc32(out.data(), out.size()));
  return out;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Status::InvalidArgument("frame: truncated header");
  }
  FEDFC_ASSIGN_OR_RETURN(HeaderFields h, ParseHeader(bytes.data()));
  // 64-bit arithmetic: the declared lengths cannot overflow the total.
  const uint64_t expected = static_cast<uint64_t>(kFrameHeaderBytes) +
                            h.task_len + h.body_len + kFrameTrailerBytes;
  if (bytes.size() < expected) {
    return Status::InvalidArgument("frame: declared lengths exceed buffer");
  }
  if (bytes.size() > expected) {
    return Status::InvalidArgument("frame: trailing bytes");
  }
  const size_t crc_offset = bytes.size() - kFrameTrailerBytes;
  const uint32_t declared_crc = GetU32(bytes.data() + crc_offset);
  const uint32_t actual_crc = Crc32(bytes.data(), crc_offset);
  if (declared_crc != actual_crc) {
    return Status::InvalidArgument("frame: CRC mismatch");
  }
  Frame frame;
  frame.type = h.type;
  frame.status_code = h.status_code;
  frame.client_index = h.client_index;
  const uint8_t* task_begin = bytes.data() + kFrameHeaderBytes;
  frame.task.assign(task_begin, task_begin + h.task_len);
  const uint8_t* body_begin = task_begin + h.task_len;
  frame.body.assign(body_begin, body_begin + h.body_len);
  return frame;
}

Frame MakeErrorFrame(const std::string& task, const Status& status) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.status_code = status.ok() ? StatusCode::kInternal : status.code();
  frame.task = task;
  frame.body.assign(status.message().begin(), status.message().end());
  return frame;
}

Status ErrorFrameStatus(const Frame& frame) {
  if (frame.type != FrameType::kError) {
    return Status::InvalidArgument("frame: not an error frame");
  }
  return Status(frame.status_code,
                std::string(frame.body.begin(), frame.body.end()));
}

Status WriteFrame(Socket& socket, const Frame& frame, int timeout_ms) {
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  return socket.SendAll(bytes.data(), bytes.size(), timeout_ms);
}

Result<Frame> ReadFrame(Socket& socket, int timeout_ms) {
  uint8_t header[kFrameHeaderBytes];
  FEDFC_RETURN_IF_ERROR(socket.RecvAll(header, kFrameHeaderBytes, timeout_ms));
  FEDFC_ASSIGN_OR_RETURN(HeaderFields h, ParseHeader(header));
  // The caps above bound this allocation at ~256 MiB + 4 KiB.
  std::vector<uint8_t> rest(static_cast<size_t>(h.task_len) + h.body_len +
                            kFrameTrailerBytes);
  FEDFC_RETURN_IF_ERROR(socket.RecvAll(rest.data(), rest.size(), timeout_ms));
  const size_t crc_offset = rest.size() - kFrameTrailerBytes;
  uint32_t crc = Crc32Update(kCrc32Initial, header, kFrameHeaderBytes);
  crc = Crc32Update(crc, rest.data(), crc_offset) ^ kCrc32Final;
  const uint32_t declared_crc = GetU32(rest.data() + crc_offset);
  if (crc != declared_crc) {
    return Status::InvalidArgument("frame: CRC mismatch");
  }
  Frame frame;
  frame.type = h.type;
  frame.status_code = h.status_code;
  frame.client_index = h.client_index;
  frame.task.assign(rest.begin(),
                    rest.begin() + static_cast<std::ptrdiff_t>(h.task_len));
  frame.body.assign(
      rest.begin() + static_cast<std::ptrdiff_t>(h.task_len),
      rest.begin() + static_cast<std::ptrdiff_t>(h.task_len + h.body_len));
  return frame;
}

Result<Frame> RoundTripFrame(Socket& socket, const Frame& request,
                             int timeout_ms) {
  Status sent = WriteFrame(socket, request, timeout_ms);
  if (!sent.ok()) {
    socket.Close();
    return sent;
  }
  Result<Frame> reply = ReadFrame(socket, timeout_ms);
  if (!reply.ok()) {
    socket.Close();
    return reply;
  }
  const bool answers =
      (reply->type == FrameType::kReply || reply->type == FrameType::kError) &&
      reply->client_index == request.client_index &&
      reply->task == request.task;
  if (!answers) {
    socket.Close();
    std::string message =
        "frame stream out of sync: reply for slot " +
        std::to_string(reply->client_index) + " task '" + reply->task +
        "' to a request for slot " + std::to_string(request.client_index) +
        " task '" + request.task + "'";
    if (reply->type == FrameType::kError) {
      message += ": " + ErrorFrameStatus(*reply).ToString();
    }
    return Status::Internal(message);
  }
  if (reply->type == FrameType::kError) return ErrorFrameStatus(*reply);
  return reply;
}

}  // namespace fedfc::net
