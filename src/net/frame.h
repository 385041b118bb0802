#ifndef FEDFC_NET_FRAME_H_
#define FEDFC_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/status.h"
#include "net/socket.h"

namespace fedfc::net {

/// Wire framing for the federated protocol. One frame carries one message:
/// a task request, its reply, a typed error, or the shutdown control signal.
///
///   offset  size  field
///        0     4  magic 0xFEDF0C01 (little-endian)
///        4     2  protocol version (little-endian)
///        6     1  frame type (FrameType)
///        7     1  status code (StatusCode; non-zero only on error frames)
///        8     4  task length in bytes (little-endian)
///       12     4  body length in bytes (little-endian)
///       16     4  client index (little-endian) — which of the worker's
///                 hosted clients this message addresses; replies echo it.
///                 Single-client workers only ever see index 0.
///       20     …  task id (UTF-8, no terminator)
///        …     …  body: serialized fl::Payload (request/reply) or the
///                 error message (error frames); empty on shutdown
///     last     4  CRC32 (IEEE, little-endian) over every preceding byte
///
/// Version history: v1 had a 16-byte header without the client index; v2
/// appended the client-index word so one worker process can host many
/// clients behind one listener. v2 peers reject v1 frames (and vice versa)
/// on the version check — the protocol is not mixed-version.
///
/// Decoding is strict: wrong magic/version, unknown type or status code,
/// declared lengths above the caps or beyond the buffer, CRC mismatch, and
/// trailing bytes are all typed errors — never a crash or an over-allocation
/// (lengths are validated against the remaining bytes before any resize).
inline constexpr uint32_t kFrameMagic = 0xFEDF0C01;
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr size_t kFrameTrailerBytes = 4;  ///< The CRC32.
/// Task ids are short protocol strings; anything larger is garbage.
inline constexpr uint32_t kMaxTaskBytes = 1u << 12;
/// Payload cap (256 MiB) — bounds what a malicious peer can make us allocate.
inline constexpr uint32_t kMaxBodyBytes = 1u << 28;

enum class FrameType : uint8_t {
  kRequest = 0,
  kReply = 1,
  kError = 2,
  kShutdown = 3,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  /// Meaningful only when `type == kError` (kOk otherwise).
  StatusCode status_code = StatusCode::kOk;
  /// Which of the receiving worker's hosted clients this message addresses
  /// (worker-local slot, not the federation-global index). Replies and error
  /// frames echo the request's index so the server can match them up.
  uint32_t client_index = 0;
  std::string task;
  std::vector<uint8_t> body;

  bool operator==(const Frame& other) const {
    return type == other.type && status_code == other.status_code &&
           client_index == other.client_index && task == other.task &&
           body == other.body;
  }
};

/// CRC32 (IEEE 802.3, reflected) — exposed for tests and benches.
uint32_t Crc32(const uint8_t* data, size_t len);

/// Total encoded size of `frame` on the wire.
size_t EncodedFrameSize(const Frame& frame);

std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Strict bounds-checked decode of one complete frame (see the layout
/// comment for everything it rejects).
Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes);

/// Error frame carrying `status` back to the caller, and its inverse.
Frame MakeErrorFrame(const std::string& task, const Status& status);
Status ErrorFrameStatus(const Frame& frame);

/// Writes one frame to a connected socket within `timeout_ms`.
Status WriteFrame(Socket& socket, const Frame& frame, int timeout_ms);

/// Reads one frame from a connected socket within `timeout_ms`, validating
/// the header caps before allocating and the CRC after reading.
Result<Frame> ReadFrame(Socket& socket, int timeout_ms);

/// The client half of one request/reply exchange, shared by every client of
/// a FrameServer: writes `request`, reads one frame, and checks that it
/// answers the request — a kReply or kError frame echoing the request's
/// slot and task. A kError answer comes back as its carried Status, and the
/// connection stays usable. A failed write or read, or a frame that does
/// not answer the request, closes `socket`: its stream may hold a partial
/// frame or is out of sync (a stale reply, or the server's garbled-frame
/// error reply, which echoes neither slot nor task), so the caller must
/// reconnect.
Result<Frame> RoundTripFrame(Socket& socket, const Frame& request,
                             int timeout_ms);

}  // namespace fedfc::net

#endif  // FEDFC_NET_FRAME_H_
