#include "net/frame_server.h"

#include "core/logging.h"

namespace fedfc::net {

Status FrameServer::Serve(const Handler& handler) {
  while (!stopped()) {
    Result<Socket> conn = listener_.Accept(poll_interval_ms_);
    if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
    if (!conn.ok()) return conn.status();
    ServeConnection(std::move(*conn), handler);
  }
  return Status::OK();
}

void FrameServer::ServeConnection(Socket conn, const Handler& handler) {
  while (!stopped()) {
    Status readable = conn.WaitReadable(poll_interval_ms_);
    if (readable.code() == StatusCode::kDeadlineExceeded) continue;  // Idle.
    if (!readable.ok()) return;  // Peer gone.
    Result<Frame> frame = ReadFrame(conn, io_timeout_ms_);
    if (!frame.ok()) {
      // EOF, a half-dead peer, or garbled framing (bad magic, unknown
      // protocol version, CRC mismatch, oversized declared lengths): answer
      // with the typed decode error (best effort), then drop the connection,
      // because the byte stream can no longer be trusted. A client
      // reconnects and retries.
      Status sent = WriteFrame(conn, MakeErrorFrame("", frame.status()),
                               io_timeout_ms_);
      FEDFC_LOG(Debug) << "frame server: dropping connection: "
                       << frame.status()
                       << (sent.ok() ? "" : " (error reply also failed)");
      return;
    }
    if (frame->type == FrameType::kShutdown) {
      RequestStop();
      return;
    }
    Status sent = WriteFrame(conn, Answer(*frame, handler), io_timeout_ms_);
    if (!sent.ok()) {
      FEDFC_LOG(Debug) << "frame server: reply failed: " << sent;
      return;
    }
  }
}

Frame FrameServer::Answer(const Frame& frame, const Handler& handler) const {
  Result<fl::Payload> reply = [&]() -> Result<fl::Payload> {
    if (frame.type != FrameType::kRequest) {
      return Status::InvalidArgument("frame server: expected a request frame");
    }
    Result<fl::Payload> request = fl::Payload::Deserialize(frame.body);
    if (!request.ok()) return request.status();
    return handler(frame.client_index, frame.task, *request);
  }();
  Frame out;
  if (reply.ok()) {
    out.type = FrameType::kReply;
    out.task = frame.task;
    out.body = reply->Serialize();
  } else {
    out = MakeErrorFrame(frame.task, reply.status());
  }
  out.client_index = frame.client_index;
  return out;
}

}  // namespace fedfc::net
