#include "net/tcp_transport.h"

#include "core/logging.h"
#include "fl/task_codec.h"

namespace fedfc::net {

TcpTransport::TcpTransport(std::vector<WorkerEndpoint> endpoints,
                           TcpTransportOptions options)
    : endpoints_(std::move(endpoints)), options_(options) {
  connections_.reserve(endpoints_.size());
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    connections_.push_back(std::make_unique<Connection>());
    for (size_t slot = 0; slot < endpoints_[e].num_clients; ++slot) {
      routes_.push_back({e, static_cast<uint32_t>(slot)});
    }
  }
}

Result<Frame> TcpTransport::RoundTrip(size_t client_index,
                                      const Frame& request) {
  const Route& route = routes_[client_index];
  Connection& conn = *connections_[route.endpoint];
  MutexLock lock(conn.mutex);
  if (!conn.socket.valid()) {
    const WorkerEndpoint& ep = endpoints_[route.endpoint];
    Result<Socket> connected =
        Socket::ConnectTcp(ep.host, ep.port, options_.connect_timeout_ms);
    if (!connected.ok()) return connected.status();
    conn.socket = std::move(*connected);
  }
  return RoundTripFrame(conn.socket, request, options_.io_timeout_ms);
}

void TcpTransport::CountFailure(const Status& status) {
  MutexLock lock(stats_mutex_);
  if (status.code() == StatusCode::kDeadlineExceeded) {
    stats_.timeouts += 1;
  } else {
    stats_.failures += 1;
  }
}

Result<fl::Payload> TcpTransport::Execute(size_t client_index,
                                          const std::string& task,
                                          const fl::Payload& request) {
  if (client_index >= routes_.size()) {
    return Status::OutOfRange("transport: no such client");
  }
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.client_index = routes_[client_index].slot;
  frame.task = task;
  frame.body = request.Serialize();
  {
    MutexLock lock(stats_mutex_);
    stats_.messages += 1;
    stats_.bytes_to_clients += EncodedFrameSize(frame);
  }
  Result<Frame> reply = RoundTrip(client_index, frame);
  if (!reply.ok()) {
    CountFailure(reply.status());
    return reply.status();
  }
  {
    MutexLock lock(stats_mutex_);
    stats_.bytes_to_server += EncodedFrameSize(*reply);
  }
  Result<fl::Payload> decoded = fl::Payload::Deserialize(reply->body);
  if (!decoded.ok()) CountFailure(decoded.status());
  return decoded;
}

fl::TransportStats TcpTransport::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

Result<std::vector<size_t>> TcpTransport::QueryNumExamples() {
  std::vector<size_t> sizes;
  sizes.reserve(routes_.size());
  for (size_t j = 0; j < routes_.size(); ++j) {
    FEDFC_ASSIGN_OR_RETURN(
        fl::Payload reply,
        Execute(j, fl::tasks::kNumExamples, fl::Payload()));
    FEDFC_ASSIGN_OR_RETURN(fl::NumExamplesReply decoded,
                           fl::NumExamplesReply::FromPayload(reply));
    if (decoded.n_examples < 0) {
      return Status::Internal("transport: negative example count from client " +
                              std::to_string(j));
    }
    sizes.push_back(static_cast<size_t>(decoded.n_examples));
  }
  return sizes;
}

Status TcpTransport::ShutdownWorker(size_t client_index) {
  if (client_index >= routes_.size()) {
    return Status::OutOfRange("transport: no such client");
  }
  const Route& route = routes_[client_index];
  Connection& conn = *connections_[route.endpoint];
  MutexLock lock(conn.mutex);
  if (!conn.socket.valid()) {
    const WorkerEndpoint& ep = endpoints_[route.endpoint];
    Result<Socket> connected =
        Socket::ConnectTcp(ep.host, ep.port, options_.connect_timeout_ms);
    if (!connected.ok()) return connected.status();
    conn.socket = std::move(*connected);
  }
  Frame frame;
  frame.type = FrameType::kShutdown;
  Status sent = WriteFrame(conn.socket, frame, options_.io_timeout_ms);
  conn.socket.Close();
  return sent;
}

}  // namespace fedfc::net
