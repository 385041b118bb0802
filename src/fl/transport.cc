#include "fl/transport.h"

namespace fedfc::fl {

Result<Payload> InProcessTransport::Execute(size_t client_index,
                                            const std::string& task,
                                            const Payload& request) {
  if (client_index >= clients_.size()) {
    return Status::OutOfRange("transport: no such client");
  }
  // Round-trip through the wire format in both directions.
  std::vector<uint8_t> request_bytes = request.Serialize();
  {
    MutexLock lock(stats_mutex_);
    stats_.messages += 1;
    stats_.bytes_to_clients += request_bytes.size() + task.size();
  }
  FEDFC_ASSIGN_OR_RETURN(Payload decoded_request,
                         Payload::Deserialize(request_bytes));
  Result<Payload> handled = clients_[client_index]->Handle(task, decoded_request);
  if (!handled.ok()) {
    MutexLock lock(stats_mutex_);
    if (handled.status().code() == StatusCode::kDeadlineExceeded) {
      stats_.timeouts += 1;
    } else {
      stats_.failures += 1;
    }
    return handled.status();
  }
  std::vector<uint8_t> reply_bytes = handled->Serialize();
  {
    MutexLock lock(stats_mutex_);
    stats_.bytes_to_server += reply_bytes.size();
  }
  return Payload::Deserialize(reply_bytes);
}

}  // namespace fedfc::fl
