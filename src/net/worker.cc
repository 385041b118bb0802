#include "net/worker.h"

#include "core/logging.h"
#include "fl/task_codec.h"

namespace fedfc::net {

Result<fl::Payload> WorkerServer::Handle(uint32_t slot, const std::string& task,
                                         const fl::Payload& request) {
  if (slot >= clients_.size()) {
    return Status::InvalidArgument(
        "worker: client index " + std::to_string(slot) +
        " out of range (hosting " + std::to_string(clients_.size()) + ")");
  }
  fl::Client* client = clients_[slot];
  if (task == fl::tasks::kNumExamples) {
    return fl::NumExamplesReply{static_cast<int64_t>(client->num_examples())}
        .ToPayload();
  }
  return client->Handle(task, request);
}

Status WorkerServer::Serve() {
  FEDFC_CHECK(!clients_.empty());
  for (fl::Client* client : clients_) FEDFC_CHECK(client != nullptr);
  return frames_.Serve(
      [this](uint32_t slot, const std::string& task,
             const fl::Payload& request) { return Handle(slot, task, request); });
}

}  // namespace fedfc::net
