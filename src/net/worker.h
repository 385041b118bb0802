#ifndef FEDFC_NET_WORKER_H_
#define FEDFC_NET_WORKER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "fl/client.h"
#include "net/frame_server.h"
#include "net/socket.h"

namespace fedfc::net {

struct WorkerOptions {
  /// Granularity at which the serve loop re-checks its stop flag while idle
  /// (waiting for a connection or for the next frame on one).
  int poll_interval_ms = 200;
  /// Per send/receive deadline once a frame transfer has started.
  int io_timeout_ms = 30000;
};

/// Hosts N fl::Clients behind one listening socket: the worker half of the
/// multi-process deployment (fedfc_worker wraps this behind a CLI; the
/// loopback tests run it on pool threads). Each frame addresses one hosted
/// client by its worker-local slot in the frame header's client-index word;
/// replies echo the slot back. Most deployments host one client per worker
/// (slot 0), but a multiplexed worker lets a 1024-client federation run on
/// a handful of processes.
///
/// Lifecycle: `Serve` runs one net::FrameServer loop, so it accepts one
/// connection at a time; the FrameServer failure contract decides what a
/// bad frame costs. The worker itself only answers requests: the
/// `__num_examples` control task from the addressed client's size,
/// everything else through the client's `Handle`. An out-of-range slot is a
/// typed error reply, not a dropped connection. `kShutdown` (or
/// `RequestStop`, callable from any thread or a signal handler) ends the
/// loop. One connection at a time is exactly the Transport contract: a
/// given client is never driven concurrently — and since all of a worker's
/// clients share its single connection, neither are two clients of the
/// same worker.
class WorkerServer {
 public:
  /// Single-client worker: the common one-process-per-client deployment.
  WorkerServer(Listener listener, fl::Client* client,
               WorkerOptions options = {})
      : WorkerServer(std::move(listener), std::vector<fl::Client*>{client},
                     options) {}

  /// Multiplexed worker hosting `clients[i]` at local slot `i`.
  WorkerServer(Listener listener, std::vector<fl::Client*> clients,
               WorkerOptions options = {})
      : frames_(std::move(listener), options.poll_interval_ms,
                options.io_timeout_ms),
        clients_(std::move(clients)) {}

  [[nodiscard]] uint16_t port() const { return frames_.port(); }
  [[nodiscard]] size_t num_clients() const { return clients_.size(); }

  /// Blocks until a shutdown frame arrives or RequestStop is called.
  /// Returns non-OK only when the listening socket itself fails.
  Status Serve();

  /// Asks the serve loop to exit at its next idle poll. Lock-free and
  /// async-signal-safe (see FrameServer::RequestStop).
  void RequestStop() { frames_.RequestStop(); }

 private:
  Result<fl::Payload> Handle(uint32_t slot, const std::string& task,
                             const fl::Payload& request);

  FrameServer frames_;
  std::vector<fl::Client*> clients_;
};

}  // namespace fedfc::net

#endif  // FEDFC_NET_WORKER_H_
