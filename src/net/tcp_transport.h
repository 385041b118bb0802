#ifndef FEDFC_NET_TCP_TRANSPORT_H_
#define FEDFC_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/sync.h"
#include "fl/transport.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedfc::net {

/// Where one worker (a fedfc_worker process, or a WorkerServer thread in
/// tests) is listening, and how many clients it hosts. Global client indices
/// map onto worker slots in declaration order: the first endpoint holds
/// globals [0, num_clients), the next the following block, and so on.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t num_clients = 1;
};

struct TcpTransportOptions {
  int connect_timeout_ms = 5000;
  /// Per send/receive deadline once a round-trip starts. Generous by
  /// default: a slow client is the retry policy's problem, not a reason to
  /// poison the connection early.
  int io_timeout_ms = 30000;
};

/// fl::Transport over one persistent TCP connection per worker process.
///
/// A worker may host many clients (WorkerEndpoint::num_clients); the frame
/// header's client-index word selects the slot, so all of a worker's
/// clients share its single connection. Connections are opened lazily on
/// first use and re-opened lazily after the stream breaks: a failed send or
/// receive, or a reply that does not echo the request's slot and task (the
/// stream is out of sync), closes the connection (net::RoundTripFrame). Every
/// failed execute — those, typed error replies, undecodable bodies — is
/// classified into TransportStats (`timeouts` for missed deadlines,
/// `failures` for everything else) and returned; the caller's RoundPolicy
/// retry/backoff machinery then drives recovery, and the retry's Execute
/// reconnects. Nothing here loops or sleeps.
///
/// Thread-safety matches the Transport contract: concurrent Execute calls
/// are allowed for distinct client indices (one mutex per worker
/// connection, one for the shared stats). Two clients hosted by the same
/// worker serialize on that worker's connection mutex — matching the
/// worker's one-frame-at-a-time serve loop.
class TcpTransport : public fl::Transport {
 public:
  /// Each endpoint hosts a contiguous block of global client indices,
  /// `num_clients` wide (1 by default: one worker per client).
  explicit TcpTransport(std::vector<WorkerEndpoint> endpoints,
                        TcpTransportOptions options = {});

  size_t num_clients() const override { return routes_.size(); }
  Result<fl::Payload> Execute(size_t client_index, const std::string& task,
                              const fl::Payload& request) override;
  fl::TransportStats stats() const override;

  /// Asks every worker for each hosted client's local example count — the
  /// `client_sizes` vector fl::Server needs, fetched over the wire so the
  /// server never needs out-of-band knowledge of the private datasets.
  Result<std::vector<size_t>> QueryNumExamples();

  /// Best-effort shutdown signal to the worker hosting `client_index` (used
  /// by orderly teardown; a worker that is already gone is not an error).
  /// With multiplexed workers one signal stops the whole process — send it
  /// once per worker, not once per client.
  Status ShutdownWorker(size_t client_index);

 private:
  struct Connection {
    Mutex mutex;
    /// The socket is the guarded state: every use — connect, send, receive,
    /// poison-and-close on an error path — must hold `mutex`, or two clients
    /// hosted by the same worker could interleave frames on one stream.
    Socket socket FEDFC_GUARDED_BY(mutex);
  };

  /// Which worker hosts a global client index, and at which local slot.
  struct Route {
    size_t endpoint = 0;
    uint32_t slot = 0;
  };

  /// net::RoundTripFrame on the connection of the worker hosting
  /// `client_index`, connecting first if needed.
  Result<Frame> RoundTrip(size_t client_index, const Frame& request);

  /// Accounts one failed execute under the stats lock.
  void CountFailure(const Status& status);

  std::vector<WorkerEndpoint> endpoints_;
  TcpTransportOptions options_;
  std::vector<Route> routes_;
  std::vector<std::unique_ptr<Connection>> connections_;
  mutable Mutex stats_mutex_;
  fl::TransportStats stats_ FEDFC_GUARDED_BY(stats_mutex_);
};

}  // namespace fedfc::net

#endif  // FEDFC_NET_TCP_TRANSPORT_H_
