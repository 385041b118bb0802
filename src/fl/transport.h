#ifndef FEDFC_FL_TRANSPORT_H_
#define FEDFC_FL_TRANSPORT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/sync.h"
#include "fl/client.h"
#include "fl/payload.h"

namespace fedfc::fl {

/// Communication statistics for a simulated federation.
struct TransportStats {
  size_t messages = 0;
  size_t bytes_to_clients = 0;
  size_t bytes_to_server = 0;
  /// Failed executes, including failures injected by decorator transports
  /// (which never reach the inner transport's counters). Disjoint from
  /// `timeouts`: a failed execute increments exactly one of the two.
  size_t failures = 0;
  /// Executes that failed with kDeadlineExceeded specifically. Over a real
  /// network (net::TcpTransport) a timeout means "slow or unreachable peer"
  /// while `failures` means "peer answered wrongly or dropped us" — reports
  /// and retry tuning need the distinction.
  size_t timeouts = 0;
};

/// Routes a task to one client and returns its reply. Concrete transports
/// may add latency models or failure injection.
///
/// Thread-safety contract (relied on by the parallel fl::Server::RunRound):
/// Execute may be called concurrently from multiple threads as long as every
/// concurrent call targets a *distinct* client_index. Implementations must
/// guard any state shared across clients (statistics, RNG streams); clients
/// themselves are only ever driven by one thread at a time.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_clients() const = 0;
  virtual Result<Payload> Execute(size_t client_index, const std::string& task,
                                  const Payload& request) = 0;
  /// Snapshot of the accumulated statistics (by value: the counters may be
  /// updated concurrently while a round is in flight).
  virtual TransportStats stats() const = 0;
};

/// In-process transport that still round-trips every payload through the
/// binary wire format, so serialization bugs and message sizes surface in
/// simulation exactly as they would over a network.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(std::vector<std::shared_ptr<Client>> clients)
      : clients_(std::move(clients)) {}

  size_t num_clients() const override { return clients_.size(); }
  Result<Payload> Execute(size_t client_index, const std::string& task,
                          const Payload& request) override;
  TransportStats stats() const override {
    MutexLock lock(stats_mutex_);
    return stats_;
  }

  Client& client(size_t index) { return *clients_[index]; }

 private:
  std::vector<std::shared_ptr<Client>> clients_;
  mutable Mutex stats_mutex_;
  TransportStats stats_ FEDFC_GUARDED_BY(stats_mutex_);
};

}  // namespace fedfc::fl

#endif  // FEDFC_FL_TRANSPORT_H_
