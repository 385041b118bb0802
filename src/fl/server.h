#ifndef FEDFC_FL_SERVER_H_
#define FEDFC_FL_SERVER_H_

#include <memory>
#include <vector>

#include "core/result.h"
#include "core/thread_pool.h"
#include "fl/round.h"
#include "fl/transport.h"

namespace fedfc::fl {

/// Orchestrates federated rounds over a transport — the role of the Flower
/// server. The streaming `RunRound(spec, consumer)` is the one engine entry
/// point: it samples participants (seeded, per the spec's policy), drives
/// each sampled client with the spec's retry budget, and feeds every
/// successful reply — raw |D_j| weight attached — into the consumer in
/// ascending client-index order, dropping the payload immediately after.
/// Server-side memory is therefore O(in-flight window + aggregate size),
/// not O(clients × payload); consumers renormalize Equation 1's
/// alpha_j = |D_j| / |D| on their own running total.
///
/// With `num_threads > 1` the round fans client execution out over a thread
/// pool through a bounded in-flight window: clients are submitted in index
/// order and their replies consumed in index order as the window slides, so
/// the consumed sequence — and every aggregate folded from it — is
/// bit-identical to the sequential run no matter how many threads ran the
/// round. `num_threads == 1` (the default) takes the plain sequential loop.
class Server : public RoundRunner {
 public:
  /// `client_sizes[j]` = |D_j| for weight computation.
  Server(std::unique_ptr<Transport> transport, std::vector<size_t> client_sizes,
         size_t num_threads = 1);

  [[nodiscard]] size_t num_clients() const { return client_sizes_.size(); }

  /// Resizes the round worker pool (1 = sequential). Cheap when the count is
  /// unchanged; must not be called while a round is in flight.
  void set_num_threads(size_t num_threads);
  [[nodiscard]] size_t num_threads() const { return pool_ ? pool_->size() : 1; }

  /// Runs one federated round as described by the spec, streaming successful
  /// replies into `consumer`. Fails when every sampled client fails, when
  /// fewer than `policy.min_success_fraction` of them succeed (partial
  /// participation is the FL norm, not an error), or when the consumer
  /// rejects a reply.
  Result<RoundSummary> RunRound(const RoundSpec& spec,
                                ReplyConsumer& consumer) override;

  [[nodiscard]] TransportStats transport_stats() const { return transport_->stats(); }
  Transport& transport() { return *transport_; }

 private:
  std::unique_ptr<Transport> transport_;
  std::vector<size_t> client_sizes_;
  std::unique_ptr<ThreadPool> pool_;  ///< Null when running sequentially.
};

}  // namespace fedfc::fl

#endif  // FEDFC_FL_SERVER_H_
