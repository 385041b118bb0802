#ifndef FEDFC_FL_ROUND_H_
#define FEDFC_FL_ROUND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "fl/payload.h"

namespace fedfc::fl {

/// Reply from one client, tagged with its index and aggregation weight: the
/// client's RAW example count |D_j|. Consumers renormalize on their own
/// running total (Equation 1's alpha_j = |D_j| / |D|).
struct ClientReply {
  size_t client_index = 0;
  double weight = 0.0;
  Payload payload;
};

/// Orchestration knobs shared by every round of a run: who participates and
/// how stubborn the server is about individual client failures. The defaults
/// (everyone participates, no retries, tolerate any non-empty response set)
/// send the task to every client once.
struct RoundPolicy {
  /// Fraction of the population sampled into the round, in (0, 1]. With 1.0
  /// every client participates and no sampling RNG is consumed.
  double participation_fraction = 1.0;
  /// Extra attempts per client after a failed execute (0 = fail fast).
  size_t max_retries = 0;
  /// Base pause before re-attempting a failed client; attempt k waits
  /// `retry_backoff_ms * 2^k` (exponential backoff, exponent and total
  /// sleep capped so huge retry budgets cannot produce nonsense waits).
  /// 0 retries immediately.
  double retry_backoff_ms = 0.0;
  /// Minimum fraction of *sampled* clients that must succeed for the round
  /// to count, in [0, 1]. The round always fails when nobody succeeds; a
  /// threshold above 0 additionally rejects too-partial rounds.
  double min_success_fraction = 0.0;
};

/// One fully-specified federated round: the task, its request payload, the
/// participation/retry policy, and the seed for client sampling (unused when
/// `policy.participation_fraction == 1.0`).
struct RoundSpec {
  std::string task;
  Payload request;
  RoundPolicy policy;
  uint64_t sampling_seed = 0;

  RoundSpec() = default;
  RoundSpec(std::string task_id, Payload req)
      : task(std::move(task_id)), request(std::move(req)) {}
};

/// Outcome of one sampled client's participation in a round.
struct ClientOutcome {
  size_t client_index = 0;
  bool ok = false;
  size_t retries = 0;   ///< Re-attempts consumed (0 = first try decided it).
  std::string error;    ///< Last failure message when !ok.
};

/// Per-round accounting: what the round cost in messages, bytes, retries and
/// wall time. Message/byte counts are transport-stat deltas, so they include
/// retried attempts.
struct RoundTrace {
  size_t sampled_clients = 0;
  size_t ok_clients = 0;
  size_t failed_clients = 0;
  size_t retries = 0;
  size_t messages = 0;
  size_t bytes_to_clients = 0;
  size_t bytes_to_server = 0;
  /// Transport-level fault deltas for this round, split the same way
  /// TransportStats splits them: `transport_timeouts` counts attempts that
  /// died with kDeadlineExceeded, `transport_failures` everything else.
  /// Unlike `failed_clients` (post-retry verdicts) these count *attempts*,
  /// so a client that timed out twice and then succeeded contributes 2 here
  /// and 0 to `failed_clients`.
  size_t transport_failures = 0;
  size_t transport_timeouts = 0;
  double wall_seconds = 0.0;
};

/// Streaming sink for a round's successful replies. This is how a round's
/// payloads reach an aggregator without the server ever holding more than a
/// bounded window of them — the O(1)-memory contract that lets one server
/// fold rounds over 10^4+ clients.
///
/// Contract (what `RoundRunner` implementations guarantee):
///   - `Consume` is called once per successful client, in ascending
///     client-index order, from the thread running the round — never
///     concurrently. The reply's `weight` is the client's RAW example count
///     |D_j|; consumers renormalize on their own running total (Equation 1).
///   - `Finish` is called exactly once, after the last `Consume`, iff the
///     round itself succeeded (some client replied and the policy's
///     min-success threshold held).
///   - A non-OK Status from either hook aborts the round with that status.
class ReplyConsumer {
 public:
  virtual ~ReplyConsumer() = default;

  virtual Status Consume(ClientReply&& reply) = 0;
  virtual Status Finish() = 0;
};

/// What a consumer-driven round reports back: the per-sampled-client
/// outcomes (index-ordered) and the accounting trace. The payloads
/// themselves went through the consumer.
struct RoundSummary {
  std::vector<ClientOutcome> outcomes;
  RoundTrace trace;
};

/// The narrow interface the engine phases program against: "run one round,
/// feed the replies into this consumer". `fl::Server` is the production
/// implementation; phase unit tests substitute fakes that never touch a
/// transport.
class RoundRunner {
 public:
  virtual ~RoundRunner() = default;

  /// Streams the round's successful replies into `consumer` per the
  /// ReplyConsumer contract and returns the round's outcomes + trace.
  virtual Result<RoundSummary> RunRound(const RoundSpec& spec,
                                        ReplyConsumer& consumer) = 0;
};

/// Client indices participating in the round, ascending. Sampling is seeded
/// by `spec.sampling_seed` alone; full participation (fraction = 1.0, the
/// default) never consumes RNG state, so a full round needs no seed. At
/// least one client is always sampled.
std::vector<size_t> SampleParticipants(const RoundSpec& spec, size_t num_clients);

}  // namespace fedfc::fl

#endif  // FEDFC_FL_ROUND_H_
