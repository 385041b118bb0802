#ifndef FEDFC_TESTS_ROUND_COLLECTOR_H_
#define FEDFC_TESTS_ROUND_COLLECTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "fl/aggregation.h"
#include "fl/round.h"

namespace fedfc::fl {

/// Everything one round delivered, held at once so tests can assert on it:
/// the successful replies in consumption order (weights are the raw |D_j|,
/// as every consumer sees them), the per-client outcomes, and the trace.
struct CollectedRound {
  std::vector<ClientReply> replies;
  std::vector<ClientOutcome> outcomes;
  RoundTrace trace;

  /// Equation 1's alpha_j for `replies[i]`: its weight over the
  /// respondents' total.
  [[nodiscard]] double alpha(size_t i) const {
    double total = 0.0;
    for (const ClientReply& r : replies) total += r.weight;
    return replies[i].weight / total;
  }
};

/// A ReplyConsumer that keeps every reply.
class ReplyCollector : public ReplyConsumer {
 public:
  Status Consume(ClientReply&& reply) override {
    replies.push_back(std::move(reply));
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }

  std::vector<ClientReply> replies;
};

/// Runs `spec` on `runner`, collecting every reply.
inline Result<CollectedRound> CollectRound(RoundRunner& runner,
                                           const RoundSpec& spec) {
  ReplyCollector collector;
  FEDFC_ASSIGN_OR_RETURN(RoundSummary summary, runner.RunRound(spec, collector));
  return CollectedRound{std::move(collector.replies),
                        std::move(summary.outcomes), summary.trace};
}

/// The alpha-weighted mean of scalar `key` over a collected round: Equation
/// 1 computed the buffered way, normalizing the weights before folding.
inline Result<double> AlphaWeightedMean(const CollectedRound& round,
                                        const std::string& key) {
  ScalarAccumulator acc;
  for (size_t i = 0; i < round.replies.size(); ++i) {
    FEDFC_ASSIGN_OR_RETURN(double v, round.replies[i].payload.GetDouble(key));
    acc.Add(round.alpha(i), v);
  }
  return acc.Mean();
}

/// The tensor counterpart of AlphaWeightedMean (FedAvg, elementwise).
inline Result<std::vector<double>> AlphaWeightedTensorMean(
    const CollectedRound& round, const std::string& key) {
  TensorAccumulator acc;
  for (size_t i = 0; i < round.replies.size(); ++i) {
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> t,
                           round.replies[i].payload.GetTensor(key));
    FEDFC_RETURN_IF_ERROR(acc.Add(round.alpha(i), t));
  }
  return acc.Mean();
}

}  // namespace fedfc::fl

#endif  // FEDFC_TESTS_ROUND_COLLECTOR_H_
