#include "automl/phases/feature_phase.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "features/feature_selection.h"
#include "fl/task_codec.h"

namespace fedfc::automl::phases {

namespace {

/// Streams feature-importance replies into decoded importance vectors.
/// Unlike the meta phase, an undecodable reply is SKIPPED rather than
/// fatal: feature selection is best-effort, and a client that cannot
/// produce importances simply doesn't vote.
class ImportanceConsumer : public fl::ReplyConsumer {
 public:
  Status Consume(fl::ClientReply&& r) override {
    Result<fl::FeatureImportanceReply> reply =
        fl::FeatureImportanceReply::FromPayload(r.payload);
    if (!reply.ok()) return Status::OK();
    importances_.push_back(std::move(reply->importances));
    weights_.push_back(r.weight);
    return Status::OK();
  }

  Status Finish() override { return Status::OK(); }

  [[nodiscard]] const std::vector<std::vector<double>>& importances() const {
    return importances_;
  }
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<std::vector<double>> importances_;
  std::vector<double> weights_;  ///< Raw |D_j|; SelectFeatures renormalizes.
};

}  // namespace

Result<features::FeatureEngineeringSpec> RunFeaturePhase(
    fl::RoundRunner& runner, const FeaturePhaseInput& input,
    const PhaseRoundOptions& round) {
  FEDFC_CHECK(input.aggregated != nullptr);
  const features::AggregatedMetaFeatures& agg = *input.aggregated;

  // Unified spec from the aggregated meta-features (Section 4.2.1).
  features::FeatureEngineeringSpec spec;
  spec.n_lags = std::max<size_t>(
      2, std::min<size_t>(agg.global_lag_count, input.max_lags));
  spec.seasonal_periods = agg.global_seasonal_periods;
  if (!input.feature_selection) return spec;

  // Federated feature selection (Section 4.2.2), best-effort.
  fl::FeatureImportanceRequest request;
  request.spec = spec.ToTensor();
  fl::RoundSpec round_spec(fl::tasks::kFeatureImportance, request.ToPayload());
  round_spec.policy = round.policy;
  round_spec.sampling_seed = round.sampling_seed_base;
  ImportanceConsumer consumer;
  Result<fl::RoundSummary> result = runner.RunRound(round_spec, consumer);
  if (!result.ok()) return spec;
  if (consumer.importances().empty()) return spec;

  Result<std::vector<size_t>> selected = features::SelectFeatures(
      consumer.importances(), consumer.weights(), input.feature_coverage);
  if (selected.ok() && selected->size() < features::FeatureSchema(spec).size()) {
    spec.selected_features = std::move(*selected);
  }
  return spec;
}

}  // namespace fedfc::automl::phases
