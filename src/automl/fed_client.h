#ifndef FEDFC_AUTOML_FED_CLIENT_H_
#define FEDFC_AUTOML_FED_CLIENT_H_

#include <optional>
#include <string>

#include "automl/search_space.h"
#include "core/rng.h"
#include "features/feature_engineering.h"
#include "features/meta_features.h"
#include "fl/client.h"
#include "fl/task_codec.h"
#include "ts/series.h"

namespace fedfc::automl {

/// Protocol task ids. The canonical definitions (and their typed codecs)
/// live in fl/task_codec.h; this re-export keeps the historical
/// `automl::tasks::` spelling working.
namespace tasks {
using namespace ::fedfc::fl::tasks;
}  // namespace tasks

/// The client side of FedForecaster (Algorithm 1): owns one private series
/// split and answers the meta-feature, feature-engineering, fit/evaluate and
/// final-model tasks through a typed handler registry (one handler per task
/// id, each decoding/encoding via the fl/task_codec.h structs). The trailing
/// `test_fraction` of the split is reserved for the final federated test
/// evaluation and never used for training or validation.
class ForecastClient : public fl::Client {
 public:
  struct Options {
    double valid_fraction = 0.2;  ///< Of the non-test head (time-ordered).
    double test_fraction = 0.2;   ///< Trailing held-out portion.
    uint64_t seed = 1;
  };

  ForecastClient(std::string id, ts::Series series, Options options);

  std::string id() const override { return id_; }
  /// Training examples only (the weight alpha_j of Equation 1).
  size_t num_examples() const override;

  /// Dispatches to the registered handler for `task`.
  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request) override;

 private:
  void RegisterHandlers();

  Result<fl::MetaFeaturesReply> HandleMetaFeatures(
      const fl::MetaFeaturesRequest& request);
  Result<fl::FeatureImportanceReply> HandleFeatureImportance(
      const fl::FeatureImportanceRequest& request);
  Result<fl::FitEvaluateReply> HandleFitEvaluate(
      const fl::FitEvaluateRequest& request);
  Result<fl::FitFinalReply> HandleFitFinal(const fl::FitFinalRequest& request);
  Result<fl::EvaluateModelReply> HandleEvaluateModel(
      const fl::EvaluateModelRequest& request);

  /// Engineers features over the full split under `spec`, cached by spec
  /// tensor (the BO loop re-sends the same spec every round).
  Result<const features::EngineeredData*> EngineeredFor(
      const std::vector<double>& spec_tensor);

  /// Row ranges of the engineered matrix: [0, train_end) training,
  /// [train_end, valid_end) validation, [valid_end, rows) test.
  struct RowSplit {
    size_t train_end = 0;
    size_t valid_end = 0;
  };
  [[nodiscard]] RowSplit SplitRows(size_t n_rows) const;

  std::string id_;
  ts::Series series_;
  Options options_;
  Rng rng_;
  fl::TaskRegistry registry_;
  std::vector<double> cached_spec_tensor_;
  std::optional<features::EngineeredData> cached_data_;
};

}  // namespace fedfc::automl

#endif  // FEDFC_AUTOML_FED_CLIENT_H_
