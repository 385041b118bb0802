#ifndef FEDFC_AUTOML_ENGINE_H_
#define FEDFC_AUTOML_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "automl/bayesopt/bayes_opt.h"
#include "automl/meta_model.h"
#include "automl/phases/optimize_phase.h"
#include "automl/search_space.h"
#include "core/result.h"
#include "features/feature_engineering.h"
#include "fl/server.h"
#include "ml/model.h"

namespace fedfc::automl {

using phases::SearchStrategy;

struct EngineOptions {
  SearchStrategy strategy = SearchStrategy::kBayesOpt;
  /// Use the meta-model to restrict the search space to its top-K algorithms
  /// (Algorithm 1 line 10). When false, all six algorithms are searched.
  bool use_meta_model = true;
  int top_k = 3;

  /// Wall-clock budget T; the paper uses 5 minutes, benches scale it down.
  double time_budget_seconds = 5.0;
  /// Hard iteration cap (0 = unbounded; the loop stops on whichever of
  /// budget/iterations triggers first, matching "Time Budget T OR Number of
  /// iterations I" in Algorithm 1).
  size_t max_iterations = 0;

  /// Evaluate the aggregated global model on the clients' held-out test
  /// tails (Table 3 protocol). When false, the run skips that round and
  /// leaves `test_loss` at 0.
  bool evaluate_test = true;
  bool feature_selection = true;
  double feature_coverage = 0.95;  ///< Importance mass kept (Section 4.2.2).
  size_t max_lags = 12;            ///< Cap on unified lag features.
  /// Worker threads for client fan-out in every federated round (applied to
  /// the server at Run time). 0 = hardware concurrency; 1 = the exact
  /// sequential broadcast path. Replies are index-ordered, so losses and the
  /// aggregated model are identical for every thread count (see
  /// docs/ARCHITECTURE.md, "Concurrency model").
  size_t num_threads = 0;
  /// Participation/retry policy applied to every round the engine issues.
  /// The defaults (full participation, no retries) reproduce the legacy
  /// broadcast bit-for-bit; fractional participation is seeded from `seed`,
  /// so runs stay reproducible.
  fl::RoundPolicy round;
  uint64_t seed = 1;
  BayesOptConfig bo;
  /// When non-empty, the finished global model is published into this
  /// serving-registry root as the next `v<NNN>` version (see
  /// automl/model_io.h, "Model artifacts") — the hand-off point between
  /// training and fedfc_serve.
  std::string publish_dir;
};

/// Outcome of one engine run on a federated dataset.
struct EngineReport {
  Configuration best_config;
  double best_valid_loss = 0.0;     ///< Best aggregated global loss seen.
  double test_loss = 0.0;           ///< Weighted federated test MSE.
  size_t iterations = 0;
  std::vector<double> loss_history; ///< Aggregated loss per round.
  std::vector<AlgorithmId> recommended;
  features::FeatureEngineeringSpec spec;
  std::vector<double> global_model_blob;  ///< Deployable global model.
  fl::TransportStats transport;
  double elapsed_seconds = 0.0;
  /// Registry version assigned by the publish step (0 = not published).
  int published_version = 0;
};

/// The FedForecaster engine (Algorithm 1) — and, with
/// `strategy = kRandom, use_meta_model = false`, the random-search baseline
/// run through the identical federated pipeline. `Run` is a thin driver: the
/// pipeline itself lives in automl/phases/, each stage a function of the
/// RoundRunner interface.
class FedForecasterEngine {
 public:
  /// `meta_model` may be null when `options.use_meta_model` is false.
  FedForecasterEngine(const MetaModel* meta_model, EngineOptions options);

  /// Runs the full pipeline against a server whose clients are
  /// ForecastClient instances. On success the report carries the deployable
  /// global model blob and its federated test loss.
  Result<EngineReport> Run(fl::Server* server);

  /// Reconstructs the deployable global model from a finished report.
  static Result<std::unique_ptr<ml::Regressor>> GlobalModel(
      const EngineReport& report);

 private:
  const MetaModel* meta_model_;
  EngineOptions options_;
};

}  // namespace fedfc::automl

#endif  // FEDFC_AUTOML_ENGINE_H_
