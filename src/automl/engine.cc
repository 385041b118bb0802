#include "automl/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "automl/model_io.h"
#include "automl/phases/feature_phase.h"
#include "automl/phases/meta_phase.h"
#include "core/thread_pool.h"

namespace fedfc::automl {

FedForecasterEngine::FedForecasterEngine(const MetaModel* meta_model,
                                         EngineOptions options)
    : meta_model_(meta_model), options_(options) {
  if (options_.use_meta_model) {
    FEDFC_CHECK(meta_model_ != nullptr && meta_model_->trained())
        << "use_meta_model requires a trained meta-model";
  }
}

Result<EngineReport> FedForecasterEngine::Run(fl::Server* server) {
  FEDFC_CHECK(server != nullptr);
  server->set_num_threads(options_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                                    : options_.num_threads);
  auto start = std::chrono::steady_clock::now();
  Rng rng(options_.seed);
  EngineReport report;
  // Each phase draws participant samples from its own seed stream; unused at
  // full participation, so the legacy path consumes no randomness here.
  auto round_opts = [this](uint64_t phase_tag) {
    phases::PhaseRoundOptions r;
    r.policy = options_.round;
    r.sampling_seed_base = options_.seed + phase_tag * 0x100000ULL;
    return r;
  };

  // Phases I-II (Figure 1): client meta-features -> server aggregation.
  FEDFC_ASSIGN_OR_RETURN(phases::MetaPhaseOutput meta,
                         phases::RunMetaPhase(*server, round_opts(0)));

  // Meta-model recommendation (Algorithm 1 lines 9-10).
  if (options_.use_meta_model) {
    FEDFC_ASSIGN_OR_RETURN(
        report.recommended,
        meta_model_->Recommend(meta.aggregated.values, options_.top_k));
  } else {
    report.recommended = AllAlgorithms();
  }

  // Section 4.2: unified spec + federated feature selection.
  phases::FeaturePhaseInput feature_input;
  feature_input.aggregated = &meta.aggregated;
  feature_input.feature_selection = options_.feature_selection;
  feature_input.feature_coverage = options_.feature_coverage;
  feature_input.max_lags = options_.max_lags;
  FEDFC_ASSIGN_OR_RETURN(
      report.spec, phases::RunFeaturePhase(*server, feature_input, round_opts(1)));
  std::vector<double> spec_tensor = report.spec.ToTensor();

  // Phase III: server-side hyperparameter search. The meta-model's concrete
  // instantiation recommendations (the winning configurations of the nearest
  // knowledge-base datasets) are evaluated first — "the recommended
  // instantiations ... serve as a warm start to the optimization process"
  // (Section 4).
  phases::OptimizePhaseInput opt_input;
  opt_input.recommended = report.recommended;
  if (options_.use_meta_model &&
      options_.strategy == SearchStrategy::kBayesOpt) {
    Result<std::vector<Configuration>> configs =
        meta_model_->WarmStartConfigurations(meta.aggregated.values,
                                             report.recommended,
                                             /*n_configs=*/3);
    if (configs.ok()) opt_input.warm_start = std::move(*configs);
    // Consumed from the back: reverse so the nearest neighbour goes first.
    std::reverse(opt_input.warm_start.begin(), opt_input.warm_start.end());
  }
  opt_input.spec_tensor = spec_tensor;
  opt_input.strategy = options_.strategy;
  opt_input.bo = options_.bo;
  opt_input.max_iterations = options_.max_iterations;
  opt_input.time_budget_seconds = options_.time_budget_seconds;
  opt_input.start = start;
  opt_input.rng = &rng;
  FEDFC_ASSIGN_OR_RETURN(
      phases::OptimizePhaseOutput opt,
      phases::RunOptimizePhase(*server, std::move(opt_input), round_opts(2)));
  report.best_config = opt.best_config;
  report.best_valid_loss = opt.best_valid_loss;
  report.iterations = opt.iterations;
  report.loss_history = std::move(opt.loss_history);

  // Phase IV: final local fits and global aggregation (lines 23-27), then
  // deployment and evaluation on the federated test tails.
  FEDFC_ASSIGN_OR_RETURN(
      report.global_model_blob,
      phases::RunFinalFitPhase(*server, spec_tensor, report.best_config,
                               round_opts(3)));
  if (options_.evaluate_test) {
    FEDFC_ASSIGN_OR_RETURN(
        report.test_loss,
        phases::RunEvaluatePhase(*server, spec_tensor, report.best_config,
                                 report.global_model_blob, round_opts(4)));
  }

  report.transport = server->transport_stats();
  report.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

  // Deployment: publish the finished run into the serving registry as the
  // next version. The publish protocol (artifact first, MANIFEST last) means
  // a crash mid-publish leaves an uncommitted directory fedfc_serve ignores.
  if (!options_.publish_dir.empty()) {
    ModelArtifact artifact;
    artifact.config = report.best_config;
    artifact.spec = report.spec;
    artifact.blob = report.global_model_blob;
    FEDFC_ASSIGN_OR_RETURN(report.published_version,
                           PublishModelArtifact(options_.publish_dir, artifact));
  }
  return report;
}

Result<std::unique_ptr<ml::Regressor>> FedForecasterEngine::GlobalModel(
    const EngineReport& report) {
  return DeserializeModel(report.best_config, report.global_model_blob);
}

}  // namespace fedfc::automl
