#include "automl/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "automl/fed_client.h"
#include "automl/model_io.h"
#include "data/generators.h"
#include "fl/task_codec.h"
#include "fl/transport.h"
#include "ml/tree/random_forest.h"

namespace fedfc::automl {
namespace {

std::vector<ts::Series> MakeSplits(size_t n_clients, size_t per_client,
                                   uint64_t seed) {
  Rng rng(seed);
  data::SignalSpec spec;
  spec.length = n_clients * per_client;
  spec.level = 10.0;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.noise_std = 0.2;
  spec.ar_coefficient = 0.6;
  ts::Series series = data::GenerateSignal(spec, &rng);
  Result<std::vector<ts::Series>> splits =
      ts::SplitIntoClients(series, static_cast<int>(n_clients));
  return *splits;
}

/// Forwards every task to `inner`, but sets the last value of its
/// fit_final model blob to NaN: a blob no consumer can load.
class NanFinalBlobClient : public fl::Client {
 public:
  explicit NanFinalBlobClient(std::shared_ptr<fl::Client> inner)
      : inner_(std::move(inner)) {}

  std::string id() const override { return inner_->id(); }
  size_t num_examples() const override { return inner_->num_examples(); }

  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request) override {
    FEDFC_ASSIGN_OR_RETURN(fl::Payload reply, inner_->Handle(task, request));
    if (task != fl::tasks::kFitFinal) return reply;
    FEDFC_ASSIGN_OR_RETURN(fl::FitFinalReply fit,
                           fl::FitFinalReply::FromPayload(reply));
    if (!fit.model_blob.empty()) {
      fit.model_blob.back() = std::numeric_limits<double>::quiet_NaN();
    }
    return fit.ToPayload();
  }

 private:
  std::shared_ptr<fl::Client> inner_;
};

std::unique_ptr<fl::Server> MakeServer(const std::vector<ts::Series>& splits,
                                       uint64_t seed,
                                       bool nan_final_blobs = false) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<size_t> sizes;
  for (size_t j = 0; j < splits.size(); ++j) {
    ForecastClient::Options opt;
    opt.seed = seed + j;
    sizes.push_back(splits[j].size());
    std::shared_ptr<fl::Client> client = std::make_shared<ForecastClient>(
        "c" + std::to_string(j), splits[j], opt);
    if (nan_final_blobs) {
      client = std::make_shared<NanFinalBlobClient>(std::move(client));
    }
    clients.push_back(std::move(client));
  }
  return std::make_unique<fl::Server>(
      std::make_unique<fl::InProcessTransport>(clients), sizes);
}

/// A pre-trained meta-model over a trivially learnable KB so the engine's
/// meta-learning path can run without the expensive offline build.
MetaModel MakeTrainedMetaModel() {
  KnowledgeBase kb;
  Rng rng(99);
  size_t width = features::AggregatedMetaFeatures::FeatureNames().size();
  for (size_t i = 0; i < 40; ++i) {
    KnowledgeBaseRecord r;
    r.dataset_name = "stub_" + std::to_string(i);
    r.meta_features.resize(width);
    for (double& v : r.meta_features) v = rng.Normal();
    r.best_algorithm = static_cast<int>(i % kNumAlgorithms);
    r.algorithm_losses.assign(kNumAlgorithms, 1.0);
    r.algorithm_losses[static_cast<size_t>(r.best_algorithm)] = 0.1;
    kb.Add(std::move(r));
  }
  ml::ForestConfig cfg;
  cfg.n_trees = 15;
  MetaModel model(std::make_unique<ml::RandomForestClassifier>(cfg));
  Rng train_rng(100);
  EXPECT_TRUE(model.Train(kb, &train_rng).ok());
  return model;
}

EngineOptions FastOptions() {
  EngineOptions opt;
  opt.max_iterations = 6;
  opt.time_budget_seconds = 60.0;  // Iteration-bounded in tests.
  opt.bo.n_candidates = 64;
  opt.seed = 5;
  return opt;
}

TEST(EngineTest, FullPipelineProducesReport) {
  std::vector<ts::Series> splits = MakeSplits(4, 150, 1);
  auto server = MakeServer(splits, 2);
  MetaModel meta = MakeTrainedMetaModel();
  FedForecasterEngine engine(&meta, FastOptions());
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations, 6u);
  EXPECT_GT(report->best_valid_loss, 0.0);
  EXPECT_GT(report->test_loss, 0.0);
  EXPECT_EQ(report->recommended.size(), 3u);
  EXPECT_FALSE(report->global_model_blob.empty());
  EXPECT_GT(report->transport.messages, 0u);
  EXPECT_FALSE(report->loss_history.empty());
}

TEST(EngineTest, GlobalModelReconstructs) {
  std::vector<ts::Series> splits = MakeSplits(3, 150, 3);
  auto server = MakeServer(splits, 4);
  MetaModel meta = MakeTrainedMetaModel();
  FedForecasterEngine engine(&meta, FastOptions());
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  Result<std::unique_ptr<ml::Regressor>> model =
      FedForecasterEngine::GlobalModel(*report);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE((*model)->Name().empty());
}

TEST(EngineTest, RandomSearchModeSearchesAllAlgorithms) {
  std::vector<ts::Series> splits = MakeSplits(3, 150, 5);
  auto server = MakeServer(splits, 6);
  EngineOptions opt = FastOptions();
  opt.strategy = SearchStrategy::kRandom;
  opt.use_meta_model = false;
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->recommended.size(), kNumAlgorithms);
}

TEST(EngineTest, FeatureSelectionShrinksSchema) {
  std::vector<ts::Series> splits = MakeSplits(3, 200, 7);
  auto server = MakeServer(splits, 8);
  EngineOptions opt = FastOptions();
  opt.strategy = SearchStrategy::kRandom;
  opt.use_meta_model = false;
  opt.feature_selection = true;
  opt.feature_coverage = 0.6;  // Aggressive cut to force a visible effect.
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->spec.selected_features.empty());
  features::FeatureEngineeringSpec unselected = report->spec;
  unselected.selected_features.clear();
  EXPECT_LT(report->spec.selected_features.size(),
            features::FeatureSchema(unselected).size());
}

TEST(EngineTest, TimeBudgetStopsTheLoop) {
  std::vector<ts::Series> splits = MakeSplits(3, 150, 9);
  auto server = MakeServer(splits, 10);
  EngineOptions opt = FastOptions();
  opt.max_iterations = 0;
  opt.time_budget_seconds = 0.3;
  opt.strategy = SearchStrategy::kRandom;
  opt.use_meta_model = false;
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->iterations, 1u);
  EXPECT_LT(report->elapsed_seconds, 20.0);
}

TEST(EngineTest, NumThreadsDoesNotChangeLosses) {
  // The parallel broadcast gathers replies into index-ordered slots, so the
  // whole engine run — every aggregated loss, the chosen configuration, the
  // global model — must be identical at any thread count.
  std::vector<ts::Series> splits = MakeSplits(4, 150, 13);
  MetaModel meta = MakeTrainedMetaModel();
  std::vector<EngineReport> reports;
  for (size_t num_threads : {1u, 4u}) {
    auto server = MakeServer(splits, 14);
    EngineOptions opt = FastOptions();
    opt.num_threads = num_threads;
    FedForecasterEngine engine(&meta, opt);
    Result<EngineReport> report = engine.Run(server.get());
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(server->num_threads(), num_threads);
    reports.push_back(std::move(*report));
  }
  ASSERT_EQ(reports.size(), 2u);
  const EngineReport& seq = reports[0];
  const EngineReport& par = reports[1];
  ASSERT_EQ(seq.loss_history.size(), par.loss_history.size());
  for (size_t i = 0; i < seq.loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.loss_history[i], par.loss_history[i]) << "round " << i;
  }
  EXPECT_DOUBLE_EQ(seq.best_valid_loss, par.best_valid_loss);
  EXPECT_DOUBLE_EQ(seq.test_loss, par.test_loss);
  EXPECT_EQ(seq.best_config.algorithm, par.best_config.algorithm);
  ASSERT_EQ(seq.global_model_blob.size(), par.global_model_blob.size());
  for (size_t i = 0; i < seq.global_model_blob.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.global_model_blob[i], par.global_model_blob[i]);
  }
}

TEST(EngineTest, ExplicitRoundPolicyMatchesDefaultAtEveryThreadCount) {
  // The acceptance contract of the round-orchestration refactor: with full
  // participation and no retries — spelled out explicitly — every engine
  // output is bit-identical to the default (legacy-broadcast) configuration,
  // sequentially and under a thread pool, and an unused retry budget on a
  // reliable transport changes nothing either.
  std::vector<ts::Series> splits = MakeSplits(4, 150, 17);
  MetaModel meta = MakeTrainedMetaModel();
  auto run = [&](fl::RoundPolicy policy, size_t num_threads) {
    auto server = MakeServer(splits, 18);
    EngineOptions opt = FastOptions();
    opt.round = policy;
    opt.num_threads = num_threads;
    FedForecasterEngine engine(&meta, opt);
    Result<EngineReport> report = engine.Run(server.get());
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };
  fl::RoundPolicy explicit_legacy;
  explicit_legacy.participation_fraction = 1.0;
  explicit_legacy.max_retries = 0;
  fl::RoundPolicy with_retry_budget;
  with_retry_budget.max_retries = 2;
  EngineReport baseline = run(fl::RoundPolicy{}, 1);
  for (const fl::RoundPolicy& policy : {explicit_legacy, with_retry_budget}) {
    for (size_t num_threads : {1u, 4u}) {
      EngineReport report = run(policy, num_threads);
      ASSERT_EQ(baseline.loss_history.size(), report.loss_history.size());
      for (size_t i = 0; i < baseline.loss_history.size(); ++i) {
        EXPECT_DOUBLE_EQ(baseline.loss_history[i], report.loss_history[i]);
      }
      EXPECT_DOUBLE_EQ(baseline.best_valid_loss, report.best_valid_loss);
      EXPECT_DOUBLE_EQ(baseline.test_loss, report.test_loss);
      EXPECT_EQ(baseline.best_config.algorithm, report.best_config.algorithm);
      ASSERT_EQ(baseline.global_model_blob.size(),
                report.global_model_blob.size());
      for (size_t i = 0; i < baseline.global_model_blob.size(); ++i) {
        EXPECT_DOUBLE_EQ(baseline.global_model_blob[i],
                         report.global_model_blob[i]);
      }
      // Same traffic: the typed codecs leave the wire bytes unchanged.
      EXPECT_EQ(baseline.transport.messages, report.transport.messages);
      EXPECT_EQ(baseline.transport.bytes_to_clients,
                report.transport.bytes_to_clients);
      EXPECT_EQ(baseline.transport.bytes_to_server,
                report.transport.bytes_to_server);
    }
  }
}

TEST(EngineTest, PartialParticipationRunsAndIsSeedReproducible) {
  std::vector<ts::Series> splits = MakeSplits(6, 120, 19);
  auto run = [&]() {
    auto server = MakeServer(splits, 20);
    EngineOptions opt = FastOptions();
    opt.strategy = SearchStrategy::kRandom;
    opt.use_meta_model = false;
    opt.round.participation_fraction = 0.5;
    FedForecasterEngine engine(nullptr, opt);
    Result<EngineReport> report = engine.Run(server.get());
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };
  EngineReport a = run();
  EngineReport b = run();
  EXPECT_EQ(a.iterations, 6u);
  EXPECT_FALSE(a.loss_history.empty());
  // Sampling is seeded from EngineOptions::seed: identical runs, identical
  // sampled cohorts, identical losses.
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
  for (size_t i = 0; i < a.loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.loss_history[i], b.loss_history[i]);
  }
  EXPECT_DOUBLE_EQ(a.test_loss, b.test_loss);
  // Fewer sampled clients per round means less traffic than full
  // participation would generate for the same round count.
  EXPECT_GT(a.transport.messages, 0u);
}

TEST(EngineTest, UnloadableFinalBlobFailsTheRunAndPublishesNothing) {
  // The final-fit fold used to accept blobs that every consumer rejects.
  // With evaluate_test off, the engine then published such a model as a
  // committed registry version, which fedfc_serve refused on every poll.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fedfc_engine_nan_blob";
  std::filesystem::remove_all(dir);
  std::vector<ts::Series> splits = MakeSplits(3, 150, 9);
  auto server = MakeServer(splits, 10, /*nan_final_blobs=*/true);
  EngineOptions opt = FastOptions();
  opt.strategy = SearchStrategy::kRandom;
  opt.use_meta_model = false;
  opt.max_iterations = 2;
  opt.evaluate_test = false;
  opt.publish_dir = dir.string();
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(server.get());
  EXPECT_FALSE(report.ok());

  size_t committed = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().filename() == kRegistryManifestFile) ++committed;
  }
  EXPECT_EQ(committed, 0u);
  std::filesystem::remove_all(dir, ec);
}

TEST(EngineTest, LossHistoryBestIsReportedBest) {
  std::vector<ts::Series> splits = MakeSplits(3, 150, 11);
  auto server = MakeServer(splits, 12);
  MetaModel meta = MakeTrainedMetaModel();
  FedForecasterEngine engine(&meta, FastOptions());
  Result<EngineReport> report = engine.Run(server.get());
  ASSERT_TRUE(report.ok()) << report.status();
  double best = report->loss_history.front();
  for (double l : report->loss_history) best = std::min(best, l);
  EXPECT_DOUBLE_EQ(best, report->best_valid_loss);
}

}  // namespace
}  // namespace fedfc::automl
