#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "automl/phases/feature_phase.h"
#include "automl/phases/meta_phase.h"
#include "automl/phases/optimize_phase.h"
#include "core/rng.h"
#include "features/feature_selection.h"
#include "features/meta_features.h"
#include "fl/task_codec.h"

namespace fedfc::automl::phases {
namespace {

/// A canned round: (raw |D_j| weight, payload) per replying client, in
/// client-index order.
using CannedReplies = std::vector<std::pair<double, fl::Payload>>;

/// RoundRunner double: replies come from a responder function, never a
/// transport, and are replayed through the consumer exactly like a
/// streaming round would deliver them. Records every spec so tests can
/// assert on task ids and seeds.
class FakeRoundRunner : public fl::RoundRunner {
 public:
  using Responder = std::function<Result<CannedReplies>(const fl::RoundSpec&)>;

  explicit FakeRoundRunner(Responder responder)
      : responder_(std::move(responder)) {}

  Result<fl::RoundSummary> RunRound(const fl::RoundSpec& spec,
                                    fl::ReplyConsumer& consumer) override {
    specs.push_back(spec);
    FEDFC_ASSIGN_OR_RETURN(CannedReplies replies, responder_(spec));
    fl::RoundSummary summary;
    for (size_t j = 0; j < replies.size(); ++j) {
      FEDFC_RETURN_IF_ERROR(consumer.Consume(
          fl::ClientReply{j, replies[j].first, std::move(replies[j].second)}));
      fl::ClientOutcome outcome;
      outcome.client_index = j;
      outcome.ok = true;
      summary.outcomes.push_back(outcome);
    }
    FEDFC_RETURN_IF_ERROR(consumer.Finish());
    summary.trace.sampled_clients = replies.size();
    summary.trace.ok_clients = replies.size();
    summary.trace.messages = replies.size();
    return summary;
  }

  std::vector<fl::RoundSpec> specs;

 private:
  Responder responder_;
};

ts::Series MakeSine(size_t length, double phase) {
  std::vector<double> values(length);
  for (size_t t = 0; t < length; ++t) {
    values[t] = 10.0 + std::sin(0.26 * static_cast<double>(t) + phase) +
                0.01 * static_cast<double>(t % 7);
  }
  return ts::Series(std::move(values), /*start_epoch=*/0,
                    /*interval_seconds=*/3600);
}

TEST(MetaPhaseTest, AggregatesFakeClientReplies) {
  auto reply_for = [](const ts::Series& series) {
    fl::MetaFeaturesReply reply;
    reply.meta_features =
        features::ComputeClientMetaFeatures(series).ToTensor();
    reply.n_instances = static_cast<int64_t>(series.size());
    return reply.ToPayload();
  };
  FakeRoundRunner runner([&](const fl::RoundSpec&) {
    return CannedReplies{{150.0, reply_for(MakeSine(150, 0.0))},
                         {50.0, reply_for(MakeSine(50, 1.2))}};
  });
  Result<MetaPhaseOutput> out = RunMetaPhase(runner, PhaseRoundOptions{});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(runner.specs.size(), 1u);
  EXPECT_EQ(runner.specs[0].task, fl::tasks::kMetaFeatures);
  EXPECT_EQ(out->aggregated.values.size(),
            features::AggregatedMetaFeatures::FeatureNames().size());
  EXPECT_GT(out->aggregated.global_lag_count, 0u);
  EXPECT_EQ(out->trace.sampled_clients, 2u);
}

TEST(MetaPhaseTest, UndecodableReplyFailsThePhase) {
  FakeRoundRunner runner([](const fl::RoundSpec&) {
    fl::Payload bogus;
    bogus.SetDouble("wrong_key", 1.0);
    return CannedReplies{{1.0, bogus}};
  });
  EXPECT_FALSE(RunMetaPhase(runner, PhaseRoundOptions{}).ok());
}

TEST(FeaturePhaseTest, SpecDerivedFromAggregatedMetaFeatures) {
  features::AggregatedMetaFeatures agg;
  agg.global_lag_count = 30;  // Above the cap.
  agg.global_seasonal_periods = {24.0};
  FeaturePhaseInput input;
  input.aggregated = &agg;
  input.feature_selection = false;
  input.max_lags = 12;
  FakeRoundRunner runner([](const fl::RoundSpec&) -> Result<CannedReplies> {
    return Status::Internal("phase must not issue rounds");
  });
  Result<features::FeatureEngineeringSpec> spec =
      RunFeaturePhase(runner, input, PhaseRoundOptions{});
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(runner.specs.empty());  // Selection disabled: zero rounds.
  EXPECT_EQ(spec->n_lags, 12u);       // Clamped to max_lags.
  ASSERT_EQ(spec->seasonal_periods.size(), 1u);
  EXPECT_DOUBLE_EQ(spec->seasonal_periods[0], 24.0);
  EXPECT_TRUE(spec->selected_features.empty());
}

TEST(FeaturePhaseTest, SelectionKeepsCoveringSubset) {
  features::AggregatedMetaFeatures agg;
  agg.global_lag_count = 4;
  FeaturePhaseInput input;
  input.aggregated = &agg;
  input.feature_coverage = 0.6;
  FakeRoundRunner runner([&](const fl::RoundSpec& spec) {
    Result<fl::FeatureImportanceRequest> request =
        fl::FeatureImportanceRequest::FromPayload(spec.request);
    EXPECT_TRUE(request.ok());
    Result<features::FeatureEngineeringSpec> decoded =
        features::FeatureEngineeringSpec::FromTensor(request->spec);
    EXPECT_TRUE(decoded.ok());
    size_t width = features::FeatureSchema(*decoded).size();
    // One dominant feature carries nearly all the importance mass.
    std::vector<double> importances(width, 0.02 / static_cast<double>(width));
    importances[0] = 0.98;
    fl::FeatureImportanceReply reply;
    reply.importances = importances;
    return CannedReplies{{1.0, reply.ToPayload()}};
  });
  Result<features::FeatureEngineeringSpec> spec =
      RunFeaturePhase(runner, input, PhaseRoundOptions{});
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(runner.specs.size(), 1u);
  EXPECT_EQ(runner.specs[0].task, fl::tasks::kFeatureImportance);
  ASSERT_FALSE(spec->selected_features.empty());
  EXPECT_LT(spec->selected_features.size(),
            features::FeatureSchema(features::FeatureEngineeringSpec()).size());
}

TEST(FeaturePhaseTest, FailedImportanceRoundIsBestEffort) {
  features::AggregatedMetaFeatures agg;
  agg.global_lag_count = 4;
  FeaturePhaseInput input;
  input.aggregated = &agg;
  FakeRoundRunner runner([](const fl::RoundSpec&) -> Result<CannedReplies> {
    return Status::Internal("all clients failed");
  });
  Result<features::FeatureEngineeringSpec> spec =
      RunFeaturePhase(runner, input, PhaseRoundOptions{});
  ASSERT_TRUE(spec.ok()) << spec.status();  // Selection skipped, not fatal.
  EXPECT_TRUE(spec->selected_features.empty());
  EXPECT_EQ(spec->n_lags, 4u);
}

OptimizePhaseInput BaseOptimizeInput(Rng* rng,
                                     std::chrono::steady_clock::time_point start) {
  OptimizePhaseInput input;
  input.recommended = AllAlgorithms();
  input.spec_tensor = features::FeatureEngineeringSpec().ToTensor();
  input.strategy = SearchStrategy::kRandom;
  input.max_iterations = 4;
  input.time_budget_seconds = 300.0;
  input.start = start;
  input.rng = rng;
  return input;
}

TEST(OptimizePhaseTest, IterationCapAndBestTracking) {
  Rng rng(3);
  size_t calls = 0;
  FakeRoundRunner runner([&](const fl::RoundSpec& spec) {
    EXPECT_EQ(spec.task, fl::tasks::kFitEvaluate);
    fl::FitEvaluateReply reply;
    // Losses 4, 3, 2, 1: the best must be the last and equal 1.0.
    reply.valid_loss = static_cast<double>(4 - calls);
    reply.n_valid = 10;
    ++calls;
    return CannedReplies{{1.0, reply.ToPayload()}};
  });
  Result<OptimizePhaseOutput> out = RunOptimizePhase(
      runner, BaseOptimizeInput(&rng, std::chrono::steady_clock::now()),
      PhaseRoundOptions{});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->iterations, 4u);
  ASSERT_EQ(out->loss_history.size(), 4u);
  EXPECT_DOUBLE_EQ(out->best_valid_loss, 1.0);
  // Round i of the phase samples with seed base + i.
  ASSERT_EQ(runner.specs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(runner.specs[i].sampling_seed, i);
  }
}

TEST(OptimizePhaseTest, WarmStartConfigsEvaluatedFromTheBack) {
  Rng rng(3);
  Configuration first = SearchSpace::ForAlgorithm(AlgorithmId::kLasso)
                            .Sample(&rng);
  Configuration second = SearchSpace::ForAlgorithm(AlgorithmId::kHuber)
                             .Sample(&rng);
  std::vector<std::vector<double>> seen_configs;
  FakeRoundRunner runner([&](const fl::RoundSpec& spec) {
    Result<fl::FitEvaluateRequest> request =
        fl::FitEvaluateRequest::FromPayload(spec.request);
    EXPECT_TRUE(request.ok());
    seen_configs.push_back(request->config);
    fl::FitEvaluateReply reply;
    reply.valid_loss = 1.0;
    return CannedReplies{{1.0, reply.ToPayload()}};
  });
  OptimizePhaseInput input =
      BaseOptimizeInput(&rng, std::chrono::steady_clock::now());
  input.max_iterations = 2;
  // Caller order is back-to-front: `second` must be evaluated first.
  input.warm_start = {first, second};
  Result<OptimizePhaseOutput> out =
      RunOptimizePhase(runner, std::move(input), PhaseRoundOptions{});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(seen_configs.size(), 2u);
  EXPECT_EQ(seen_configs[0], second.ToTensor());
  EXPECT_EQ(seen_configs[1], first.ToTensor());
}

TEST(OptimizePhaseTest, FailedRoundsCountAgainstIterationCap) {
  Rng rng(3);
  size_t calls = 0;
  FakeRoundRunner runner(
      [&](const fl::RoundSpec&) -> Result<CannedReplies> {
        if (calls++ < 2) return Status::Internal("round failed");
        fl::FitEvaluateReply reply;
        reply.valid_loss = 0.5;
        return CannedReplies{{1.0, reply.ToPayload()}};
      });
  Result<OptimizePhaseOutput> out = RunOptimizePhase(
      runner, BaseOptimizeInput(&rng, std::chrono::steady_clock::now()),
      PhaseRoundOptions{});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->iterations, 4u);          // Failures still consumed budget...
  EXPECT_EQ(out->loss_history.size(), 2u);  // ...but produced no observations.
}

TEST(OptimizePhaseTest, NoObservationsIsDeadlineExceeded) {
  Rng rng(3);
  FakeRoundRunner runner([](const fl::RoundSpec&) -> Result<CannedReplies> {
    return Status::Internal("round failed");
  });
  Result<OptimizePhaseOutput> out = RunOptimizePhase(
      runner, BaseOptimizeInput(&rng, std::chrono::steady_clock::now()),
      PhaseRoundOptions{});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FinalFitPhaseTest, AggregatesBlobsWithFedAvg) {
  FakeRoundRunner runner([](const fl::RoundSpec& spec) {
    EXPECT_EQ(spec.task, fl::tasks::kFitFinal);
    fl::FitFinalReply a;
    a.model_blob = {1.0, 2.0};
    a.n_fit = 10;
    fl::FitFinalReply b;
    b.model_blob = {3.0, 6.0};
    b.n_fit = 30;
    return CannedReplies{{10.0, a.ToPayload()}, {30.0, b.ToPayload()}};
  });
  Configuration config;  // Linear family: blobs average element-wise.
  Result<std::vector<double>> blob = RunFinalFitPhase(
      runner, features::FeatureEngineeringSpec().ToTensor(), config,
      PhaseRoundOptions{});
  ASSERT_TRUE(blob.ok()) << blob.status();
  ASSERT_EQ(blob->size(), 2u);
  EXPECT_NEAR((*blob)[0], 0.25 * 1.0 + 0.75 * 3.0, 1e-12);
  EXPECT_NEAR((*blob)[1], 0.25 * 2.0 + 0.75 * 6.0, 1e-12);
}

TEST(FinalFitPhaseTest, UndecodableReplyPropagates) {
  FakeRoundRunner runner([](const fl::RoundSpec&) {
    fl::Payload bogus;
    bogus.SetDouble("oops", 1.0);
    return CannedReplies{{1.0, bogus}};
  });
  EXPECT_FALSE(RunFinalFitPhase(runner,
                                features::FeatureEngineeringSpec().ToTensor(),
                                Configuration(), PhaseRoundOptions{})
                   .ok());
}

TEST(EvaluatePhaseTest, WeightedTestLoss) {
  FakeRoundRunner runner([](const fl::RoundSpec& spec) {
    EXPECT_EQ(spec.task, fl::tasks::kEvaluateModel);
    Result<fl::EvaluateModelRequest> request =
        fl::EvaluateModelRequest::FromPayload(spec.request);
    EXPECT_TRUE(request.ok());
    EXPECT_EQ(request->model_blob, std::vector<double>({0.5, 0.5}));
    fl::EvaluateModelReply a;
    a.test_loss = 2.0;
    fl::EvaluateModelReply b;
    b.test_loss = 4.0;
    return CannedReplies{{30.0, a.ToPayload()}, {10.0, b.ToPayload()}};
  });
  Result<double> loss = RunEvaluatePhase(
      runner, features::FeatureEngineeringSpec().ToTensor(), Configuration(),
      {0.5, 0.5}, PhaseRoundOptions{});
  ASSERT_TRUE(loss.ok()) << loss.status();
  EXPECT_NEAR(*loss, 0.75 * 2.0 + 0.25 * 4.0, 1e-12);
}

}  // namespace
}  // namespace fedfc::automl::phases
