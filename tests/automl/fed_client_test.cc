#include "automl/fed_client.h"

#include <gtest/gtest.h>

#include "automl/model_io.h"
#include "data/generators.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "round_collector.h"

namespace fedfc::automl {
namespace {

ts::Series TestSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  data::SignalSpec spec;
  spec.length = n;
  spec.level = 10.0;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.noise_std = 0.2;
  spec.ar_coefficient = 0.5;
  return data::GenerateSignal(spec, &rng);
}

fl::Payload SpecConfigRequest(const features::FeatureEngineeringSpec& spec,
                              const Configuration& config) {
  fl::Payload request;
  request.SetTensor("spec", spec.ToTensor());
  request.SetTensor("config", config.ToTensor());
  return request;
}

features::FeatureEngineeringSpec BasicSpec() {
  features::FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  spec.seasonal_periods = {24.0};
  return spec;
}

Configuration LassoConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kLasso;
  c.numeric["alpha"] = 1e-3;
  c.categorical["selection"] = "cyclic";
  return c;
}

TEST(ForecastClientTest, MetaFeaturesTask) {
  ForecastClient client("c0", TestSeries(500, 1), ForecastClient::Options{});
  Result<fl::Payload> reply = client.Handle(tasks::kMetaFeatures, fl::Payload());
  ASSERT_TRUE(reply.ok());
  Result<std::vector<double>> tensor = reply->GetTensor("meta_features");
  ASSERT_TRUE(tensor.ok());
  Result<features::ClientMetaFeatures> mf =
      features::ClientMetaFeatures::FromTensor(*tensor);
  ASSERT_TRUE(mf.ok());
  // Meta-features cover only the train+valid head (test tail excluded).
  EXPECT_DOUBLE_EQ(mf->n_instances, 400.0);
}

TEST(ForecastClientTest, NumExamplesExcludesTestTail) {
  ForecastClient client("c0", TestSeries(500, 2), ForecastClient::Options{});
  EXPECT_EQ(client.num_examples(), 400u);
}

TEST(ForecastClientTest, FitEvaluateReturnsFiniteLoss) {
  ForecastClient client("c0", TestSeries(500, 3), ForecastClient::Options{});
  Result<fl::Payload> reply = client.Handle(
      tasks::kFitEvaluate, SpecConfigRequest(BasicSpec(), LassoConfig()));
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<double> loss = reply->GetDouble("valid_loss");
  ASSERT_TRUE(loss.ok());
  EXPECT_GE(*loss, 0.0);
  EXPECT_GT(*reply->GetInt("n_valid"), 0);
}

TEST(ForecastClientTest, FeatureImportanceMatchesSchemaWidth) {
  ForecastClient client("c0", TestSeries(500, 4), ForecastClient::Options{});
  fl::Payload request;
  request.SetTensor("spec", BasicSpec().ToTensor());
  Result<fl::Payload> reply = client.Handle(tasks::kFeatureImportance, request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<std::vector<double>> imp = reply->GetTensor("importances");
  ASSERT_TRUE(imp.ok());
  EXPECT_EQ(imp->size(), features::FeatureSchema(BasicSpec()).size());
}

TEST(ForecastClientTest, FitFinalProducesLoadableModel) {
  ForecastClient client("c0", TestSeries(500, 5), ForecastClient::Options{});
  Result<fl::Payload> reply = client.Handle(
      tasks::kFitFinal, SpecConfigRequest(BasicSpec(), LassoConfig()));
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<std::vector<double>> blob = reply->GetTensor("model_blob");
  ASSERT_TRUE(blob.ok());
  Result<std::unique_ptr<ml::Regressor>> model =
      DeserializeModel(LassoConfig(), *blob);
  ASSERT_TRUE(model.ok());
}

TEST(ForecastClientTest, EvaluateModelOnTestTail) {
  ForecastClient client("c0", TestSeries(500, 6), ForecastClient::Options{});
  Result<fl::Payload> fit = client.Handle(
      tasks::kFitFinal, SpecConfigRequest(BasicSpec(), LassoConfig()));
  ASSERT_TRUE(fit.ok());
  fl::Payload request = SpecConfigRequest(BasicSpec(), LassoConfig());
  request.SetTensor("model_blob", *fit->GetTensor("model_blob"));
  Result<fl::Payload> eval = client.Handle(tasks::kEvaluateModel, request);
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_GE(*eval->GetDouble("test_loss"), 0.0);
  EXPECT_GT(*eval->GetInt("n_test"), 0);
}

TEST(ForecastClientTest, XgbModelsFlowThroughSerialization) {
  ForecastClient client("c0", TestSeries(500, 7), ForecastClient::Options{});
  Configuration xgb;
  xgb.algorithm = AlgorithmId::kXgb;
  xgb.numeric = {{"n_estimators", 8},
                 {"max_depth", 3},
                 {"learning_rate", 0.2},
                 {"reg_lambda", 1.0},
                 {"subsample", 1.0}};
  Result<fl::Payload> fit =
      client.Handle(tasks::kFitFinal, SpecConfigRequest(BasicSpec(), xgb));
  ASSERT_TRUE(fit.ok()) << fit.status();
  fl::Payload request = SpecConfigRequest(BasicSpec(), xgb);
  request.SetTensor("model_blob", *fit->GetTensor("model_blob"));
  Result<fl::Payload> eval = client.Handle(tasks::kEvaluateModel, request);
  ASSERT_TRUE(eval.ok()) << eval.status();
}

TEST(ForecastClientTest, UnknownTaskIsUnimplemented) {
  ForecastClient client("c0", TestSeries(200, 8), ForecastClient::Options{});
  EXPECT_EQ(client.Handle("bogus", fl::Payload()).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ForecastClientTest, MissingPayloadKeysRejected) {
  ForecastClient client("c0", TestSeries(200, 9), ForecastClient::Options{});
  EXPECT_FALSE(client.Handle(tasks::kFitEvaluate, fl::Payload()).ok());
  fl::Payload only_spec;
  only_spec.SetTensor("spec", BasicSpec().ToTensor());
  EXPECT_FALSE(client.Handle(tasks::kFitEvaluate, only_spec).ok());
}

TEST(ForecastClientTest, WorksThroughServerBroadcast) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<size_t> sizes;
  for (int j = 0; j < 3; ++j) {
    ts::Series s = TestSeries(400, static_cast<uint64_t>(10 + j));
    sizes.push_back(s.size());
    clients.push_back(std::make_shared<ForecastClient>(
        "c" + std::to_string(j), s, ForecastClient::Options{}));
  }
  fl::Server server(std::make_unique<fl::InProcessTransport>(clients), sizes);
  Result<fl::CollectedRound> round = fl::CollectRound(
      server, fl::RoundSpec(tasks::kFitEvaluate,
                            SpecConfigRequest(BasicSpec(), LassoConfig())));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->replies.size(), 3u);
  Result<double> global = fl::AlphaWeightedMean(*round, "valid_loss");
  ASSERT_TRUE(global.ok());
  EXPECT_GE(*global, 0.0);
}

}  // namespace
}  // namespace fedfc::automl
