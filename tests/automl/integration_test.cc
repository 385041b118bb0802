/// Cross-module integration tests: the full federated AutoML pipeline under
/// transport failures, determinism guarantees, and protocol invariants.

#include <gtest/gtest.h>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "data/generators.h"
#include "fl/transport.h"
#include "flaky_transport.h"

namespace fedfc::automl {
namespace {

std::vector<ts::Series> MakeSplits(size_t n_clients, size_t per_client,
                                   uint64_t seed) {
  Rng rng(seed);
  data::SignalSpec spec;
  spec.length = n_clients * per_client;
  spec.level = 10.0;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.noise_std = 0.3;
  spec.ar_coefficient = 0.5;
  ts::Series series = data::GenerateSignal(spec, &rng);
  return *ts::SplitIntoClients(series, static_cast<int>(n_clients));
}

std::vector<std::shared_ptr<fl::Client>> MakeClients(
    const std::vector<ts::Series>& splits, uint64_t seed,
    std::vector<size_t>* sizes) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  for (size_t j = 0; j < splits.size(); ++j) {
    ForecastClient::Options opt;
    opt.seed = seed + j;
    sizes->push_back(splits[j].size());
    clients.push_back(std::make_shared<ForecastClient>(
        "c" + std::to_string(j), splits[j], opt));
  }
  return clients;
}

EngineOptions FastOptions(uint64_t seed) {
  EngineOptions opt;
  opt.use_meta_model = false;
  opt.max_iterations = 5;
  opt.time_budget_seconds = 60.0;
  opt.bo.n_candidates = 64;
  opt.seed = seed;
  return opt;
}

TEST(IntegrationTest, SurvivesFlakyTransport) {
  std::vector<ts::Series> splits = MakeSplits(6, 150, 1);
  std::vector<size_t> sizes;
  auto clients = MakeClients(splits, 2, &sizes);
  auto inner = std::make_unique<fl::InProcessTransport>(std::move(clients));
  // 20% of all messages fail; the engine must still complete.
  fl::Server server(
      std::make_unique<fl::FlakyTransport>(std::move(inner), 0.2, 99), sizes);
  FedForecasterEngine engine(nullptr, FastOptions(3));
  Result<EngineReport> report = engine.Run(&server);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->test_loss, 0.0);
}

TEST(IntegrationTest, FullyDeterministicGivenSeed) {
  auto run_once = [&]() {
    std::vector<ts::Series> splits = MakeSplits(4, 150, 7);
    std::vector<size_t> sizes;
    auto clients = MakeClients(splits, 11, &sizes);
    fl::Server server(std::make_unique<fl::InProcessTransport>(std::move(clients)),
                      sizes);
    FedForecasterEngine engine(nullptr, FastOptions(13));
    return engine.Run(&server);
  };
  Result<EngineReport> a = run_once();
  Result<EngineReport> b = run_once();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->best_config.ToString(), b->best_config.ToString());
  EXPECT_DOUBLE_EQ(a->best_valid_loss, b->best_valid_loss);
  EXPECT_DOUBLE_EQ(a->test_loss, b->test_loss);
  EXPECT_EQ(a->loss_history, b->loss_history);
  EXPECT_EQ(a->global_model_blob, b->global_model_blob);
}

TEST(IntegrationTest, DifferentSeedsExploreDifferently) {
  std::vector<ts::Series> splits = MakeSplits(4, 150, 17);
  auto run_with = [&](uint64_t seed) {
    std::vector<size_t> sizes;
    auto clients = MakeClients(splits, 19, &sizes);
    fl::Server server(std::make_unique<fl::InProcessTransport>(std::move(clients)),
                      sizes);
    FedForecasterEngine engine(nullptr, FastOptions(seed));
    return engine.Run(&server);
  };
  Result<EngineReport> a = run_with(1);
  Result<EngineReport> b = run_with(2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->loss_history, b->loss_history);
}

TEST(IntegrationTest, TransportVolumeScalesWithClients) {
  auto volume_for = [&](size_t n_clients) {
    std::vector<ts::Series> splits = MakeSplits(n_clients, 150, 23);
    std::vector<size_t> sizes;
    auto clients = MakeClients(splits, 29, &sizes);
    fl::Server server(std::make_unique<fl::InProcessTransport>(std::move(clients)),
                      sizes);
    FedForecasterEngine engine(nullptr, FastOptions(31));
    Result<EngineReport> report = engine.Run(&server);
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->transport.bytes_to_clients : 0;
  };
  size_t small = volume_for(2);
  size_t large = volume_for(8);
  EXPECT_GT(large, 2 * small);
}

TEST(IntegrationTest, EvaluateTestFlagSkipsTestEvaluation) {
  std::vector<ts::Series> splits = MakeSplits(3, 150, 37);
  std::vector<size_t> sizes;
  auto clients = MakeClients(splits, 41, &sizes);
  fl::Server server(std::make_unique<fl::InProcessTransport>(std::move(clients)),
                    sizes);
  EngineOptions opt = FastOptions(43);
  opt.evaluate_test = false;
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(&server);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->test_loss, 0.0);  // Untouched default.
  EXPECT_FALSE(report->global_model_blob.empty());
}

TEST(IntegrationTest, ClientsNeverLeakRawObservations) {
  // Protocol audit: inspect every payload a client emits for the engine's
  // tasks and verify no tensor is long enough to be the raw series.
  std::vector<ts::Series> splits = MakeSplits(3, 200, 47);
  ForecastClient::Options copt;
  copt.seed = 53;
  ForecastClient client("audit", splits[0], copt);

  features::FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  Configuration config;
  config.algorithm = AlgorithmId::kLasso;
  config.numeric["alpha"] = 1e-3;
  config.categorical["selection"] = "cyclic";

  fl::Payload fit_request;
  fit_request.SetTensor("spec", spec.ToTensor());
  fit_request.SetTensor("config", config.ToTensor());

  std::vector<std::pair<std::string, fl::Payload>> exchanges;
  Result<fl::Payload> mf = client.Handle(tasks::kMetaFeatures, fl::Payload());
  ASSERT_TRUE(mf.ok());
  exchanges.emplace_back(tasks::kMetaFeatures, *mf);
  Result<fl::Payload> fe = client.Handle(tasks::kFitEvaluate, fit_request);
  ASSERT_TRUE(fe.ok());
  exchanges.emplace_back(tasks::kFitEvaluate, *fe);

  const size_t raw_length = splits[0].size();
  for (const auto& [task, payload] : exchanges) {
    for (const std::string& key : payload.Keys()) {
      Result<std::vector<double>> tensor = payload.GetTensor(key);
      if (!tensor.ok()) continue;  // Scalars are fine.
      EXPECT_LT(tensor->size(), raw_length)
          << task << "/" << key << " is large enough to carry the raw series";
    }
  }
}

}  // namespace
}  // namespace fedfc::automl
