// Parity oracle for the coordinate-descent families (Lasso, ElasticNetCV):
// CRC32 digests of the exact bits they fit on a seeded problem, and of a
// seeded Bayesian-optimization engine run that fits both, plus that run's
// search path in plain values. Every pinned path runs on the scalar kernel
// backend and, where the CPU has it, on AVX2: neither family goes through the
// kernel layer, so both backends must read the same constants. The constants
// were recorded on x86-64 (GCC 12, glibc) with the covariance-form solver.
//
// The digests (LinearPinTest.*Digest*) move whenever the solver's rounding
// moves; a change that does so updates them on purpose and says so. The
// search path (LinearPinTest.EngineRunSearchPath) is stricter: the best
// configuration must read the same string, and every loss in the history
// must hold to 1e-9 relative, across any change of solver arithmetic.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "backend_guard.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "data/generators.h"
#include "fl/task_codec.h"
#include "fl/transport.h"
#include "ml/kernels/kernels.h"
#include "ml/linear/elastic_net.h"
#include "ml/linear/lasso.h"

namespace fedfc::automl {
namespace {

uint32_t Digest(const std::vector<double>& values) {
  return Crc32(reinterpret_cast<const uint8_t*>(values.data()),
               values.size() * sizeof(double));
}

/// Every backend this CPU can run, scalar first.
std::vector<ml::kernels::BackendKind> Backends() {
  std::vector<ml::kernels::BackendKind> kinds = {ml::kernels::BackendKind::kScalar};
  if (ml::kernels::Avx2BackendOrNull() != nullptr) {
    kinds.push_back(ml::kernels::BackendKind::kAvx2);
  }
  return kinds;
}

/// Runs `body` once per backend with that backend forced.
template <typename Body>
void OnEveryBackend(Body body) {
  for (ml::kernels::BackendKind kind : Backends()) {
    ml::BackendGuard guard(kind);
    SCOPED_TRACE(kind == ml::kernels::BackendKind::kAvx2 ? "avx2" : "scalar");
    body();
  }
}

struct Problem {
  Matrix x;
  std::vector<double> y;
};

/// Autoregressive lag features like the engine's engineered matrices: six
/// correlated lags of a noisy AR(2) series, a seasonal sine and a noise
/// column, so coordinate descent takes many passes and some weights stay at
/// zero.
Problem MakeLagProblem() {
  constexpr size_t kRows = 160;
  constexpr size_t kLags = 6;
  Rng rng(2025);
  std::vector<double> s(kRows + kLags, 0.0);
  for (size_t t = 2; t < s.size(); ++t) {
    s[t] = 0.6 * s[t - 1] - 0.2 * s[t - 2] +
           std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0) + 0.4 * rng.Normal();
  }
  Problem p;
  p.x = Matrix(kRows, kLags + 2);
  p.y.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const size_t t = i + kLags;
    for (size_t j = 0; j < kLags; ++j) p.x(i, j) = s[t - 1 - j];
    p.x(i, kLags) = std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0);
    p.x(i, kLags + 1) = rng.Normal();
    p.y[i] = s[t];
  }
  return p;
}

uint32_t LassoDigest(ml::CdSelection selection) {
  const Problem p = MakeLagProblem();
  ml::LassoRegressor::Config cfg;
  cfg.alpha = 0.01;
  cfg.selection = selection;
  ml::LassoRegressor model(cfg);
  Rng rng(11);
  EXPECT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  return Digest(model.GetParameters());
}

uint32_t ElasticNetCvDigest(ml::CdSelection selection, double l1_ratio) {
  const Problem p = MakeLagProblem();
  ml::ElasticNetCvRegressor::Config cfg;
  cfg.l1_ratio = l1_ratio;
  cfg.selection = selection;
  ml::ElasticNetCvRegressor model(cfg);
  Rng rng(13);
  EXPECT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  std::vector<double> bits = model.GetParameters();
  bits.push_back(model.chosen_alpha());
  return Digest(bits);
}

TEST(LinearPinTest, LassoDigestCyclic) {
  OnEveryBackend([] { EXPECT_EQ(LassoDigest(ml::CdSelection::kCyclic), 0x19ee4f78u); });
}

TEST(LinearPinTest, LassoDigestRandom) {
  OnEveryBackend([] { EXPECT_EQ(LassoDigest(ml::CdSelection::kRandom), 0x68e4df5au); });
}

TEST(LinearPinTest, ElasticNetCvDigestCyclic) {
  OnEveryBackend([] {
    EXPECT_EQ(ElasticNetCvDigest(ml::CdSelection::kCyclic, 0.5), 0x8010110cu);
    EXPECT_EQ(ElasticNetCvDigest(ml::CdSelection::kCyclic, 5.0), 0x624929cfu);
  });
}

TEST(LinearPinTest, ElasticNetCvDigestRandom) {
  OnEveryBackend([] {
    EXPECT_EQ(ElasticNetCvDigest(ml::CdSelection::kRandom, 0.5), 0x68cace77u);
    EXPECT_EQ(ElasticNetCvDigest(ml::CdSelection::kRandom, 5.0), 0x68392bdau);
  });
}

/// Per-family counts of the fit_evaluate tasks the clients received.
struct FitCounts {
  std::atomic<int> lasso{0};
  std::atomic<int> elastic_net_cv{0};
};

/// Forwards every task to `inner` and counts the Lasso and ElasticNetCV
/// configurations it is asked to fit and evaluate.
class CountingClient : public fl::Client {
 public:
  CountingClient(std::shared_ptr<fl::Client> inner, std::shared_ptr<FitCounts> counts)
      : inner_(std::move(inner)), counts_(std::move(counts)) {}

  std::string id() const override { return inner_->id(); }
  size_t num_examples() const override { return inner_->num_examples(); }

  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request) override {
    if (task == fl::tasks::kFitEvaluate) {
      FEDFC_ASSIGN_OR_RETURN(fl::FitEvaluateRequest fit,
                             fl::FitEvaluateRequest::FromPayload(request));
      FEDFC_ASSIGN_OR_RETURN(Configuration config,
                             Configuration::FromTensor(fit.config));
      if (config.algorithm == AlgorithmId::kLasso) ++counts_->lasso;
      if (config.algorithm == AlgorithmId::kElasticNetCv) ++counts_->elastic_net_cv;
    }
    return inner_->Handle(task, request);
  }

 private:
  std::shared_ptr<fl::Client> inner_;
  std::shared_ptr<FitCounts> counts_;
};

/// A seeded BO run over all six families (no meta-model), stopped on a
/// fixed iteration count with no time budget, on in-process clients.
EngineReport RunPinnedEngine() {
  Rng rng(63);
  data::SignalSpec spec;
  spec.length = 4 * 120;
  spec.level = 10.0;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.noise_std = 0.3;
  spec.ar_coefficient = 0.5;
  const ts::Series series = data::GenerateSignal(spec, &rng);
  const std::vector<ts::Series> splits = *ts::SplitIntoClients(series, 4);
  auto counts = std::make_shared<FitCounts>();
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<size_t> sizes;
  for (size_t j = 0; j < splits.size(); ++j) {
    ForecastClient::Options opt;
    opt.seed = 70 + j;
    sizes.push_back(splits[j].size());
    clients.push_back(std::make_shared<CountingClient>(
        std::make_shared<ForecastClient>("c" + std::to_string(j), splits[j], opt),
        counts));
  }
  fl::Server server(std::make_unique<fl::InProcessTransport>(std::move(clients)),
                    sizes);
  EngineOptions opt;
  opt.strategy = SearchStrategy::kBayesOpt;
  opt.use_meta_model = false;
  opt.max_iterations = 16;
  opt.time_budget_seconds = std::numeric_limits<double>::infinity();
  opt.bo.n_candidates = 64;
  opt.seed = 67;
  FedForecasterEngine engine(nullptr, opt);
  Result<EngineReport> report = engine.Run(&server);
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_GT(counts->lasso.load(), 0) << "the pinned run fitted no Lasso";
  EXPECT_GT(counts->elastic_net_cv.load(), 0)
      << "the pinned run fitted no ElasticNetCV";
  return report.ok() ? *report : EngineReport();
}

TEST(LinearPinTest, EngineRunDigests) {
  OnEveryBackend([] {
    const EngineReport report = RunPinnedEngine();
    EXPECT_EQ(Digest(report.loss_history), 0x5d9e5bd7u);
    EXPECT_EQ(Digest({report.test_loss}), 0xbace5654u);
    EXPECT_EQ(Digest(report.global_model_blob), 0x154ee9beu);
  });
}

TEST(LinearPinTest, EngineRunSearchPath) {
  const std::vector<double> expected_history = {
      2.151152793482467,   0.15013051340357381, 0.1429439923997764,
      0.32291686913918749, 0.16929760920512565, 5.3350092731015071,
      0.1603104587052156,  0.15361691873292585, 0.14294179895398293,
      0.17222861949607754, 0.15419285896143317, 0.23018709027366782,
      0.1951969490189662,  0.39601174699349201, 1.404012654987985,
      0.18930393166099613};
  OnEveryBackend([&] {
    const EngineReport report = RunPinnedEngine();
    EXPECT_EQ(report.best_config.ToString(),
              "ElasticNetCV(l1_ratio=9.6889, selection=random)");
    ASSERT_EQ(report.loss_history.size(), expected_history.size());
    for (size_t i = 0; i < expected_history.size(); ++i) {
      EXPECT_NEAR(report.loss_history[i], expected_history[i],
                  1e-9 * std::fabs(expected_history[i]))
          << "iteration " << i;
    }
  });
}

}  // namespace
}  // namespace fedfc::automl
