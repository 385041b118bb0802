#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/linear/coordinate_descent.h"
#include "ml/linear/elastic_net.h"
#include "ml/linear/huber.h"
#include "ml/linear/lasso.h"
#include "ml/linear/linear_svr.h"
#include "ml/linear/quantile.h"
#include "ml/metrics.h"

namespace fedfc::ml {
namespace {

/// y = 1.5 + 2 x0 - 3 x1 (+ noise), 5 distractor features.
struct LinearProblem {
  Matrix x;
  std::vector<double> y;
};

LinearProblem MakeProblem(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  LinearProblem p;
  p.x = Matrix(n, 7);
  p.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 7; ++j) p.x(i, j) = rng.Uniform(-2, 2);
    p.y[i] = 1.5 + 2.0 * p.x(i, 0) - 3.0 * p.x(i, 1) + rng.Normal(0.0, noise);
  }
  return p;
}

double FitPredictMse(Regressor* model, const LinearProblem& p, uint64_t seed) {
  Rng rng(seed);
  Status s = model->Fit(p.x, p.y, &rng);
  EXPECT_TRUE(s.ok()) << s;
  return MeanSquaredError(p.y, model->Predict(p.x));
}

TEST(SoftThresholdTest, KnownValues) {
  EXPECT_DOUBLE_EQ(SoftThreshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(0.5, 1.0), 0.0);
}

TEST(LassoTest, RecoversSignalWithSmallAlpha) {
  LinearProblem p = MakeProblem(300, 0.01, 1);
  LassoRegressor::Config cfg;
  cfg.alpha = 1e-4;
  LassoRegressor model(cfg);
  double mse = FitPredictMse(&model, p, 2);
  EXPECT_LT(mse, 0.01);
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.05);
  EXPECT_NEAR(model.intercept(), 1.5, 0.05);
}

TEST(LassoTest, LargeAlphaShrinksToZero) {
  LinearProblem p = MakeProblem(300, 0.01, 3);
  LassoRegressor::Config cfg;
  cfg.alpha = 100.0;
  LassoRegressor model(cfg);
  Rng rng(4);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  for (double w : model.weights()) EXPECT_NEAR(w, 0.0, 1e-9);
}

TEST(LassoTest, SparsityIncreasesWithAlpha) {
  LinearProblem p = MakeProblem(300, 0.1, 5);
  auto count_nonzero = [&](double alpha) {
    LassoRegressor::Config cfg;
    cfg.alpha = alpha;
    LassoRegressor model(cfg);
    Rng rng(6);
    EXPECT_TRUE(model.Fit(p.x, p.y, &rng).ok());
    size_t nz = 0;
    for (double w : model.weights()) {
      if (std::fabs(w) > 1e-8) ++nz;
    }
    return nz;
  };
  EXPECT_GE(count_nonzero(1e-4), count_nonzero(0.5));
  EXPECT_LE(count_nonzero(0.5), 2u);  // Only true signals survive.
}

TEST(LassoTest, RandomSelectionMatchesCyclicQuality) {
  LinearProblem p = MakeProblem(200, 0.05, 7);
  LassoRegressor::Config cyc;
  cyc.alpha = 0.01;
  cyc.selection = CdSelection::kCyclic;
  LassoRegressor m1(cyc);
  LassoRegressor::Config rnd = cyc;
  rnd.selection = CdSelection::kRandom;
  LassoRegressor m2(rnd);
  double mse1 = FitPredictMse(&m1, p, 8);
  double mse2 = FitPredictMse(&m2, p, 9);
  EXPECT_NEAR(mse1, mse2, 0.05);
}

TEST(LassoTest, RejectsNegativeAlpha) {
  LassoRegressor::Config cfg;
  cfg.alpha = -1.0;
  LassoRegressor model(cfg);
  LinearProblem p = MakeProblem(50, 0.1, 10);
  Rng rng(11);
  EXPECT_FALSE(model.Fit(p.x, p.y, &rng).ok());
}

TEST(ElasticNetCvTest, PicksAlphaAndFits) {
  LinearProblem p = MakeProblem(400, 0.1, 14);
  ElasticNetCvRegressor::Config cfg;
  cfg.l1_ratio = 0.7;
  ElasticNetCvRegressor model(cfg);
  double mse = FitPredictMse(&model, p, 15);
  EXPECT_LT(mse, 0.2);
  EXPECT_GT(model.chosen_alpha(), 0.0);
}

TEST(ElasticNetCvTest, RejectsConfigsItCannotFit) {
  // An empty alpha path has no alpha to refit with, and a ratio outside
  // (0, 1] puts zero, negative, non-finite or rising strengths on the path.
  LinearProblem p = MakeProblem(60, 0.1, 18);
  ElasticNetCvRegressor::Config no_alphas;
  no_alphas.n_alphas = 0;
  std::vector<ElasticNetCvRegressor::Config> configs = {no_alphas};
  for (double ratio : {0.0, -0.5, 1.5, std::nan(""), HUGE_VAL}) {
    ElasticNetCvRegressor::Config cfg;
    cfg.alpha_min_ratio = ratio;
    configs.push_back(cfg);
  }
  for (const ElasticNetCvRegressor::Config& cfg : configs) {
    ElasticNetCvRegressor model(cfg);
    Rng rng(19);
    Status s = model.Fit(p.x, p.y, &rng);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "n_alphas " << cfg.n_alphas << ", alpha_min_ratio " << cfg.alpha_min_ratio;
  }
}

TEST(ElasticNetCvTest, L1RatioAboveOneIsClipped) {
  // Table 2 allows l1_ratio up to 10; it must behave like pure Lasso.
  LinearProblem p = MakeProblem(200, 0.05, 16);
  ElasticNetCvRegressor::Config cfg;
  cfg.l1_ratio = 10.0;
  ElasticNetCvRegressor model(cfg);
  EXPECT_LT(FitPredictMse(&model, p, 17), 0.2);
}

TEST(LinearSvrTest, FitsCleanSignal) {
  LinearProblem p = MakeProblem(400, 0.01, 18);
  LinearSvrRegressor::Config cfg;
  cfg.c = 5.0;
  cfg.epsilon = 0.02;
  LinearSvrRegressor model(cfg);
  double mse = FitPredictMse(&model, p, 19);
  EXPECT_LT(mse, 0.1);
}

TEST(LinearSvrTest, EpsilonInsensitivityToleratesSmallNoise) {
  // With epsilon much larger than the noise, the loss is almost flat and the
  // fit still lands near the true function thanks to regularization pull.
  LinearProblem p = MakeProblem(400, 0.02, 20);
  LinearSvrRegressor::Config cfg;
  cfg.c = 10.0;
  cfg.epsilon = 0.1;
  LinearSvrRegressor model(cfg);
  EXPECT_LT(FitPredictMse(&model, p, 21), 0.3);
}

TEST(LinearSvrTest, RejectsInvalidConfig) {
  LinearProblem p = MakeProblem(50, 0.1, 22);
  Rng rng(23);
  LinearSvrRegressor::Config bad_c;
  bad_c.c = 0.0;
  LinearSvrRegressor m1(bad_c);
  EXPECT_FALSE(m1.Fit(p.x, p.y, &rng).ok());
  LinearSvrRegressor::Config bad_eps;
  bad_eps.epsilon = -0.1;
  LinearSvrRegressor m2(bad_eps);
  EXPECT_FALSE(m2.Fit(p.x, p.y, &rng).ok());
}

TEST(HuberTest, FitsCleanSignalExactly) {
  LinearProblem p = MakeProblem(300, 0.0, 24);
  HuberRegressor model;
  double mse = FitPredictMse(&model, p, 25);
  EXPECT_LT(mse, 1e-6);
}

TEST(HuberTest, RobustToOutliers) {
  LinearProblem p = MakeProblem(300, 0.05, 26);
  // Corrupt 5% of the targets badly.
  Rng corrupt(27);
  LinearProblem corrupted = p;
  for (size_t i = 0; i < p.y.size(); i += 20) {
    corrupted.y[i] += corrupt.Uniform(50, 100);
  }
  HuberRegressor model;
  Rng rng(28);
  ASSERT_TRUE(model.Fit(corrupted.x, corrupted.y, &rng).ok());
  // Evaluate against the clean targets: robust fit should stay close.
  double mse = MeanSquaredError(p.y, model.Predict(p.x));
  EXPECT_LT(mse, 1.0);
}

TEST(HuberTest, RejectsEpsilonBelowOne) {
  HuberRegressor::Config cfg;
  cfg.epsilon = 0.5;
  HuberRegressor model(cfg);
  LinearProblem p = MakeProblem(50, 0.1, 29);
  Rng rng(30);
  EXPECT_FALSE(model.Fit(p.x, p.y, &rng).ok());
}

TEST(QuantileTest, MedianFitTracksCentralTendency) {
  LinearProblem p = MakeProblem(500, 0.1, 31);
  QuantileRegressor::Config cfg;
  cfg.quantile = 0.5;
  cfg.alpha = 1e-4;
  QuantileRegressor model(cfg);
  EXPECT_LT(FitPredictMse(&model, p, 32), 0.5);
}

TEST(QuantileTest, HighQuantileSitsAboveLowQuantile) {
  // Pure noise target: the q=0.9 fit should predict above the q=0.1 fit.
  Rng rng(33);
  Matrix x(600, 1);
  std::vector<double> y(600);
  for (size_t i = 0; i < 600; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    y[i] = rng.Normal(0.0, 1.0);
  }
  QuantileRegressor::Config hi_cfg;
  hi_cfg.quantile = 0.9;
  hi_cfg.alpha = 1e-5;
  QuantileRegressor hi(hi_cfg);
  QuantileRegressor::Config lo_cfg = hi_cfg;
  lo_cfg.quantile = 0.1;
  QuantileRegressor lo(lo_cfg);
  Rng r1(34), r2(35);
  ASSERT_TRUE(hi.Fit(x, y, &r1).ok());
  ASSERT_TRUE(lo.Fit(x, y, &r2).ok());
  EXPECT_GT(hi.intercept(), lo.intercept() + 0.5);
}

TEST(LinearBaseTest, ParameterRoundTripPreservesPredictions) {
  LinearProblem p = MakeProblem(200, 0.05, 36);
  LassoRegressor::Config cfg;
  cfg.alpha = 1e-3;
  LassoRegressor model(cfg);
  Rng rng(37);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  std::vector<double> params = model.GetParameters();
  EXPECT_EQ(params.size(), 8u);  // 7 weights + intercept.

  LassoRegressor clone;
  ASSERT_TRUE(clone.SetParameters(params).ok());
  std::vector<double> a = model.Predict(p.x);
  std::vector<double> b = clone.Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(LinearBaseTest, AllLinearModelsSupportAveraging) {
  EXPECT_TRUE(LassoRegressor().SupportsParameterAveraging());
  EXPECT_TRUE(LinearSvrRegressor().SupportsParameterAveraging());
  EXPECT_TRUE(ElasticNetCvRegressor().SupportsParameterAveraging());
  EXPECT_TRUE(HuberRegressor().SupportsParameterAveraging());
  EXPECT_TRUE(QuantileRegressor().SupportsParameterAveraging());
}

TEST(LinearBaseTest, CloneIsIndependentDeepCopy) {
  LinearProblem p = MakeProblem(100, 0.05, 38);
  HuberRegressor model;
  Rng rng(39);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  std::unique_ptr<Regressor> clone = model.Clone();
  std::vector<double> a = model.Predict(p.x);
  std::vector<double> b = clone->Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// Property sweep: every Table 2 linear algorithm beats the mean predictor on
// a clean linear problem.
class LinearFamilyTest
    : public ::testing::TestWithParam<std::function<std::unique_ptr<Regressor>()>> {
};

TEST_P(LinearFamilyTest, BeatsMeanPredictor) {
  LinearProblem p = MakeProblem(300, 0.05, 40);
  std::unique_ptr<Regressor> model = GetParam()();
  Rng rng(41);
  ASSERT_TRUE(model->Fit(p.x, p.y, &rng).ok()) << model->Name();
  double mse = MeanSquaredError(p.y, model->Predict(p.x));
  double mean_mse = MeanSquaredError(
      p.y, std::vector<double>(p.y.size(),
                               std::accumulate(p.y.begin(), p.y.end(), 0.0) /
                                   static_cast<double>(p.y.size())));
  EXPECT_LT(mse, 0.5 * mean_mse) << model->Name();
}

INSTANTIATE_TEST_SUITE_P(
    AllLinear, LinearFamilyTest,
    ::testing::Values(
        [] { return std::unique_ptr<Regressor>(new LassoRegressor(
                 LassoRegressor::Config{.alpha = 1e-3})); },
        [] { return std::unique_ptr<Regressor>(new ElasticNetCvRegressor()); },
        [] { return std::unique_ptr<Regressor>(new LinearSvrRegressor()); },
        [] { return std::unique_ptr<Regressor>(new HuberRegressor()); },
        [] {
          return std::unique_ptr<Regressor>(new QuantileRegressor(
              QuantileRegressor::Config{.quantile = 0.5, .alpha = 1e-5}));
        }));

}  // namespace
}  // namespace fedfc::ml
