/// Edge-case sweep for the linear family: degenerate designs, constant
/// targets, and scale invariance — failure modes the federated loop must
/// survive because clients control their own data.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/linear/elastic_net.h"
#include "ml/linear/huber.h"
#include "ml/linear/lasso.h"
#include "ml/linear/linear_svr.h"
#include "ml/linear/quantile.h"
#include "ml/metrics.h"

namespace fedfc::ml {
namespace {

TEST(LinearEdgeTest, ConstantTargetFitsWithoutBlowup) {
  Rng rng(1);
  Matrix x(60, 3);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<double> y(60, 7.5);
  LassoRegressor model;
  Rng fit_rng(2);
  ASSERT_TRUE(model.Fit(x, y, &fit_rng).ok());
  for (double p : model.Predict(x)) EXPECT_NEAR(p, 7.5, 0.1);
}

TEST(LinearEdgeTest, ConstantFeatureColumnIgnored) {
  Rng rng(3);
  Matrix x(80, 2);
  std::vector<double> y(80);
  for (size_t i = 0; i < 80; ++i) {
    x(i, 0) = 5.0;  // Constant column.
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = 3.0 * x(i, 1);
  }
  LassoRegressor::Config cfg;
  cfg.alpha = 1e-4;
  LassoRegressor model(cfg);
  Rng fit_rng(4);
  ASSERT_TRUE(model.Fit(x, y, &fit_rng).ok());
  EXPECT_LT(MeanSquaredError(y, model.Predict(x)), 0.01);
}

TEST(LinearEdgeTest, SingleFeatureProblem) {
  Rng rng(5);
  Matrix x(50, 1);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    y[i] = 2.0 * x(i, 0) + 1.0;
  }
  HuberRegressor model;
  Rng fit_rng(6);
  ASSERT_TRUE(model.Fit(x, y, &fit_rng).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.intercept(), 1.0, 0.3);
}

TEST(LinearEdgeTest, PredictionsScaleEquivariant) {
  // Scaling the target by 1000 should scale predictions by ~1000 (the
  // internal standardization must round-trip).
  Rng rng(7);
  Matrix x(100, 2);
  std::vector<double> y(100), y_big(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = x(i, 0) - 0.5 * x(i, 1);
    y_big[i] = 1000.0 * y[i];
  }
  ElasticNetCvRegressor small, big;
  Rng r1(8), r2(8);
  ASSERT_TRUE(small.Fit(x, y, &r1).ok());
  ASSERT_TRUE(big.Fit(x, y_big, &r2).ok());
  std::vector<double> ps = small.Predict(x);
  std::vector<double> pb = big.Predict(x);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(pb[i], 1000.0 * ps[i], 30.0) << i;
  }
}

TEST(LinearEdgeTest, RejectsShapeMismatches) {
  Matrix x(10, 2, 1.0);
  std::vector<double> wrong_y(5, 0.0);
  Rng rng(9);
  LassoRegressor lasso;
  EXPECT_FALSE(lasso.Fit(x, wrong_y, &rng).ok());
  LinearSvrRegressor svr;
  EXPECT_FALSE(svr.Fit(Matrix(), {}, &rng).ok());
}

TEST(LinearEdgeTest, SetParametersRejectsEmpty) {
  QuantileRegressor model;
  EXPECT_FALSE(model.SetParameters({}).ok());
}

TEST(LinearEdgeTest, TinySampleCountsStillFit) {
  // 10 rows, 3 features: every family must return something finite.
  Rng rng(10);
  Matrix x(10, 3);
  std::vector<double> y(10);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Normal();
    y[i] = x(i, 0) + rng.Normal(0, 0.1);
  }
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<LassoRegressor>());
  models.push_back(std::make_unique<LinearSvrRegressor>());
  models.push_back(std::make_unique<HuberRegressor>());
  models.push_back(std::make_unique<QuantileRegressor>());
  for (auto& model : models) {
    Rng fit_rng(11);
    ASSERT_TRUE(model->Fit(x, y, &fit_rng).ok()) << model->Name();
    for (double p : model->Predict(x)) {
      EXPECT_TRUE(std::isfinite(p)) << model->Name();
    }
  }
}

TEST(LinearEdgeTest, LassoRejectsNanAlpha) {
  Rng rng(12);
  Matrix x(40, 2);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
    y[i] = x(i, 0) - x(i, 1);
  }
  LassoRegressor::Config cfg;
  cfg.alpha = std::numeric_limits<double>::quiet_NaN();
  LassoRegressor model(cfg);
  Rng fit_rng(13);
  EXPECT_EQ(model.Fit(x, y, &fit_rng).code(), StatusCode::kInvalidArgument);
}

TEST(LinearEdgeTest, ElasticNetCvRejectsNanL1Ratio) {
  // Clamp(NaN, 0, 1) reads 1, which would silently fit pure Lasso.
  Rng rng(14);
  Matrix x(40, 2);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
    y[i] = x(i, 0) - x(i, 1);
  }
  ElasticNetCvRegressor::Config cfg;
  cfg.l1_ratio = std::numeric_limits<double>::quiet_NaN();
  ElasticNetCvRegressor model(cfg);
  Rng fit_rng(15);
  EXPECT_EQ(model.Fit(x, y, &fit_rng).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fedfc::ml
