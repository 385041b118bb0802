// Parity oracle for the boosted-tree code: CRC32 digests of the exact bits
// the Table 4 boosters predict, of a subsampled XGBRegressor blob, and of the
// federated XGB and linear folds. The constants were recorded on x86-64
// (GCC 12, glibc) before the three boosters were moved onto one tree type;
// a change that alters any seeded number on these paths updates them on
// purpose and says so.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "automl/meta_model.h"
#include "automl/model_io.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "ml/tree/gbdt.h"

namespace fedfc::automl {
namespace {

uint32_t Digest(const std::vector<double>& values) {
  return Crc32(reinterpret_cast<const uint8_t*>(values.data()),
               values.size() * sizeof(double));
}

/// Four features: two informative, one noise, one with heavy ties (a
/// rounded copy of the first) so split finders meet duplicate values.
Matrix MakeFeatures(size_t n, Rng* rng) {
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng->Uniform(-3, 3);
    x(i, 1) = rng->Uniform(-3, 3);
    x(i, 2) = rng->Normal();
    x(i, 3) = std::round(x(i, 0));
  }
  return x;
}

struct ThreeClass {
  Matrix x;
  std::vector<int> y;
  Matrix x_eval;
};

ThreeClass MakeThreeClass() {
  Rng rng(2024);
  ThreeClass p;
  p.x = MakeFeatures(240, &rng);
  p.y.resize(p.x.rows());
  for (size_t i = 0; i < p.x.rows(); ++i) {
    const double s = p.x(i, 0) + 0.5 * std::sin(2.0 * p.x(i, 1)) +
                     0.3 * rng.Normal();
    p.y[i] = s < -1.0 ? 0 : (s < 1.0 ? 1 : 2);
  }
  p.x_eval = MakeFeatures(160, &rng);
  return p;
}

uint32_t PredictProbaDigest(const std::string& name) {
  const ThreeClass p = MakeThreeClass();
  for (const auto& [candidate, factory] : MetaModelCandidates()) {
    if (candidate != name) continue;
    std::unique_ptr<ml::Classifier> clf = factory();
    Rng rng(7);
    EXPECT_TRUE(clf->Fit(p.x, p.y, 3, &rng).ok()) << name;
    std::vector<double> proba = clf->PredictProba(p.x).data();
    const Matrix eval = clf->PredictProba(p.x_eval);
    proba.insert(proba.end(), eval.data().begin(), eval.data().end());
    return Digest(proba);
  }
  ADD_FAILURE() << "no meta-model candidate named " << name;
  return 0;
}

TEST(BoosterPinTest, XgbClassifierPredictProba) {
  EXPECT_EQ(PredictProbaDigest("XGBClassifier"), 0x8df5ce1cu);
}

TEST(BoosterPinTest, GradientBoostingPredictProba) {
  EXPECT_EQ(PredictProbaDigest("Gradient Boosting"), 0xc864eab7u);
}

TEST(BoosterPinTest, CatBoostPredictProba) {
  EXPECT_EQ(PredictProbaDigest("CatBoost"), 0x4b7c18b9u);
}

TEST(BoosterPinTest, LightGbmPredictProba) {
  EXPECT_EQ(PredictProbaDigest("LightGBM"), 0xd4a2d7dcu);
}

struct Regression {
  Matrix x;
  std::vector<double> y;
};

Regression MakeRegression(double slope, uint64_t seed) {
  Rng rng(seed);
  Regression p;
  p.x = MakeFeatures(180, &rng);
  p.y.resize(p.x.rows());
  for (size_t i = 0; i < p.x.rows(); ++i) {
    p.y[i] = slope * p.x(i, 0) + std::sin(p.x(i, 1)) + 0.1 * rng.Normal();
  }
  return p;
}

TEST(BoosterPinTest, SubsampledXgbRegressorBlob) {
  const Regression p = MakeRegression(1.5, 31);
  ml::GbdtConfig cfg;
  cfg.n_estimators = 12;
  cfg.max_depth = 3;
  cfg.learning_rate = 0.2;
  cfg.subsample = 0.8;
  ml::GbdtRegressor model(cfg);
  Rng rng(32);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  EXPECT_EQ(Digest(model.SerializeModel()), 0xe996641eu);
}

Configuration XgbConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kXgb;
  c.numeric = {{"n_estimators", 8},
               {"max_depth", 3},
               {"learning_rate", 0.3},
               {"reg_lambda", 1.0},
               {"subsample", 1.0}};
  return c;
}

Configuration HuberConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kHuber;
  c.categorical["epsilon"] = "1.35";
  c.numeric["alpha"] = 1e-4;
  return c;
}

/// Fits one client model per slope, then folds the blobs with raw weights
/// 117 and 83 the way the final-fit round does.
uint32_t FoldDigest(const Configuration& config) {
  ModelBlobAccumulator acc(config);
  const double weights[] = {117.0, 83.0};
  const double slopes[] = {2.0, -0.7};
  for (size_t k = 0; k < 2; ++k) {
    const Regression p = MakeRegression(slopes[k], 40 + k);
    Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
    EXPECT_TRUE(model.ok());
    Rng rng(50 + k);
    EXPECT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
    Result<std::vector<double>> blob = SerializeModel(config, **model);
    EXPECT_TRUE(blob.ok());
    EXPECT_TRUE(acc.Add(weights[k], *blob).ok());
  }
  Result<std::vector<double>> merged = acc.Finish();
  EXPECT_TRUE(merged.ok());
  return Digest(*merged);
}

TEST(BoosterPinTest, XgbFoldOfTwoClients) {
  EXPECT_EQ(FoldDigest(XgbConfig()), 0x0fea0deau);
}

TEST(BoosterPinTest, LinearFoldOfTwoClients) {
  EXPECT_EQ(FoldDigest(HuberConfig()), 0x0426925eu);
}

}  // namespace
}  // namespace fedfc::automl
