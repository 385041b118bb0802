// Parity oracle for the exact (sort-based) tree growers: CRC32 digests of the
// exact bits the Random-Forest importance forest returns, of Random-Forest
// regressor predictions, of the Table 4 "Random Forest" and "Extra Trees"
// meta-model candidates' PredictProba, of an unsubsampled XGBRegressor blob,
// and of a subsampled depth-wise GbdtClassifier's PredictProba. The problems
// carry heavy ties and the forests bootstrap, so split finders meet both
// duplicate values and repeated rows. None of these paths goes through the
// kernel layer, so every backend must read the same constants. The constants
// were recorded on x86-64 (GCC 12, glibc) with per-node sorting; a change
// that alters any of these bits updates them on purpose and says so.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automl/meta_model.h"
#include "backend_guard.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "features/feature_engineering.h"
#include "features/feature_selection.h"
#include "ml/kernels/kernels.h"
#include "ml/tree/gbdt.h"
#include "ml/tree/random_forest.h"

namespace fedfc::automl {
namespace {

uint32_t Digest(const std::vector<double>& values) {
  return Crc32(reinterpret_cast<const uint8_t*>(values.data()),
               values.size() * sizeof(double));
}

/// Runs `body` once per backend this CPU can run, with that backend forced.
template <typename Body>
void OnEveryBackend(Body body) {
  std::vector<ml::kernels::BackendKind> kinds = {ml::kernels::BackendKind::kScalar};
  if (ml::kernels::Avx2BackendOrNull() != nullptr) {
    kinds.push_back(ml::kernels::BackendKind::kAvx2);
  }
  for (ml::kernels::BackendKind kind : kinds) {
    ml::BackendGuard guard(kind);
    SCOPED_TRACE(kind == ml::kernels::BackendKind::kAvx2 ? "avx2" : "scalar");
    body();
  }
}

/// Engineered-matrix stand-in: eight lags of an AR(2) series with a
/// seasonal term, rounded to a 0.25 grid so every lag column holds many
/// tied values, plus a three-level calendar-like column. The target is the
/// next (unrounded) value.
features::EngineeredData MakeLagData(size_t rows, uint64_t seed) {
  constexpr size_t kLags = 8;
  Rng rng(seed);
  std::vector<double> s(rows + kLags + 1, 0.0);
  for (size_t t = 2; t < s.size(); ++t) {
    s[t] = 0.6 * s[t - 1] - 0.2 * s[t - 2] +
           std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0) + 0.5 * rng.Normal();
  }
  features::EngineeredData data;
  data.x = Matrix(rows, kLags + 1);
  data.y.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    const size_t t = i + kLags;
    for (size_t j = 0; j < kLags; ++j) {
      data.x(i, j) = std::round(4.0 * s[t - 1 - j]) / 4.0;
    }
    data.x(i, kLags) = static_cast<double>(t % 3);
    data.y[i] = s[t];
  }
  return data;
}

/// Four features: two informative, one noise, one with heavy ties (a
/// rounded copy of the first), and three classes.
struct ThreeClass {
  Matrix x;
  std::vector<int> y;
  Matrix x_eval;
};

Matrix MakeFeatures(size_t n, Rng* rng) {
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng->Uniform(-3, 3);
    x(i, 1) = std::round(2.0 * rng->Uniform(-3, 3)) / 2.0;
    x(i, 2) = rng->Normal();
    x(i, 3) = std::round(x(i, 0));
  }
  return x;
}

ThreeClass MakeThreeClass() {
  Rng rng(4048);
  ThreeClass p;
  p.x = MakeFeatures(200, &rng);
  p.y.resize(p.x.rows());
  for (size_t i = 0; i < p.x.rows(); ++i) {
    const double s = p.x(i, 0) + 0.5 * std::sin(2.0 * p.x(i, 1)) +
                     0.3 * rng.Normal();
    p.y[i] = s < -1.0 ? 0 : (s < 1.0 ? 1 : 2);
  }
  p.x_eval = MakeFeatures(120, &rng);
  return p;
}

/// PredictProba bits on the training rows followed by the held-out rows.
uint32_t ProbaDigest(const ml::Classifier& clf, const ThreeClass& p) {
  std::vector<double> proba = clf.PredictProba(p.x).data();
  const Matrix eval = clf.PredictProba(p.x_eval);
  proba.insert(proba.end(), eval.data().begin(), eval.data().end());
  return Digest(proba);
}

uint32_t MetaModelDigest(const std::string& name) {
  const ThreeClass p = MakeThreeClass();
  for (const auto& [candidate, factory] : MetaModelCandidates()) {
    if (candidate != name) continue;
    std::unique_ptr<ml::Classifier> clf = factory();
    Rng rng(17);
    EXPECT_TRUE(clf->Fit(p.x, p.y, 3, &rng).ok()) << name;
    return ProbaDigest(*clf, p);
  }
  ADD_FAILURE() << "no meta-model candidate named " << name;
  return 0;
}

TEST(ForestPinTest, FeatureImportances) {
  OnEveryBackend([] {
    const features::EngineeredData data = MakeLagData(150, 2027);
    Rng rng(5);
    Result<std::vector<double>> imp = features::ComputeFeatureImportances(data, &rng);
    ASSERT_TRUE(imp.ok());
    EXPECT_EQ(Digest(*imp), 0x55739800u);
  });
}

TEST(ForestPinTest, RandomForestRegressorPredict) {
  OnEveryBackend([] {
    const features::EngineeredData train = MakeLagData(140, 2028);
    const features::EngineeredData eval = MakeLagData(60, 2029);
    ml::ForestConfig cfg;
    cfg.n_trees = 20;
    cfg.tree.max_depth = 7;
    cfg.tree.min_samples_leaf = 2;
    cfg.tree.max_features_fraction = 0.6;
    ml::RandomForestRegressor forest(cfg);
    Rng rng(6);
    ASSERT_TRUE(forest.Fit(train.x, train.y, &rng).ok());
    std::vector<double> bits = forest.Predict(train.x);
    const std::vector<double> held_out = forest.Predict(eval.x);
    bits.insert(bits.end(), held_out.begin(), held_out.end());
    bits.insert(bits.end(), forest.feature_importances().begin(),
                forest.feature_importances().end());
    EXPECT_EQ(Digest(bits), 0xc428e3b6u);
  });
}

TEST(ForestPinTest, RandomForestMetaModelPredictProba) {
  OnEveryBackend([] { EXPECT_EQ(MetaModelDigest("Random Forest"), 0x69496ceeu); });
}

TEST(ForestPinTest, ExtraTreesMetaModelPredictProba) {
  OnEveryBackend([] { EXPECT_EQ(MetaModelDigest("Extra Trees"), 0x937eb27cu); });
}

TEST(ForestPinTest, UnsubsampledXgbRegressorBlob) {
  OnEveryBackend([] {
    const features::EngineeredData data = MakeLagData(150, 2030);
    ml::GbdtConfig cfg;
    cfg.n_estimators = 10;
    cfg.max_depth = 4;
    cfg.learning_rate = 0.3;
    cfg.reg_lambda = 2.0;
    cfg.min_samples_leaf = 2;
    ml::GbdtRegressor model(cfg);
    Rng rng(7);
    ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
    EXPECT_EQ(Digest(model.SerializeModel()), 0xc1518fb2u);
  });
}

TEST(ForestPinTest, SubsampledDepthWiseGbdtClassifierPredictProba) {
  OnEveryBackend([] {
    const ThreeClass p = MakeThreeClass();
    ml::GbdtConfig cfg;
    cfg.n_estimators = 12;
    cfg.max_depth = 3;
    cfg.learning_rate = 0.2;
    cfg.subsample = 0.7;
    cfg.min_samples_leaf = 3;
    ml::GbdtClassifier clf(cfg);
    Rng rng(8);
    ASSERT_TRUE(clf.Fit(p.x, p.y, 3, &rng).ok());
    EXPECT_EQ(ProbaDigest(clf, p), 0xf54d6c15u);
  });
}

}  // namespace
}  // namespace fedfc::automl
