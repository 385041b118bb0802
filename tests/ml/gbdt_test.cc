#include "ml/tree/gbdt.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/metrics.h"
#include "ml/tree/gbdt_tree.h"

namespace fedfc::ml {
namespace {

struct Nonlinear {
  Matrix x;
  std::vector<double> y;
};

Nonlinear MakeNonlinear(size_t n, uint64_t seed) {
  Rng rng(seed);
  Nonlinear p;
  p.x = Matrix(n, 3);
  p.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) p.x(i, j) = rng.Uniform(-2, 2);
    p.y[i] = std::sin(p.x(i, 0)) + (p.x(i, 1) > 0 ? 1.0 : -1.0) +
             0.1 * rng.Normal();
  }
  return p;
}

struct MultiClass {
  Matrix x;
  std::vector<int> y;
};

MultiClass MakeThreeClass(size_t n, uint64_t seed) {
  Rng rng(seed);
  MultiClass p;
  p.x = Matrix(n, 2);
  p.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.Uniform(-3, 3);
    p.x(i, 1) = rng.Uniform(-3, 3);
    if (p.x(i, 0) < -1) {
      p.y[i] = 0;
    } else if (p.x(i, 0) < 1) {
      p.y[i] = 1;
    } else {
      p.y[i] = 2;
    }
  }
  return p;
}

TEST(GbdtTreeTest, SquaredLossLeafIsShrunkMean) {
  // One leaf: weight = -sum(g)/(sum(h)+lambda); with g = -y, h = 1.
  Matrix x({{1}, {1}, {1}});
  std::vector<double> g = {-2, -4, -6};
  std::vector<double> h = {1, 1, 1};
  gbdt_internal::GbdtTreeConfig cfg;
  cfg.max_depth = 0;
  cfg.reg_lambda = 1.0;
  gbdt_internal::GbdtTree tree;
  tree.Fit(*tree_internal::SortedColumns::Build(x, "test"), g, h, {}, cfg);
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_NEAR(tree.PredictRow(x.Row(0)), 12.0 / 4.0, 1e-12);
}

TEST(GbdtTreeTest, SplitsOnInformativeFeature) {
  Rng rng(1);
  Matrix x(100, 2);
  std::vector<double> g(100), h(100, 1.0);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    g[i] = x(i, 0) > 0 ? -1.0 : 1.0;
  }
  gbdt_internal::GbdtTreeConfig cfg;
  cfg.max_depth = 2;
  gbdt_internal::GbdtTree tree;
  tree.Fit(*tree_internal::SortedColumns::Build(x, "test"), g, h, {}, cfg);
  EXPECT_GT(tree.feature_gains()[0], tree.feature_gains()[1]);
}

TEST(GbdtTreeTest, SerializationRoundTrip) {
  Rng rng(2);
  Matrix x(50, 2);
  std::vector<double> g(50), h(50, 1.0);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    g[i] = rng.Normal();
  }
  gbdt_internal::GbdtTree tree;
  tree.Fit(*tree_internal::SortedColumns::Build(x, "test"), g, h, {}, gbdt_internal::GbdtTreeConfig{});
  std::vector<double> blob;
  tree.AppendTo(&blob);
  size_t offset = 0;
  Result<gbdt_internal::GbdtTree> back =
      gbdt_internal::GbdtTree::FromSpan(blob, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(offset, blob.size());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(back->PredictRow(x.Row(i)), tree.PredictRow(x.Row(i)));
  }
}

TEST(GbdtTreeTest, FromSpanRejectsCorruptBlobs) {
  size_t offset = 0;
  EXPECT_FALSE(gbdt_internal::GbdtTree::FromSpan({}, &offset).ok());
  offset = 0;
  EXPECT_FALSE(gbdt_internal::GbdtTree::FromSpan({5.0, 1.0}, &offset).ok());
}

TEST(GbdtRegressorTest, FitsNonlinearSignal) {
  Nonlinear p = MakeNonlinear(500, 3);
  GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.learning_rate = 0.2;
  GbdtRegressor model(cfg);
  Rng rng(4);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  EXPECT_LT(MeanSquaredError(p.y, model.Predict(p.x)), 0.1);
}

TEST(GbdtRegressorTest, MoreRoundsFitBetterInSample) {
  Nonlinear p = MakeNonlinear(300, 5);
  auto mse_with = [&](size_t rounds) {
    GbdtConfig cfg;
    cfg.n_estimators = rounds;
    GbdtRegressor model(cfg);
    Rng rng(6);
    EXPECT_TRUE(model.Fit(p.x, p.y, &rng).ok());
    return MeanSquaredError(p.y, model.Predict(p.x));
  };
  EXPECT_LT(mse_with(30), mse_with(3));
}

TEST(GbdtRegressorTest, SubsampleStillLearns) {
  Nonlinear p = MakeNonlinear(500, 7);
  GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.subsample = 0.5;
  GbdtRegressor model(cfg);
  Rng rng(8);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  EXPECT_LT(MeanSquaredError(p.y, model.Predict(p.x)), 0.3);
}

TEST(GbdtRegressorTest, RejectsInvalidConfig) {
  Nonlinear p = MakeNonlinear(50, 9);
  Rng rng(10);
  GbdtConfig bad;
  bad.subsample = 0.0;
  GbdtRegressor m(bad);
  EXPECT_FALSE(m.Fit(p.x, p.y, &rng).ok());
  GbdtConfig bad2;
  bad2.n_estimators = 0;
  GbdtRegressor m2(bad2);
  EXPECT_FALSE(m2.Fit(p.x, p.y, &rng).ok());
}

TEST(GbdtRegressorTest, ModelSerializationRoundTrip) {
  Nonlinear p = MakeNonlinear(200, 11);
  GbdtConfig cfg;
  cfg.n_estimators = 10;
  GbdtRegressor model(cfg);
  Rng rng(12);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  std::vector<double> blob = model.SerializeModel();

  GbdtRegressor restored(cfg);
  ASSERT_TRUE(restored.DeserializeModel(blob).ok());
  std::vector<double> a = model.Predict(p.x);
  std::vector<double> b = restored.Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(GbdtRegressorTest, DeserializeRejectsGarbage) {
  GbdtRegressor model;
  EXPECT_FALSE(model.DeserializeModel({}).ok());
  EXPECT_FALSE(model.DeserializeModel({1.0, 0.1, 2.0, 1.0}).ok());
}

// Hostile-blob paths surfaced by the model_artifact fuzzer (the crashers
// live in tests/fuzz/regressions/model_artifact/).

TEST(GbdtRegressorTest, DeserializeRejectsZeroTrees) {
  // A zero-tree blob used to decode fine and then abort in Predict on the
  // !trees_.empty() check — a remote DoS through evaluate_model.
  GbdtRegressor model;
  EXPECT_FALSE(model.DeserializeModel({0.5, 0.1, 0.0}).ok());
}

TEST(GbdtTreeTest, FromSpanRejectsNonIntegralFields) {
  size_t offset = 0;
  // feature = 1e18 is finite but static_cast<int> of it is UB.
  EXPECT_FALSE(
      gbdt_internal::GbdtTree::FromSpan({1.0, 1e18, 0.5, -1.0, -1.0, 0.0},
                                        &offset)
          .ok());
  offset = 0;
  // NaN child index.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      gbdt_internal::GbdtTree::FromSpan({1.0, 0.0, 0.5, kNaN, -1.0, 0.0},
                                        &offset)
          .ok());
}

TEST(GbdtTreeTest, FromSpanRejectsCyclicChildren) {
  // A split whose children point at itself (or backwards) hung PredictRow
  // forever; children must be strictly after the parent in preorder.
  size_t offset = 0;
  EXPECT_FALSE(
      gbdt_internal::GbdtTree::FromSpan({1.0, 0.0, 0.5, 0.0, 0.0, 0.0},
                                        &offset)
          .ok());
  offset = 0;
  std::vector<double> backward = {
      3.0,                        // n_nodes
      0.0, 0.5, 1.0, 2.0, 0.0,    // root -> children 1, 2
      0.0, 0.5, 0.0, 2.0, 0.0,    // node 1 points back at the root
      -1.0, 0.0, -1.0, -1.0, 0.1  // leaf
  };
  EXPECT_FALSE(gbdt_internal::GbdtTree::FromSpan(backward, &offset).ok());
}

TEST(GbdtRegressorTest, ValidateFeatureWidthChecksTreeFeatures) {
  Nonlinear p = MakeNonlinear(100, 21);
  GbdtConfig cfg;
  cfg.n_estimators = 5;
  GbdtRegressor model(cfg);
  Rng rng(22);
  ASSERT_TRUE(model.Fit(p.x, p.y, &rng).ok());
  EXPECT_TRUE(model.ValidateFeatureWidth(p.x.cols()).ok());
  EXPECT_FALSE(model.ValidateFeatureWidth(0).ok());
}

TEST(GbdtClassifierTest, LearnsThreeClasses) {
  MultiClass p = MakeThreeClass(600, 13);
  GbdtConfig cfg;
  cfg.n_estimators = 20;
  cfg.learning_rate = 0.3;
  GbdtClassifier model(cfg);
  Rng rng(14);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  EXPECT_GT(Accuracy(p.y, model.Predict(p.x)), 0.95);
}

TEST(GbdtClassifierTest, ProbabilitiesSumToOne) {
  MultiClass p = MakeThreeClass(200, 15);
  GbdtConfig cfg;
  cfg.n_estimators = 5;
  GbdtClassifier model(cfg);
  Rng rng(16);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  Matrix proba = model.PredictProba(p.x);
  for (size_t i = 0; i < proba.rows(); ++i) {
    double total = proba(i, 0) + proba(i, 1) + proba(i, 2);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(GbdtClassifierTest, FirstOrderVariantAlsoLearns) {
  MultiClass p = MakeThreeClass(600, 17);
  GbdtConfig cfg;
  cfg.n_estimators = 20;
  cfg.learning_rate = 0.3;
  cfg.use_hessian = false;  // Classic gradient boosting.
  GbdtClassifier model(cfg);
  EXPECT_EQ(model.Name(), "GradientBoostingClassifier");
  Rng rng(18);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  EXPECT_GT(Accuracy(p.y, model.Predict(p.x)), 0.9);
}

TEST(HistGbdtTest, LearnsThreeClasses) {
  MultiClass p = MakeThreeClass(600, 19);
  HistGbdtClassifier::Config cfg;
  cfg.n_estimators = 20;
  cfg.learning_rate = 0.3;
  HistGbdtClassifier model(cfg);
  Rng rng(20);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  EXPECT_GT(Accuracy(p.y, model.Predict(p.x)), 0.9);
}

TEST(HistGbdtTest, MaxLeavesBoundsComplexity) {
  MultiClass p = MakeThreeClass(300, 21);
  HistGbdtClassifier::Config cfg;
  cfg.n_estimators = 2;
  cfg.max_leaves = 2;  // Stumps only.
  HistGbdtClassifier model(cfg);
  Rng rng(22);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  // Still sums to one and is better than random.
  EXPECT_GT(Accuracy(p.y, model.Predict(p.x)), 0.5);
}

TEST(ObliviousGbdtTest, LearnsThreeClasses) {
  MultiClass p = MakeThreeClass(600, 23);
  ObliviousGbdtClassifier::Config cfg;
  cfg.n_estimators = 20;
  cfg.learning_rate = 0.3;
  ObliviousGbdtClassifier model(cfg);
  Rng rng(24);
  ASSERT_TRUE(model.Fit(p.x, p.y, 3, &rng).ok());
  EXPECT_GT(Accuracy(p.y, model.Predict(p.x)), 0.9);
}

TEST(ObliviousGbdtTest, RejectsBadInputs) {
  ObliviousGbdtClassifier model;
  Rng rng(25);
  EXPECT_FALSE(model.Fit(Matrix(), {}, 3, &rng).ok());
  MultiClass p = MakeThreeClass(50, 26);
  EXPECT_FALSE(model.Fit(p.x, p.y, 1, &rng).ok());

  // Zero boosting rounds used to fit "successfully" with no trees, and the
  // next PredictProba aborted; the shared fit loop rejects it for all three.
  GbdtConfig gbdt;
  gbdt.n_estimators = 0;
  HistGbdtClassifier::Config hist;
  hist.n_estimators = 0;
  ObliviousGbdtClassifier::Config oblivious;
  oblivious.n_estimators = 0;
  std::vector<std::unique_ptr<Classifier>> boosters;
  boosters.push_back(std::make_unique<GbdtClassifier>(gbdt));
  boosters.push_back(std::make_unique<HistGbdtClassifier>(hist));
  boosters.push_back(std::make_unique<ObliviousGbdtClassifier>(oblivious));
  for (const auto& booster : boosters) {
    EXPECT_EQ(booster->Fit(p.x, p.y, 3, &rng).code(),
              StatusCode::kInvalidArgument)
        << booster->Name();
  }
}

TEST(ObliviousGbdtTest, NanFeatureGoesRightLikeEveryBooster) {
  // Every booster is a GbdtTree, which sends a NaN feature right: a NaN row
  // predicts exactly like +inf. Oblivious trees used to send it left.
  MultiClass p = MakeThreeClass(300, 27);
  std::vector<std::unique_ptr<Classifier>> boosters;
  boosters.push_back(std::make_unique<GbdtClassifier>());
  boosters.push_back(std::make_unique<HistGbdtClassifier>());
  boosters.push_back(std::make_unique<ObliviousGbdtClassifier>());
  Matrix nan_row({{std::numeric_limits<double>::quiet_NaN(), 0.5}});
  Matrix inf_row({{std::numeric_limits<double>::infinity(), 0.5}});
  for (const auto& booster : boosters) {
    Rng rng(28);
    ASSERT_TRUE(booster->Fit(p.x, p.y, 3, &rng).ok()) << booster->Name();
    Matrix from_nan = booster->PredictProba(nan_row);
    Matrix from_inf = booster->PredictProba(inf_row);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(from_nan(0, c), from_inf(0, c)) << booster->Name();
    }
  }
}

// The exact and binned split finders order feature values, and NaN has no
// strict weak order: a non-finite training cell is an invalid argument.
TEST(GbdtRegressorTest, RejectsNonFiniteFeatures) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     -std::numeric_limits<double>::infinity()}) {
    Nonlinear p = MakeNonlinear(80, 29);
    p.x(40, 2) = bad;
    GbdtRegressor model;
    Rng rng(30);
    EXPECT_EQ(model.Fit(p.x, p.y, &rng).code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(GbdtClassifierTest, EveryBoosterRejectsNonFiniteFeatures) {
  MultiClass p = MakeThreeClass(90, 31);
  p.x(45, 1) = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::unique_ptr<Classifier>> boosters;
  boosters.push_back(std::make_unique<GbdtClassifier>());
  boosters.push_back(std::make_unique<HistGbdtClassifier>());
  boosters.push_back(std::make_unique<ObliviousGbdtClassifier>());
  for (const auto& booster : boosters) {
    Rng rng(32);
    EXPECT_EQ(booster->Fit(p.x, p.y, 3, &rng).code(), StatusCode::kInvalidArgument)
        << booster->Name();
  }
}

}  // namespace
}  // namespace fedfc::ml
