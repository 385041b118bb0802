#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/metrics.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/random_forest.h"

namespace fedfc::ml {
namespace {

/// Step-function regression problem: y = 1 when x0 > 0 else -1, x1 is noise.
struct StepProblem {
  Matrix x;
  std::vector<double> y_reg;
  std::vector<int> y_cls;
};

StepProblem MakeStep(size_t n, uint64_t seed) {
  Rng rng(seed);
  StepProblem p;
  p.x = Matrix(n, 2);
  p.y_reg.resize(n);
  p.y_cls.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.Uniform(-1, 1);
    p.x(i, 1) = rng.Uniform(-1, 1);
    p.y_reg[i] = p.x(i, 0) > 0 ? 1.0 : -1.0;
    p.y_cls[i] = p.x(i, 0) > 0 ? 1 : 0;
  }
  return p;
}

TEST(DecisionTreeTest, RegressionLearnsStep) {
  StepProblem p = MakeStep(200, 1);
  DecisionTree tree(DecisionTree::Task::kRegression, TreeConfig{});
  Rng rng(2);
  ASSERT_TRUE(tree.Fit(p.x, p.y_reg, {}, 0, {}, &rng).ok());
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(tree.PredictRow(p.x.Row(i)), p.y_reg[i]);
  }
}

TEST(DecisionTreeTest, ClassificationLearnsStep) {
  StepProblem p = MakeStep(200, 3);
  DecisionTree tree(DecisionTree::Task::kClassification, TreeConfig{});
  Rng rng(4);
  ASSERT_TRUE(tree.Fit(p.x, {}, p.y_cls, 2, {}, &rng).ok());
  for (size_t i = 0; i < 200; ++i) {
    const std::vector<double>& dist = tree.PredictDistRow(p.x.Row(i));
    int pred = dist[1] > dist[0] ? 1 : 0;
    EXPECT_EQ(pred, p.y_cls[i]);
  }
}

TEST(DecisionTreeTest, MaxDepthLimitsSize) {
  StepProblem p = MakeStep(500, 5);
  TreeConfig cfg;
  cfg.max_depth = 1;
  DecisionTree tree(DecisionTree::Task::kRegression, cfg);
  Rng rng(6);
  ASSERT_TRUE(tree.Fit(p.x, p.y_reg, {}, 0, {}, &rng).ok());
  EXPECT_LE(tree.n_nodes(), 3u);  // Root + 2 leaves.
}

TEST(DecisionTreeTest, ImportanceConcentratesOnSignalFeature) {
  StepProblem p = MakeStep(500, 7);
  DecisionTree tree(DecisionTree::Task::kRegression, TreeConfig{});
  Rng rng(8);
  ASSERT_TRUE(tree.Fit(p.x, p.y_reg, {}, 0, {}, &rng).ok());
  EXPECT_GT(tree.feature_importances()[0], tree.feature_importances()[1] * 10);
}

TEST(DecisionTreeTest, ConstantTargetMakesSingleLeaf) {
  Matrix x({{1}, {2}, {3}});
  DecisionTree tree(DecisionTree::Task::kRegression, TreeConfig{});
  Rng rng(9);
  ASSERT_TRUE(tree.Fit(x, {5, 5, 5}, {}, 0, {}, &rng).ok());
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictRow(x.Row(0)), 5.0);
}

TEST(DecisionTreeTest, RejectsEmptyInput) {
  DecisionTree tree(DecisionTree::Task::kRegression, TreeConfig{});
  Rng rng(10);
  EXPECT_FALSE(tree.Fit(Matrix(), {}, {}, 0, {}, &rng).ok());
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  StepProblem p = MakeStep(100, 11);
  TreeConfig cfg;
  cfg.min_samples_leaf = 40;
  DecisionTree tree(DecisionTree::Task::kRegression, cfg);
  Rng rng(12);
  ASSERT_TRUE(tree.Fit(p.x, p.y_reg, {}, 0, {}, &rng).ok());
  EXPECT_LE(tree.n_nodes(), 3u);  // At most one split (60/40 impossible twice).
}

TEST(RandomForestRegressorTest, FitsNonlinearFunction) {
  Rng rng(13);
  Matrix x(400, 2);
  std::vector<double> y(400);
  for (size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.Uniform(-3, 3);
    x(i, 1) = rng.Uniform(-3, 3);
    y[i] = std::sin(x(i, 0)) + 0.5 * x(i, 1) * x(i, 1);
  }
  ForestConfig cfg;
  cfg.n_trees = 30;
  RandomForestRegressor forest(cfg);
  Rng fit_rng(14);
  ASSERT_TRUE(forest.Fit(x, y, &fit_rng).ok());
  double mse = MeanSquaredError(y, forest.Predict(x));
  EXPECT_LT(mse, 0.3);
}

TEST(RandomForestRegressorTest, ImportancesSumToOne) {
  StepProblem p = MakeStep(300, 15);
  ForestConfig cfg;
  cfg.n_trees = 20;
  RandomForestRegressor forest(cfg);
  Rng rng(16);
  ASSERT_TRUE(forest.Fit(p.x, p.y_reg, &rng).ok());
  double total = 0.0;
  for (double v : forest.feature_importances()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(forest.feature_importances()[0], 0.8);
}

TEST(RandomForestRegressorTest, RequiresRng) {
  StepProblem p = MakeStep(50, 17);
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.Fit(p.x, p.y_reg, nullptr).ok());
}

TEST(RandomForestClassifierTest, ProbabilitiesAreCalibratedVotes) {
  StepProblem p = MakeStep(400, 18);
  ForestConfig cfg;
  cfg.n_trees = 25;
  RandomForestClassifier forest(cfg);
  Rng rng(19);
  ASSERT_TRUE(forest.Fit(p.x, p.y_cls, 2, &rng).ok());
  Matrix proba = forest.PredictProba(p.x);
  EXPECT_EQ(proba.cols(), 2u);
  size_t correct = 0;
  for (size_t i = 0; i < 400; ++i) {
    double row_sum = proba(i, 0) + proba(i, 1);
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
    int pred = proba(i, 1) > proba(i, 0) ? 1 : 0;
    if (pred == p.y_cls[i]) ++correct;
  }
  EXPECT_GT(correct, 380u);
}

TEST(ExtraTreesTest, ConfigDisablesBootstrapEnablesRandomThresholds) {
  ForestConfig cfg = ForestConfig::ExtraTrees(10);
  EXPECT_FALSE(cfg.bootstrap);
  EXPECT_TRUE(cfg.tree.random_thresholds);
  RandomForestClassifier forest(cfg);
  EXPECT_EQ(forest.Name(), "ExtraTreesClassifier");
}

TEST(ExtraTreesTest, StillLearnsStep) {
  StepProblem p = MakeStep(400, 20);
  ForestConfig cfg = ForestConfig::ExtraTrees(25);
  RandomForestClassifier forest(cfg);
  Rng rng(21);
  ASSERT_TRUE(forest.Fit(p.x, p.y_cls, 2, &rng).ok());
  std::vector<int> pred = forest.Predict(p.x);
  EXPECT_GT(Accuracy(p.y_cls, pred), 0.9);
}

TEST(ClassifierBaseTest, PredictIsArgmaxOfProba) {
  StepProblem p = MakeStep(100, 22);
  ForestConfig cfg;
  cfg.n_trees = 10;
  RandomForestClassifier forest(cfg);
  Rng rng(23);
  ASSERT_TRUE(forest.Fit(p.x, p.y_cls, 2, &rng).ok());
  Matrix proba = forest.PredictProba(p.x);
  std::vector<int> pred = forest.Predict(p.x);
  for (size_t i = 0; i < 100; ++i) {
    int argmax = proba(i, 1) > proba(i, 0) ? 1 : 0;
    EXPECT_EQ(pred[i], argmax);
  }
}

// Depth sweep: train MSE decreases monotonically (or nearly) with depth.
class DepthSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DepthSweepTest, DeeperFitsBetterInSample) {
  Rng rng(24);
  Matrix x(300, 1);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    y[i] = std::sin(x(i, 0));
  }
  TreeConfig shallow_cfg;
  shallow_cfg.max_depth = 1;
  TreeConfig deep_cfg;
  deep_cfg.max_depth = GetParam();
  DecisionTree shallow(DecisionTree::Task::kRegression, shallow_cfg);
  DecisionTree deep(DecisionTree::Task::kRegression, deep_cfg);
  Rng r1(25), r2(26);
  ASSERT_TRUE(shallow.Fit(x, y, {}, 0, {}, &r1).ok());
  ASSERT_TRUE(deep.Fit(x, y, {}, 0, {}, &r2).ok());
  auto mse = [&](const DecisionTree& t) {
    std::vector<double> pred(300);
    for (size_t i = 0; i < 300; ++i) pred[i] = t.PredictRow(x.Row(i));
    return MeanSquaredError(y, pred);
  };
  EXPECT_LE(mse(deep), mse(shallow) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweepTest, ::testing::Values(2, 4, 6, 10));

}  // namespace
}  // namespace fedfc::ml
