#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/metrics.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/exact_split.h"
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

// Every fit entry point of the exact growers orders feature values, and NaN
// has no strict weak order: a non-finite cell is an invalid argument.
Matrix WithNonFinite(const Matrix& x, double bad) {
  Matrix out = x;
  out(out.rows() / 2, 1) = bad;
  return out;
}

TEST(DecisionTreeTest, RejectsNonFiniteFeatures) {
  StepProblem p = MakeStep(50, 30);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    DecisionTree tree(DecisionTree::Task::kRegression, TreeConfig{});
    Rng rng(31);
    Status status = tree.Fit(WithNonFinite(p.x, bad), p.y_reg, {}, 0, {}, &rng);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(RandomForestRegressorTest, RejectsNonFiniteFeatures) {
  StepProblem p = MakeStep(50, 32);
  ForestConfig cfg;
  cfg.n_trees = 3;
  RandomForestRegressor forest(cfg);
  Rng rng(33);
  Status status = forest.Fit(
      WithNonFinite(p.x, std::numeric_limits<double>::quiet_NaN()), p.y_reg, &rng);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(RandomForestClassifierTest, RejectsNonFiniteFeatures) {
  StepProblem p = MakeStep(50, 34);
  for (ForestConfig cfg : {ForestConfig{}, ForestConfig::ExtraTrees(3)}) {
    cfg.n_trees = 3;
    RandomForestClassifier forest(cfg);
    Rng rng(35);
    Status status = forest.Fit(
        WithNonFinite(p.x, -std::numeric_limits<double>::infinity()), p.y_cls, 2, &rng);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << forest.Name();
  }
}

// ---------------------------------------------------------------------------
// The exact split core (ml/tree/exact_split.h) against the per-node
// sort-and-scan it replaced.

using tree_internal::ColumnBlocks;
using tree_internal::ExactSplit;
using tree_internal::SortedColumns;

enum class StatKind { kVariance, kGini, kGradient };

/// Columns with heavy ties (three levels, a half-unit grid), a continuous
/// column and a constant column; targets for all three node statistics.
struct TieProblem {
  Matrix x;
  std::vector<double> y;
  std::vector<int> labels;
  std::vector<double> g, h;
};

constexpr size_t kClasses = 3;

TieProblem MakeTieProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  TieProblem p;
  p.x = Matrix(n, 5);
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = std::floor(rng.Uniform(0, 3));
    p.x(i, 1) = std::round(2.0 * rng.Uniform(-2, 2)) / 2.0;
    p.x(i, 2) = rng.Normal();
    p.x(i, 3) = 4.25;
    p.x(i, 4) = std::round(rng.Uniform(-1, 1));
    const double s = p.x(i, 0) - p.x(i, 1) + 0.5 * p.x(i, 2) + 0.3 * rng.Normal();
    p.y.push_back(std::round(4.0 * s) / 4.0);
    p.labels.push_back(s < 0.0 ? 0 : (s < 1.5 ? 1 : 2));
    p.g.push_back(rng.Normal());
    p.h.push_back(rng.Uniform(0.1, 1.0));
  }
  return p;
}

double OracleLeafScore(double g, double h, double lambda) { return g * g / (h + lambda); }

double OracleGini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    double p = c / total;
    g -= p * p;
  }
  return g;
}

/// The per-node sort-and-scan both exact growers ran before the presorted
/// blocks, kept as the oracle: for each candidate feature, sort the node's
/// (value, row) pairs, then scan prefix statistics with the growers'
/// expressions. Node totals are summed over `rows` in their given order.
ExactSplit SortAndScanOracle(StatKind kind, const TieProblem& p,
                             const std::vector<size_t>& rows,
                             const std::vector<size_t>& features, size_t min_leaf,
                             double min_gain) {
  constexpr double kLambda = 1.5;
  const size_t n = rows.size();
  const double dn = static_cast<double>(n);
  double sum_y = 0.0, sum_y2 = 0.0, g_sum = 0.0, h_sum = 0.0;
  std::vector<double> parent_counts(kClasses, 0.0);
  for (size_t i : rows) {
    sum_y += p.y[i];
    sum_y2 += p.y[i] * p.y[i];
    parent_counts[static_cast<size_t>(p.labels[i])] += 1.0;
    g_sum += p.g[i];
    h_sum += p.h[i];
  }
  const double variance = sum_y2 / dn - (sum_y / dn) * (sum_y / dn);
  const double gini = OracleGini(parent_counts, dn);

  ExactSplit best;
  best.gain = min_gain;
  std::vector<std::pair<double, size_t>> sorted;
  for (size_t f : features) {
    sorted.clear();
    for (size_t i : rows) sorted.emplace_back(p.x(i, f), i);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    double sl = 0.0, sl2 = 0.0, gl = 0.0, hl = 0.0;
    std::vector<double> cl(kClasses, 0.0);
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      const size_t i = sorted[pos].second;
      sl += p.y[i];
      sl2 += p.y[i] * p.y[i];
      cl[static_cast<size_t>(p.labels[i])] += 1.0;
      gl += p.g[i];
      hl += p.h[i];
      if (sorted[pos].first == sorted[pos + 1].first) continue;
      size_t n_left = pos + 1;
      size_t n_right = n - n_left;
      if (n_left < min_leaf || n_right < min_leaf) continue;
      double dl = static_cast<double>(n_left);
      double dr = static_cast<double>(n_right);
      double gain = 0.0;
      if (kind == StatKind::kVariance) {
        double sr = sum_y - sl, sr2 = sum_y2 - sl2;
        double var_l = sl2 / dl - (sl / dl) * (sl / dl);
        double var_r = sr2 / dr - (sr / dr) * (sr / dr);
        gain = variance - (dl * var_l + dr * var_r) / dn;
      } else if (kind == StatKind::kGini) {
        double gr = 1.0;
        for (size_t c = 0; c < kClasses; ++c) {
          double q = (parent_counts[c] - cl[c]) / dr;
          gr -= q * q;
        }
        gain = gini - (dl * OracleGini(cl, dl) + dr * gr) / dn;
      } else {
        gain = 0.5 * (OracleLeafScore(gl, hl, kLambda) +
                      OracleLeafScore(g_sum - gl, h_sum - hl, kLambda) -
                      OracleLeafScore(g_sum, h_sum, kLambda));
      }
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.threshold = 0.5 * (sorted[pos].first + sorted[pos + 1].first);
      }
    }
  }
  return best;
}

/// The shared splitter on the node [lo, lo + n) of `blocks`.
ExactSplit CoreSplit(StatKind kind, const TieProblem& p, const ColumnBlocks& blocks,
                     size_t lo, size_t n, const std::vector<size_t>& features,
                     size_t min_leaf, double min_gain) {
  const uint32_t* rows = blocks.draw(lo);
  switch (kind) {
    case StatKind::kVariance: {
      tree_internal::VarianceStat stat(p.y);
      stat.Begin(rows, n);
      return FindBestExactSplit(blocks, lo, n, features, min_leaf, min_gain, &stat);
    }
    case StatKind::kGini: {
      tree_internal::GiniStat stat(p.labels, kClasses);
      stat.Begin(rows, n);
      return FindBestExactSplit(blocks, lo, n, features, min_leaf, min_gain, &stat);
    }
    case StatKind::kGradient: {
      tree_internal::GradientStat stat(p.g, p.h, 1.5);
      stat.Begin(rows, n);
      return FindBestExactSplit(blocks, lo, n, features, min_leaf, min_gain, &stat);
    }
  }
  return {};
}

std::vector<size_t> DrawList(const ColumnBlocks& blocks, size_t lo, size_t n) {
  return std::vector<size_t>(blocks.draw(lo), blocks.draw(lo) + n);
}

/// Every column's range [lo, lo + n) is in (value, row) order and holds
/// exactly the multiset of rows in the draw-order range.
void ExpectSortedMultiset(const ColumnBlocks& blocks, const Matrix& x, size_t lo,
                          size_t n) {
  std::vector<size_t> expected = DrawList(blocks, lo, n);
  std::sort(expected.begin(), expected.end());
  for (size_t c = 0; c < x.cols(); ++c) {
    const uint32_t* r = blocks.rows(c, lo);
    for (size_t k = 0; k + 1 < n; ++k) {
      EXPECT_LE(std::make_pair(x(r[k], c), r[k]), std::make_pair(x(r[k + 1], c), r[k + 1]))
          << "column " << c << " position " << lo + k;
    }
    std::vector<size_t> held(r, r + n);
    std::sort(held.begin(), held.end());
    EXPECT_EQ(held, expected) << "column " << c;
  }
}

enum class SampleKind { kAllRows, kBootstrap, kSubsample };

std::vector<size_t> DrawSample(SampleKind kind, size_t n, Rng* rng) {
  if (kind == SampleKind::kBootstrap) return rng->Bootstrap(n);
  if (kind == SampleKind::kSubsample) return rng->Sample(n, n * 3 / 4);
  return {};
}

struct SplitCase {
  StatKind stat;
  SampleKind sample;
  size_t min_leaf;
  double features_fraction;
};

/// Grows a tree to depth 4 on the presorted blocks, comparing the splitter
/// with the oracle bit for bit at every node and checking both children's
/// ranges after every partition.
void CompareTree(const SplitCase& sc, const TieProblem& p, ColumnBlocks* blocks,
                 size_t lo, size_t n, int depth, Rng* rng, size_t* n_splits) {
  if (depth >= 4 || n < 2 * sc.min_leaf || n < 2) return;
  const size_t d = p.x.cols();
  std::vector<size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  if (sc.features_fraction < 1.0) {
    features = rng->Sample(d, static_cast<size_t>(std::ceil(sc.features_fraction *
                                                            static_cast<double>(d))));
  }
  const std::vector<size_t> parent = DrawList(*blocks, lo, n);
  const ExactSplit want = SortAndScanOracle(sc.stat, p, parent, features, sc.min_leaf, 1e-12);
  const ExactSplit got = CoreSplit(sc.stat, p, *blocks, lo, n, features, sc.min_leaf, 1e-12);
  ASSERT_EQ(got.feature, want.feature) << "node at " << lo << " of size " << n;
  ASSERT_EQ(std::bit_cast<uint64_t>(got.threshold), std::bit_cast<uint64_t>(want.threshold));
  ASSERT_EQ(std::bit_cast<uint64_t>(got.gain), std::bit_cast<uint64_t>(want.gain));
  if (got.feature < 0) return;
  ++*n_splits;

  const size_t f = static_cast<size_t>(got.feature);
  const size_t n_left = blocks->Partition(lo, n, f, got.threshold, 0);
  std::vector<size_t> left, right;
  for (size_t r : parent) (p.x(r, f) <= got.threshold ? left : right).push_back(r);
  ASSERT_EQ(n_left, left.size());
  EXPECT_EQ(DrawList(*blocks, lo, n_left), left);
  EXPECT_EQ(DrawList(*blocks, lo + n_left, n - n_left), right);
  ExpectSortedMultiset(*blocks, p.x, lo, n_left);
  ExpectSortedMultiset(*blocks, p.x, lo + n_left, n - n_left);
  CompareTree(sc, p, blocks, lo, n_left, depth + 1, rng, n_splits);
  CompareTree(sc, p, blocks, lo + n_left, n - n_left, depth + 1, rng, n_splits);
}

TEST(ExactSplitTest, SplitterMatchesSortAndScanOracleBitForBit) {
  size_t n_splits = 0;
  for (StatKind stat : {StatKind::kVariance, StatKind::kGini, StatKind::kGradient}) {
    for (SampleKind sample :
         {SampleKind::kAllRows, SampleKind::kBootstrap, SampleKind::kSubsample}) {
      for (size_t min_leaf : {size_t{1}, size_t{4}}) {
        for (double fraction : {1.0, 0.6}) {
          for (uint64_t seed = 1; seed <= 4; ++seed) {
            const TieProblem p = MakeTieProblem(60 + 17 * seed, seed);
            Rng rng(100 + seed);
            const std::vector<size_t> drawn = DrawSample(sample, p.x.rows(), &rng);
            Result<SortedColumns> sorted = SortedColumns::Build(p.x, "test");
            ASSERT_TRUE(sorted.ok());
            ColumnBlocks blocks(*sorted, drawn, /*with_columns=*/true);
            ExpectSortedMultiset(blocks, p.x, 0, blocks.size());
            CompareTree({stat, sample, min_leaf, fraction}, p, &blocks, 0, blocks.size(),
                        0, &rng, &n_splits);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(n_splits, 500u);  // The comparison reached deep, small nodes.
}

TEST(ExactSplitTest, PartitionKeepsEachChildSortedWithItsMultiset) {
  // Thresholds at and between tied values, on every column, in nested
  // partitions of a bootstrap sample with repeated rows.
  const TieProblem p = MakeTieProblem(90, 9);
  Rng rng(10);
  Result<SortedColumns> sorted = SortedColumns::Build(p.x, "test");
  ASSERT_TRUE(sorted.ok());
  ColumnBlocks blocks(*sorted, rng.Bootstrap(p.x.rows()), /*with_columns=*/true);
  std::vector<std::pair<size_t, size_t>> nodes = {{0, blocks.size()}};
  for (size_t step = 0; step < 40 && !nodes.empty(); ++step) {
    const auto [lo, n] = nodes.front();
    nodes.erase(nodes.begin());
    const std::vector<size_t> parent = DrawList(blocks, lo, n);
    const size_t f = step % p.x.cols();
    const double threshold =
        p.x(parent[rng.Index(n)], f) + (step % 2 == 0 ? 0.0 : 0.25);
    const size_t n_left = blocks.Partition(lo, n, f, threshold, 0);
    std::vector<size_t> left, right;
    for (size_t r : parent) (p.x(r, f) <= threshold ? left : right).push_back(r);
    ASSERT_EQ(n_left, left.size());
    EXPECT_EQ(DrawList(blocks, lo, n_left), left);
    EXPECT_EQ(DrawList(blocks, lo + n_left, n - n_left), right);
    ExpectSortedMultiset(blocks, p.x, lo, n_left);
    ExpectSortedMultiset(blocks, p.x, lo + n_left, n - n_left);
    if (n_left > 1) nodes.emplace_back(lo, n_left);
    if (n - n_left > 1) nodes.emplace_back(lo + n_left, n - n_left);
  }
}

TEST(ExactSplitTest, SortedColumnsRejectsNonFinite) {
  Matrix x(4, 2, 1.0);
  x(2, 1) = std::numeric_limits<double>::quiet_NaN();
  Result<SortedColumns> sorted = SortedColumns::Build(x, "test");
  EXPECT_EQ(sorted.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fedfc::ml
