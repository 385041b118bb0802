#include "features/feature_engineering.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/generators.h"
#include "features/feature_selection.h"

namespace fedfc::features {
namespace {

ts::Series TrendingSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  data::SignalSpec spec;
  spec.length = n;
  spec.level = 5.0;
  spec.trend_slope = 0.01;
  spec.seasonalities = {{24.0, 1.0, 0.0}};
  spec.noise_std = 0.1;
  return data::GenerateSignal(spec, &rng);
}

TEST(SpecTest, TensorRoundTrip) {
  FeatureEngineeringSpec spec;
  spec.n_lags = 5;
  spec.seasonal_periods = {24.0, 168.0};
  spec.include_time_features = false;
  spec.selected_features = {0, 2, 4};
  Result<FeatureEngineeringSpec> back =
      FeatureEngineeringSpec::FromTensor(spec.ToTensor());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n_lags, 5u);
  EXPECT_EQ(back->seasonal_periods, spec.seasonal_periods);
  EXPECT_FALSE(back->include_time_features);
  EXPECT_EQ(back->selected_features, spec.selected_features);
}

TEST(SpecTest, FromTensorRejectsCorruption) {
  EXPECT_FALSE(FeatureEngineeringSpec::FromTensor({1.0}).ok());
  FeatureEngineeringSpec spec;
  std::vector<double> t = spec.ToTensor();
  t.push_back(9.0);
  EXPECT_FALSE(FeatureEngineeringSpec::FromTensor(t).ok());
}

TEST(SpecTest, FromTensorRejectsHostileCountFields) {
  // Fuzzer-surfaced paths (tests/fuzz/regressions/model_artifact/): every
  // count field is attacker bytes, and casting NaN/huge doubles was UB.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FeatureEngineeringSpec::FromTensor({kNaN, 1, 1, 0, 0}).ok());
  EXPECT_FALSE(FeatureEngineeringSpec::FromTensor({1e18, 1, 1, 0, 0}).ok());
  // Non-finite seasonal period.
  EXPECT_FALSE(FeatureEngineeringSpec::FromTensor({4, 1, 1, 1, kNaN, 0}).ok());
}

TEST(SpecTest, FromTensorRejectsThePreviousLayout) {
  // Tensors in the layout that carried two covariate counts (always zero)
  // after the flags, as older artifacts hold them: they must fail to load
  // rather than decode with every later field shifted.
  const std::vector<std::vector<double>> previous_layout = {
      {4, 1, 1, 0, 0, 0, 0},
      {4, 1, 1, 0, 0, 2, 24, 168, 0},
      {4, 1, 1, 0, 0, 0, 3, 0, 2, 4},
      {6, 0, 1, 0, 0, 1, 24, 2, 1, 5},
  };
  for (const std::vector<double>& t : previous_layout) {
    Result<FeatureEngineeringSpec> spec = FeatureEngineeringSpec::FromTensor(t);
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SchemaTest, NamesMatchConfiguration) {
  FeatureEngineeringSpec spec;
  spec.n_lags = 3;
  spec.seasonal_periods = {24.0};
  std::vector<std::string> names = FeatureSchema(spec);
  // 3 lags + trend + 6 calendar + 2 seasonal = 12.
  EXPECT_EQ(names.size(), 12u);
  EXPECT_EQ(names[0], "lag_1");
  EXPECT_EQ(names[3], "trend");
  EXPECT_EQ(names.back(), "seasonal_0_cos");
}

TEST(EngineerTest, ShapesAndLagContent) {
  ts::Series s = TrendingSeries(200, 1);
  FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  spec.include_time_features = false;
  spec.include_trend_feature = false;
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->x.rows(), 196u);
  EXPECT_EQ(data->x.cols(), 4u);
  // Row r targets index t = r + 4; lag_1 = values[t-1].
  EXPECT_DOUBLE_EQ(data->y[0], s[4]);
  EXPECT_DOUBLE_EQ(data->x(0, 0), s[3]);
  EXPECT_DOUBLE_EQ(data->x(0, 3), s[0]);
}

TEST(EngineerTest, MissingValuesAreInterpolatedFirst) {
  ts::Series s = TrendingSeries(150, 2);
  s[50] = ts::MissingValue();
  FeatureEngineeringSpec spec;
  spec.n_lags = 2;
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  for (size_t r = 0; r < data->x.rows(); ++r) {
    for (size_t c = 0; c < data->x.cols(); ++c) {
      EXPECT_FALSE(std::isnan(data->x(r, c)));
    }
    EXPECT_FALSE(std::isnan(data->y[r]));
  }
}

TEST(EngineerTest, SeasonalFeaturesAreBoundedSinusoids) {
  ts::Series s = TrendingSeries(300, 3);
  FeatureEngineeringSpec spec;
  spec.n_lags = 2;
  spec.include_time_features = false;
  spec.include_trend_feature = false;
  spec.seasonal_periods = {24.0};
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->x.cols(), 4u);
  for (size_t r = 0; r < data->x.rows(); ++r) {
    EXPECT_LE(std::fabs(data->x(r, 2)), 1.0);
    EXPECT_LE(std::fabs(data->x(r, 3)), 1.0);
    // sin^2 + cos^2 = 1.
    EXPECT_NEAR(data->x(r, 2) * data->x(r, 2) + data->x(r, 3) * data->x(r, 3),
                1.0, 1e-9);
  }
}

TEST(EngineerTest, TrendFeatureTracksTrendingTarget) {
  ts::Series s = TrendingSeries(400, 4);
  FeatureEngineeringSpec spec;
  spec.n_lags = 2;
  spec.include_time_features = false;
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  // Column 2 is the trend; it should correlate strongly with y.
  double corr = 0.0;
  {
    std::vector<double> trend_col = data->x.Column(2);
    double mx = 0, my = 0;
    for (size_t i = 0; i < trend_col.size(); ++i) {
      mx += trend_col[i];
      my += data->y[i];
    }
    mx /= static_cast<double>(trend_col.size());
    my /= static_cast<double>(trend_col.size());
    double num = 0, dx = 0, dy = 0;
    for (size_t i = 0; i < trend_col.size(); ++i) {
      num += (trend_col[i] - mx) * (data->y[i] - my);
      dx += (trend_col[i] - mx) * (trend_col[i] - mx);
      dy += (data->y[i] - my) * (data->y[i] - my);
    }
    corr = num / std::sqrt(dx * dy);
  }
  EXPECT_GT(corr, 0.8);
}

TEST(EngineerTest, SelectionSubsetsColumns) {
  ts::Series s = TrendingSeries(200, 5);
  FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  spec.include_time_features = false;
  spec.include_trend_feature = false;
  spec.selected_features = {0, 2};
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->x.cols(), 2u);
  EXPECT_EQ(data->feature_names[0], "lag_1");
  EXPECT_EQ(data->feature_names[1], "lag_3");
}

TEST(EngineerTest, RejectsBadSpecs) {
  ts::Series s = TrendingSeries(100, 6);
  FeatureEngineeringSpec no_lags;
  no_lags.n_lags = 0;
  EXPECT_FALSE(EngineerFeatures(s, no_lags).ok());

  FeatureEngineeringSpec oob;
  oob.n_lags = 2;
  oob.selected_features = {999};
  EXPECT_FALSE(EngineerFeatures(s, oob).ok());

  ts::Series tiny({1, 2, 3}, 0, 86400);
  FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  EXPECT_FALSE(EngineerFeatures(tiny, spec).ok());
}

TEST(SelectionTest, ImportancesFavourPredictiveLag) {
  // y depends only on lag_1 => lag_1 importance dominates.
  ts::Series s = TrendingSeries(500, 7);
  FeatureEngineeringSpec spec;
  spec.n_lags = 4;
  spec.include_time_features = false;
  spec.include_trend_feature = false;
  Result<EngineeredData> data = EngineerFeatures(s, spec);
  ASSERT_TRUE(data.ok());
  Rng rng(8);
  Result<std::vector<double>> imp = ComputeFeatureImportances(*data, &rng);
  ASSERT_TRUE(imp.ok());
  EXPECT_EQ(imp->size(), 4u);
  EXPECT_GT((*imp)[0], 0.3);  // lag_1 carries most signal on an AR-ish series.
}

TEST(SelectionTest, CoverageKeepsSmallestSufficientSet) {
  // Hand-crafted importances: one dominant feature.
  std::vector<std::vector<double>> imps = {{0.90, 0.06, 0.03, 0.01}};
  Result<std::vector<size_t>> sel = SelectFeatures(imps, {1.0}, 0.95);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);  // 0.90 + 0.06 >= 0.95.
  EXPECT_EQ((*sel)[0], 0u);
  EXPECT_EQ((*sel)[1], 1u);
}

TEST(SelectionTest, WeightsBlendClientViews) {
  // Client A thinks feature 0 matters; client B (heavier) prefers feature 1.
  std::vector<std::vector<double>> imps = {{1.0, 0.0}, {0.0, 1.0}};
  Result<std::vector<size_t>> sel = SelectFeatures(imps, {0.1, 0.9}, 0.6);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 1u);
  EXPECT_EQ((*sel)[0], 1u);
}

TEST(SelectionTest, FullCoverageKeepsEverything) {
  std::vector<std::vector<double>> imps = {{0.4, 0.3, 0.3}};
  Result<std::vector<size_t>> sel = SelectFeatures(imps, {1.0}, 1.0);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 3u);
}

TEST(SelectionTest, DegenerateImportancesKeepAll) {
  std::vector<std::vector<double>> imps = {{0.0, 0.0, 0.0}};
  Result<std::vector<size_t>> sel = SelectFeatures(imps, {1.0}, 0.95);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 3u);
}

TEST(SelectionTest, RejectsBadInputs) {
  EXPECT_FALSE(SelectFeatures({}, {}).ok());
  EXPECT_FALSE(SelectFeatures({{1.0}}, {1.0}, 0.0).ok());
  EXPECT_FALSE(SelectFeatures({{1.0}, {1.0, 2.0}}, {1.0, 1.0}, 0.9).ok());
}

}  // namespace
}  // namespace fedfc::features
