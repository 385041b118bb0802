#include "automl/model_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "core/rng.h"
#include "ml/linear/huber.h"
#include "ml/tree/gbdt.h"

namespace fedfc::automl {
namespace {

struct Problem {
  Matrix x;
  std::vector<double> y;
};

Problem MakeProblem(double slope, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = Matrix(120, 2);
  p.y.resize(120);
  for (size_t i = 0; i < 120; ++i) {
    p.x(i, 0) = rng.Uniform(-2, 2);
    p.x(i, 1) = rng.Uniform(-2, 2);
    p.y[i] = slope * p.x(i, 0) + 0.5 * p.x(i, 1);
  }
  return p;
}

Configuration HuberConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kHuber;
  c.categorical["epsilon"] = "1.35";
  c.numeric["alpha"] = 1e-4;
  return c;
}

Configuration XgbConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kXgb;
  c.numeric = {{"n_estimators", 10},
               {"max_depth", 3},
               {"learning_rate", 0.2},
               {"reg_lambda", 1.0},
               {"subsample", 1.0}};
  return c;
}

TEST(ModelIoTest, LinearRoundTrip) {
  Problem p = MakeProblem(2.0, 1);
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(2);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  Result<std::unique_ptr<ml::Regressor>> restored =
      DeserializeModel(config, *blob);
  ASSERT_TRUE(restored.ok());
  std::vector<double> a = (*model)->Predict(p.x);
  std::vector<double> b = (*restored)->Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelIoTest, XgbRoundTrip) {
  Problem p = MakeProblem(3.0, 3);
  Configuration config = XgbConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(4);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  Result<std::unique_ptr<ml::Regressor>> restored =
      DeserializeModel(config, *blob);
  ASSERT_TRUE(restored.ok());
  std::vector<double> a = (*model)->Predict(p.x);
  std::vector<double> b = (*restored)->Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelIoTest, SerializeRejectsUnfittedLinear) {
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(SerializeModel(config, **model).ok());
}

/// Folds `blobs` through ModelBlobAccumulator, as the final-fit round does.
Result<std::vector<double>> FoldBlobs(
    const Configuration& config, const std::vector<std::vector<double>>& blobs,
    const std::vector<double>& weights) {
  ModelBlobAccumulator acc(config);
  for (size_t k = 0; k < blobs.size(); ++k) {
    FEDFC_RETURN_IF_ERROR(acc.Add(weights[k], blobs[k]));
  }
  return acc.Finish();
}

TEST(AggregateBlobsTest, LinearBlobsAverage) {
  Configuration config = HuberConfig();
  std::vector<std::vector<double>> blobs = {{2.0, 4.0, 1.0}, {4.0, 8.0, 3.0}};
  Result<std::vector<double>> merged = FoldBlobs(config, blobs, {0.5, 0.5});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ((*merged)[0], 3.0);
  EXPECT_DOUBLE_EQ((*merged)[1], 6.0);
  EXPECT_DOUBLE_EQ((*merged)[2], 2.0);
}

TEST(AggregateBlobsTest, UnnormalizedWeightsRenormalized) {
  Configuration config = HuberConfig();
  std::vector<std::vector<double>> blobs = {{2.0}, {4.0}};
  Result<std::vector<double>> merged = FoldBlobs(config, blobs, {10.0, 30.0});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ((*merged)[0], 3.5);
}

TEST(AggregateBlobsTest, XgbMergePredictionEquivalentToEnsemble) {
  // Two fitted XGB models on different slopes: the merged blob must predict
  // the weighted average of the two models' predictions.
  Configuration config = XgbConfig();
  Problem p1 = MakeProblem(2.0, 5);
  Problem p2 = MakeProblem(5.0, 6);
  std::vector<std::vector<double>> blobs;
  std::vector<std::unique_ptr<ml::Regressor>> models;
  for (const Problem* p : {&p1, &p2}) {
    Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
    ASSERT_TRUE(model.ok());
    Rng rng(7);
    ASSERT_TRUE((*model)->Fit(p->x, p->y, &rng).ok());
    Result<std::vector<double>> blob = SerializeModel(config, **model);
    ASSERT_TRUE(blob.ok());
    blobs.push_back(std::move(*blob));
    models.push_back(std::move(*model));
  }
  std::vector<double> weights = {0.3, 0.7};
  Result<std::vector<double>> merged = FoldBlobs(config, blobs, weights);
  ASSERT_TRUE(merged.ok());
  Result<std::unique_ptr<ml::Regressor>> global =
      DeserializeModel(config, *merged);
  ASSERT_TRUE(global.ok());

  std::vector<double> pa = models[0]->Predict(p1.x);
  std::vector<double> pb = models[1]->Predict(p1.x);
  std::vector<double> pg = (*global)->Predict(p1.x);
  for (size_t i = 0; i < pg.size(); ++i) {
    EXPECT_NEAR(pg[i], 0.3 * pa[i] + 0.7 * pb[i], 1e-9);
  }
}

TEST(AggregateBlobsTest, RejectsBadInputs) {
  Configuration config = HuberConfig();
  EXPECT_FALSE(FoldBlobs(config, {}, {}).ok());
  EXPECT_FALSE(FoldBlobs(config, {{1.0}, {1.0, 2.0}}, {0.5, 0.5}).ok());
  EXPECT_FALSE(FoldBlobs(config, {{1.0}}, {0.0}).ok());
  Configuration xgb = XgbConfig();
  EXPECT_FALSE(FoldBlobs(xgb, {{1.0}}, {1.0}).ok());  // Short blob.
}

Result<std::vector<double>> FittedBlob(const Configuration& config,
                                       double slope, uint64_t seed) {
  Problem p = MakeProblem(slope, seed);
  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         CreateRegressor(config));
  Rng rng(seed + 1);
  FEDFC_RETURN_IF_ERROR(model->Fit(p.x, p.y, &rng));
  return SerializeModel(config, *model);
}

TEST(AggregateBlobsTest, RejectsBlobsNoConsumerCanLoadAndLeavesTheFoldUnchanged) {
  // The fold used to walk the blob layout by hand and accepted all five of
  // these, which DeserializeModel rejects: Finish then returned a global
  // model no client, evaluate round or Forecaster could load.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    Configuration config;
    std::vector<double> blob;
  };
  const std::vector<Case> cases = {
      {"xgb split pointing at itself", XgbConfig(),
       {0.5, 0.1, 1.0, /*tree*/ 1.0, 0.0, 0.5, 0.0, 0.0, 0.0}},
      {"xgb NaN leaf", XgbConfig(),
       {0.5, 0.1, 1.0, /*tree*/ 1.0, -1.0, 0.0, -1.0, -1.0, nan}},
      {"xgb zero trees", XgbConfig(), {0.5, 0.1, 0.0}},
      {"linear NaN weight", HuberConfig(), {1.0, nan, 2.0}},
      {"linear empty", HuberConfig(), {}},
  };
  for (const Case& c : cases) {
    ModelBlobAccumulator fresh(c.config);
    EXPECT_EQ(fresh.Add(1.0, c.blob).code(), StatusCode::kInvalidArgument)
        << c.name;

    Result<std::vector<double>> good1 = FittedBlob(c.config, 2.0, 61);
    Result<std::vector<double>> good2 = FittedBlob(c.config, -1.0, 63);
    ASSERT_TRUE(good1.ok() && good2.ok()) << c.name;
    ModelBlobAccumulator with_bad(c.config);
    ASSERT_TRUE(with_bad.Add(40.0, *good1).ok());
    EXPECT_EQ(with_bad.Add(25.0, c.blob).code(), StatusCode::kInvalidArgument)
        << c.name;
    ASSERT_TRUE(with_bad.Add(35.0, *good2).ok());
    Result<std::vector<double>> folded = with_bad.Finish();
    Result<std::vector<double>> expected =
        FoldBlobs(c.config, {*good1, *good2}, {40.0, 35.0});
    ASSERT_TRUE(folded.ok() && expected.ok()) << c.name;
    ASSERT_EQ(folded->size(), expected->size()) << c.name;
    EXPECT_EQ(std::memcmp(folded->data(), expected->data(),
                          folded->size() * sizeof(double)),
              0)
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Decode hardening: truncated, bit-flipped, and implausibly-sized blobs are
// rejected with typed errors before any decoder state (or allocation sized
// from an untrusted count) is built.
// ---------------------------------------------------------------------------

TEST(ModelIoHardeningTest, NonFiniteBlobValuesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double poison : {nan, inf, -inf}) {
    Result<std::unique_ptr<ml::Regressor>> linear =
        DeserializeModel(HuberConfig(), {1.0, poison, 2.0});
    EXPECT_EQ(linear.status().code(), StatusCode::kInvalidArgument);
    Result<std::unique_ptr<ml::Regressor>> xgb =
        DeserializeModel(XgbConfig(), {0.0, 0.1, poison});
    EXPECT_EQ(xgb.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ModelIoHardeningTest, ImplausibleXgbCountFieldsRejected) {
  // The tree/node counts are untrusted doubles. Negative, fractional, and
  // blob-exceeding claims must all fail the checked cast — the huge claim
  // in particular must be rejected *before* any node storage is sized.
  for (double n_trees : {-1.0, 1.5, 1e18, 4.0}) {  // 4 trees can't fit here.
    std::vector<double> blob = {0.0, 0.1, n_trees};
    EXPECT_FALSE(DeserializeModel(XgbConfig(), blob).ok()) << n_trees;
  }
  // Same for a tree's node count: one tree claiming more nodes than the
  // remaining span could hold.
  std::vector<double> blob = {0.0, 0.1, 1.0, 1e12};
  EXPECT_FALSE(DeserializeModel(XgbConfig(), blob).ok());
}

TEST(ModelIoHardeningTest, TruncatedXgbBlobRejected) {
  Problem p = MakeProblem(2.0, 31);
  Configuration config = XgbConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(32);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  ASSERT_GT(blob->size(), 4u);
  std::vector<double> truncated(blob->begin(),
                                blob->begin() + static_cast<long>(blob->size() / 2));
  EXPECT_FALSE(DeserializeModel(config, truncated).ok());
}

// ---------------------------------------------------------------------------
// Serving artifact codec and the Forecaster entry point.
// ---------------------------------------------------------------------------

ModelArtifact MakeArtifact(uint64_t seed) {
  Problem p = MakeProblem(2.0, seed);
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  EXPECT_TRUE(model.ok());
  Rng rng(seed + 1);
  EXPECT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  EXPECT_TRUE(blob.ok());
  ModelArtifact artifact;
  artifact.config = std::move(config);
  artifact.spec.n_lags = 2;  // Two lag columns, nothing else: width 2.
  artifact.spec.include_time_features = false;
  artifact.spec.include_trend_feature = false;
  artifact.blob = std::move(*blob);
  return artifact;
}

TEST(ModelArtifactTest, CodecRoundTrip) {
  ModelArtifact artifact = MakeArtifact(41);
  Result<ModelArtifact> decoded =
      DecodeModelArtifact(EncodeModelArtifact(artifact));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->config.algorithm, artifact.config.algorithm);
  EXPECT_EQ(decoded->spec.n_lags, artifact.spec.n_lags);
  EXPECT_EQ(decoded->spec.include_time_features,
            artifact.spec.include_time_features);
  EXPECT_EQ(decoded->spec.include_trend_feature,
            artifact.spec.include_trend_feature);
  ASSERT_EQ(decoded->blob.size(), artifact.blob.size());
  for (size_t i = 0; i < artifact.blob.size(); ++i) {
    EXPECT_EQ(decoded->blob[i], artifact.blob[i]);
  }
}

TEST(ModelArtifactTest, TruncatedBytesRejected) {
  std::vector<uint8_t> bytes = EncodeModelArtifact(MakeArtifact(43));
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{3}, size_t{0}}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(DecodeModelArtifact(cut).ok()) << keep << " bytes kept";
  }
}

TEST(ForecasterTest, PredictsLikeTheDeserializedModel) {
  ModelArtifact artifact = MakeArtifact(45);
  Result<Forecaster> forecaster = Forecaster::FromArtifact(artifact);
  ASSERT_TRUE(forecaster.ok()) << forecaster.status();
  EXPECT_EQ(forecaster->n_features(), 2u);

  Result<std::unique_ptr<ml::Regressor>> model =
      DeserializeModel(artifact.config, artifact.blob);
  ASSERT_TRUE(model.ok());
  Problem p = MakeProblem(1.0, 46);
  Result<std::vector<double>> served = forecaster->Forecast(p.x);
  ASSERT_TRUE(served.ok()) << served.status();
  std::vector<double> direct = (*model)->Predict(p.x);
  ASSERT_EQ(served->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) EXPECT_EQ((*served)[i], direct[i]);
}

TEST(ForecasterTest, RejectsOutOfRangeFeatureSelection) {
  ModelArtifact artifact = MakeArtifact(47);
  artifact.spec.selected_features = {0, 99};  // 99 outside the 2-col schema.
  Status status = Forecaster::FromArtifact(artifact).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("selected feature"), std::string::npos)
      << status;
}

TEST(ForecasterTest, ForecastValidatesRequestShape) {
  Result<Forecaster> forecaster = Forecaster::FromArtifact(MakeArtifact(49));
  ASSERT_TRUE(forecaster.ok());
  EXPECT_FALSE(forecaster->Forecast(Matrix(0, 2)).ok());  // Empty.
  EXPECT_FALSE(forecaster->Forecast(Matrix(4, 3)).ok());  // Wrong width.
}

TEST(ForecasterTest, RejectsBlobNarrowerThanSchema) {
  // Fuzzer-surfaced (tests/fuzz/regressions/model_artifact/crash-linear-
  // width): a linear blob whose weight count disagrees with the spec's
  // schema used to pass FromArtifact and abort inside Predict's width
  // CHECK. ValidateFeatureWidth now rejects it at the decode boundary.
  ModelArtifact artifact = MakeArtifact(51);
  artifact.blob = {0.1, 0.2, 0.3, 1.5};  // 3 weights for a 2-column schema.
  Status status = Forecaster::FromArtifact(artifact).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ForecasterTest, CommittedBlobRegressionsReachTheirGuards) {
  // The fuzz regressions for blob defects must decode as artifacts (their
  // config and spec are well formed) and fail only at the FromArtifact
  // blob check each was written for; bytes the artifact decoder stops
  // would no longer reach that guard.
  const std::pair<const char*, const char*> cases[] = {
      {"crash-linear-width", "feature weights"},
      {"crash-gbdt-empty-trees", "blob encodes no trees"},
      {"crash-tree-cycle", "invalid child index"},
      {"crash-tree-huge-feature", "feature field"},
  };
  for (const auto& [name, guard] : cases) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(FEDFC_FUZZ_REGRESSIONS_DIR) +
                         "/model_artifact/" + name,
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    Result<ModelArtifact> artifact = DecodeModelArtifact(bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status();
    Status status = Forecaster::FromArtifact(*artifact).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(guard), std::string::npos) << status;
  }
}

}  // namespace
}  // namespace fedfc::automl
