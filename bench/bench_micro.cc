/// Google-benchmark micro-benchmarks for the substrate costs behind the
/// paper's runtime numbers: FFT/periodogram, ACF/PACF, ADF, meta-feature
/// extraction, GP fit + EI proposal, tree/boosting and coordinate-descent
/// fits (the importance forest, XGB and the meta-model forest at the shapes
/// the engine meets), and payload serialization.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "automl/bayesopt/bayes_opt.h"
#include "core/rng.h"
#include "data/generators.h"
#include "features/feature_selection.h"
#include "features/meta_features.h"
#include "fl/payload.h"
#include "ml/linear/elastic_net.h"
#include "ml/linear/lasso.h"
#include "ml/tree/gbdt.h"
#include "ml/tree/random_forest.h"
#include "ts/acf.h"
#include "ts/adf.h"
#include "ts/fft.h"
#include "ts/periodogram.h"

namespace {

using namespace fedfc;  // NOLINT: bench-local convenience.

std::vector<double> BenchSignal(size_t n) {
  Rng rng(11);
  data::SignalSpec spec;
  spec.length = n;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.ar_coefficient = 0.5;
  return data::GenerateSignal(spec, &rng).values();
}

void BM_Fft(benchmark::State& state) {
  std::vector<double> x = BenchSignal(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::RealFft(x));
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_Periodogram(benchmark::State& state) {
  std::vector<double> x = BenchSignal(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::DetectSeasonalities(x, 5));
  }
}
BENCHMARK(BM_Periodogram)->Arg(1024)->Arg(8192);

void BM_Pacf(benchmark::State& state) {
  std::vector<double> x = BenchSignal(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::Pacf(x, 40));
  }
}
BENCHMARK(BM_Pacf)->Arg(1024)->Arg(8192);

void BM_AdfTest(benchmark::State& state) {
  std::vector<double> x = BenchSignal(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::AdfTest(x));
  }
}
BENCHMARK(BM_AdfTest)->Arg(512)->Arg(4096);

void BM_ClientMetaFeatures(benchmark::State& state) {
  Rng rng(13);
  data::SignalSpec spec;
  spec.length = static_cast<size_t>(state.range(0));
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  ts::Series series = data::GenerateSignal(spec, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::ComputeClientMetaFeatures(series));
  }
}
BENCHMARK(BM_ClientMetaFeatures)->Arg(500)->Arg(2000)->Arg(8000);

void BM_GpFitPredict(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  Matrix x(n, 4);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.Uniform();
    y[i] = rng.Normal();
  }
  for (auto _ : state) {
    automl::GaussianProcess gp;
    benchmark::DoNotOptimize(gp.Fit(x, y));
    benchmark::DoNotOptimize(gp.Predict({0.5, 0.5, 0.5, 0.5}));
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(16)->Arg(64)->Arg(128);

void BM_BoPropose(benchmark::State& state) {
  automl::BayesOptConfig cfg;
  cfg.n_candidates = 256;
  automl::BayesianOptimizer bo(automl::AlgorithmId::kXgb, cfg);
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    automl::Configuration c = bo.Propose(&rng);
    bo.Observe(c, rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bo.Propose(&rng));
  }
}
BENCHMARK(BM_BoPropose);

void BM_GbdtFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(23);
  Matrix x(n, 8);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.Normal();
    y[i] = x(i, 0) + rng.Normal(0, 0.1);
  }
  ml::GbdtConfig cfg;
  cfg.n_estimators = 10;
  cfg.max_depth = 4;
  for (auto _ : state) {
    ml::GbdtRegressor model(cfg);
    Rng fit_rng(29);
    benchmark::DoNotOptimize(model.Fit(x, y, &fit_rng));
  }
}
BENCHMARK(BM_GbdtFit)->Arg(500)->Arg(2000);

void BM_RandomForestFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(31);
  Matrix x(n, 8);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.Normal();
    y[i] = x(i, 0) + rng.Normal(0, 0.1);
  }
  ml::ForestConfig cfg;
  cfg.n_trees = 25;
  for (auto _ : state) {
    ml::RandomForestRegressor model(cfg);
    Rng fit_rng(37);
    benchmark::DoNotOptimize(model.Fit(x, y, &fit_rng));
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(500)->Arg(2000);

/// `n` rows of `d` autoregressive lags of the bench signal and the next
/// value as the target: the shape of a client's engineered feature matrix.
struct LagProblem {
  Matrix x;
  std::vector<double> y;
};

LagProblem MakeLagProblem(size_t n, size_t d) {
  const std::vector<double> s = BenchSignal(n + d);
  LagProblem p{Matrix(n, d), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) p.x(i, j) = s[i + d - 1 - j];
    p.y[i] = s[i + d];
  }
  return p;
}

// (n, d) pairs seen most often among the automl_bo suite's engineered
// client matrices (perfbench, seed 1).
void LinearFitShapes(benchmark::internal::Benchmark* b) {
  b->Args({76, 4})->Args({85, 13})->Args({80, 11})->Args({328, 16});
}

void BM_LassoFit(benchmark::State& state) {
  const LagProblem p = MakeLagProblem(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  ml::LassoRegressor::Config cfg;
  cfg.alpha = 0.01;
  for (auto _ : state) {
    ml::LassoRegressor model(cfg);
    Rng fit_rng(41);
    benchmark::DoNotOptimize(model.Fit(p.x, p.y, &fit_rng));
  }
}
BENCHMARK(BM_LassoFit)->Apply(LinearFitShapes);

void BM_ElasticNetCvFit(benchmark::State& state) {
  const LagProblem p = MakeLagProblem(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  ml::ElasticNetCvRegressor::Config cfg;
  cfg.l1_ratio = 0.5;
  for (auto _ : state) {
    ml::ElasticNetCvRegressor model(cfg);
    Rng fit_rng(43);
    benchmark::DoNotOptimize(model.Fit(p.x, p.y, &fit_rng));
  }
}
BENCHMARK(BM_ElasticNetCvFit)->Apply(LinearFitShapes);

/// The client's Section 4.2.2 importance forest (25 trees, depth 8, 0.7 of
/// the features) on an engineered-matrix shape.
void BM_FeatureImportance(benchmark::State& state) {
  const LagProblem p = MakeLagProblem(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  features::EngineeredData data;
  data.x = p.x;
  data.y = p.y;
  for (auto _ : state) {
    Rng fit_rng(47);
    benchmark::DoNotOptimize(features::ComputeFeatureImportances(data, &fit_rng));
  }
}
BENCHMARK(BM_FeatureImportance)->Apply(LinearFitShapes);

/// A mid-range Table 2 XGBRegressor configuration with row subsampling.
void BM_XgbFit(benchmark::State& state) {
  const LagProblem p = MakeLagProblem(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  ml::GbdtConfig cfg;
  cfg.n_estimators = 12;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.3;
  cfg.reg_lambda = 5.0;
  cfg.subsample = 0.8;
  for (auto _ : state) {
    ml::GbdtRegressor model(cfg);
    Rng fit_rng(53);
    benchmark::DoNotOptimize(model.Fit(p.x, p.y, &fit_rng));
  }
}
BENCHMARK(BM_XgbFit)->Apply(LinearFitShapes);

/// The Table 4 "Random Forest" meta-model (120 trees, depth 10, 0.5 of the
/// features) on the knowledge base's training shape: 90 records of 51
/// meta-features, labelled with one of the six Table 2 families.
void BM_MetaModelForestFit(benchmark::State& state) {
  constexpr size_t kRecords = 90, kMeta = 51, kFamilies = 6;
  Rng rng(59);
  Matrix x(kRecords, kMeta);
  std::vector<int> y(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    for (size_t j = 0; j < kMeta; ++j) x(i, j) = rng.Normal();
    const double s = x(i, 0) + 0.5 * x(i, 1) - 0.25 * x(i, 2) + 0.5 * rng.Normal();
    y[i] = static_cast<int>(std::min<double>(kFamilies - 1, std::floor(std::abs(s) * 2.0)));
  }
  ml::ForestConfig cfg;
  cfg.n_trees = 120;
  cfg.tree.max_depth = 10;
  cfg.tree.max_features_fraction = 0.5;
  for (auto _ : state) {
    ml::RandomForestClassifier model(cfg);
    Rng fit_rng(61);
    benchmark::DoNotOptimize(model.Fit(x, y, static_cast<int>(kFamilies), &fit_rng));
  }
}
BENCHMARK(BM_MetaModelForestFit);

void BM_PayloadRoundTrip(benchmark::State& state) {
  fl::Payload payload;
  std::vector<double> tensor(static_cast<size_t>(state.range(0)), 1.5);
  payload.SetTensor("params", tensor);
  payload.SetDouble("loss", 0.5);
  payload.SetString("task", "fit_evaluate");
  for (auto _ : state) {
    std::vector<uint8_t> bytes = payload.Serialize();
    benchmark::DoNotOptimize(fl::Payload::Deserialize(bytes));
  }
}
BENCHMARK(BM_PayloadRoundTrip)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
