/// Kernel-layer contract tests (src/ml/kernels/): the scalar backend is the
/// oracle — bit-identical to the historical loops it replaced — and every
/// other backend must match it within 1e-9 relative (axpy, gemm_*), the
/// epsilon documented in docs/PERFORMANCE.md.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "backend_guard.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "data/generators.h"
#include "fl/transport.h"
#include "ml/kernels/kernels.h"

namespace fedfc::ml {
namespace {

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-2.0, 2.0);
  return v;
}

/// The documented cross-backend epsilon for reduction kernels.
void ExpectWithinEpsilon(double expected, double actual) {
  const double tol =
      1e-9 * std::max({1.0, std::abs(expected), std::abs(actual)});
  EXPECT_NEAR(expected, actual, tol);
}

struct Shape {
  size_t m, n, k;
};

/// Ragged sizes straddle every vector-width boundary: below one lane group,
/// exact multiples of 4 and 8, and off-by-one on both sides.
const Shape kShapes[] = {
    {1, 1, 1},  {2, 3, 5},   {7, 8, 13},  {8, 4, 4},
    {5, 33, 8}, {16, 16, 16}, {17, 31, 33}, {33, 5, 17},
};

TEST(KernelsTest, ScalarBackendIsAlwaysAvailable) {
  EXPECT_STREQ(kernels::ScalarBackend().name, "scalar");
  const char* active = kernels::ActiveBackend().name;
  EXPECT_TRUE(std::strcmp(active, "scalar") == 0 ||
              std::strcmp(active, "avx2") == 0);
}

TEST(KernelsTest, SetBackendRoundTrips) {
  kernels::BackendKind prev = kernels::SetBackend(kernels::BackendKind::kScalar);
  EXPECT_STREQ(kernels::ActiveBackend().name, "scalar");
  kernels::SetBackend(prev);
}

TEST(KernelsTest, ScalarGemmNNMatchesMatrixMultiply) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    for (double& v : a.data()) v = rng.Uniform(-2.0, 2.0);
    for (double& v : b.data()) v = rng.Uniform(-2.0, 2.0);
    // Exercise the a == 0.0 skip path too.
    if (s.m > 1) a(1, 0) = 0.0;
    Matrix expected = a.Multiply(b);
    Matrix c(s.m, s.n, 0.0);
    kernels::ScalarBackend().gemm_nn(s.m, s.n, s.k, a.Row(0), s.k, b.Row(0),
                                     s.n, c.Row(0), s.n);
    for (size_t i = 0; i < s.m * s.n; ++i) {
      // Bit-identical: the scalar kernel is the oracle for Matrix::Multiply.
      EXPECT_EQ(expected.data()[i], c.data()[i]);
    }
  }
}

TEST(KernelsTest, BackendsAgreeOnAxpy) {
  const kernels::Backend* avx2 = kernels::Avx2BackendOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this build/CPU";
  Rng rng(13);
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 13u, 16u, 17u, 31u, 33u, 257u}) {
    const std::vector<double> a = RandomVector(n, &rng);
    const std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> y_scalar = b, y_avx2 = b;
    kernels::ScalarBackend().axpy(n, 0.37, a.data(), y_scalar.data());
    avx2->axpy(n, 0.37, a.data(), y_avx2.data());
    for (size_t i = 0; i < n; ++i) {
      ExpectWithinEpsilon(y_scalar[i], y_avx2[i]);
    }
  }
}

TEST(KernelsTest, BackendsAgreeOnGemmNN) {
  const kernels::Backend* avx2 = kernels::Avx2BackendOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this build/CPU";
  Rng rng(17);
  for (const Shape& s : kShapes) {
    const std::vector<double> a = RandomVector(s.m * s.k, &rng);
    const std::vector<double> b = RandomVector(s.k * s.n, &rng);
    std::vector<double> c_scalar(s.m * s.n, 0.5), c_avx2(s.m * s.n, 0.5);
    kernels::ScalarBackend().gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(),
                                     s.n, c_scalar.data(), s.n);
    avx2->gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_avx2.data(),
                  s.n);
    for (size_t i = 0; i < c_scalar.size(); ++i) {
      ExpectWithinEpsilon(c_scalar[i], c_avx2[i]);
    }
  }
}

TEST(KernelsTest, BackendsAgreeOnGemmBiasNT) {
  const kernels::Backend* avx2 = kernels::Avx2BackendOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this build/CPU";
  Rng rng(19);
  for (const Shape& s : kShapes) {
    const std::vector<double> a = RandomVector(s.m * s.k, &rng);
    const std::vector<double> b = RandomVector(s.n * s.k, &rng);
    const std::vector<double> bias = RandomVector(s.n, &rng);
    for (const double* bias_ptr : {bias.data(), static_cast<const double*>(nullptr)}) {
      std::vector<double> c_scalar(s.m * s.n, -7.0), c_avx2(s.m * s.n, 7.0);
      kernels::ScalarBackend().gemm_bias_nt(s.m, s.n, s.k, a.data(), s.k,
                                            b.data(), s.k, bias_ptr,
                                            c_scalar.data(), s.n);
      avx2->gemm_bias_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, bias_ptr,
                         c_avx2.data(), s.n);
      for (size_t i = 0; i < c_scalar.size(); ++i) {
        ExpectWithinEpsilon(c_scalar[i], c_avx2[i]);
      }
    }
  }
}

TEST(KernelsTest, MatMulMatchesMatrixMultiplyOnScalarBackend) {
  BackendGuard guard(kernels::BackendKind::kScalar);
  Rng rng(31);
  Matrix a(17, 9), b(9, 5);
  for (double& v : a.data()) v = rng.Uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix expected = a.Multiply(b);
  Matrix actual = kernels::MatMul(a, b);
  for (size_t i = 0; i < expected.data().size(); ++i) {
    EXPECT_EQ(expected.data()[i], actual.data()[i]);
  }
}

/// End-to-end seeded invariance on the forced-scalar path: two identical
/// engine runs must agree bit-for-bit (the FEDFC_KERNEL_BACKEND=scalar
/// fallback contract from docs/PERFORMANCE.md, exercised via SetBackend).
TEST(KernelsTest, SeededEngineRunIsBitIdenticalOnScalarBackend) {
  BackendGuard guard(kernels::BackendKind::kScalar);
  auto run_once = []() {
    Rng rng(41);
    data::SignalSpec spec;
    spec.length = 4 * 120;
    spec.level = 10.0;
    spec.seasonalities = {{24.0, 2.0, 0.0}};
    spec.noise_std = 0.3;
    spec.ar_coefficient = 0.5;
    ts::Series series = data::GenerateSignal(spec, &rng);
    std::vector<ts::Series> splits = *ts::SplitIntoClients(series, 4);
    std::vector<std::shared_ptr<fl::Client>> clients;
    std::vector<size_t> sizes;
    for (size_t j = 0; j < splits.size(); ++j) {
      automl::ForecastClient::Options opt;
      opt.seed = 5 + j;
      sizes.push_back(splits[j].size());
      clients.push_back(std::make_shared<automl::ForecastClient>(
          "c" + std::to_string(j), splits[j], opt));
    }
    fl::Server server(
        std::make_unique<fl::InProcessTransport>(std::move(clients)), sizes);
    automl::EngineOptions opt;
    opt.use_meta_model = false;
    opt.strategy = automl::SearchStrategy::kRandom;
    opt.max_iterations = 3;
    opt.time_budget_seconds = 60.0;
    opt.seed = 43;
    automl::FedForecasterEngine engine(nullptr, opt);
    return engine.Run(&server);
  };
  Result<automl::EngineReport> a = run_once();
  Result<automl::EngineReport> b = run_once();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->best_config.ToString(), b->best_config.ToString());
  EXPECT_EQ(a->best_valid_loss, b->best_valid_loss);
  EXPECT_EQ(a->test_loss, b->test_loss);
}

}  // namespace
}  // namespace fedfc::ml
