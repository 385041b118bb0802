/// Kernel-layer microbenchmark: scalar vs AVX2 throughput for the hot math
/// ops behind N-BEATS training (src/ml/kernels/). Shapes mirror the dense
/// layers of BenchNBeatsConfig() — batch 256, lookback 16, width 128 — so
/// the GFLOP/s here are the numbers the end-to-end benches are built on.
///
/// Emits BENCH_gemm.json (schema in docs/PERFORMANCE.md); the committed copy
/// at the repo root is the perf-trajectory baseline that
/// scripts/bench_compare.py diffs new runs against.
///
/// Usage: bench_kernels [--json-out PATH]
///   FEDFC_BENCH_TARGET_MS  per-measurement time target (default 200)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "ml/kernels/kernels.h"

namespace fedfc::bench {
namespace {

using ml::kernels::Backend;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-1.0, 1.0);
  return v;
}

/// Runs `op` repeatedly until the time target is hit (>= 3 reps), returning
/// reps per second. `sink` defeats dead-code elimination.
template <typename Op>
double MeasureRepsPerSecond(double target_ms, Op&& op, double* sink) {
  // One warm-up rep (also faults in pages).
  *sink += op();
  const double target_s = target_ms / 1000.0;
  size_t reps = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (reps < 3 || elapsed < target_s) {
    *sink += op();
    ++reps;
    elapsed = SecondsSince(start);
  }
  return static_cast<double>(reps) / elapsed;
}

struct GemmShape {
  size_t m, n, k;
  const char* note;
};

int Main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json-out PATH]\n", argv[0]);
      return 2;
    }
  }
  const double target_ms = EnvDouble("FEDFC_BENCH_TARGET_MS", 200.0);

  BenchReporter reporter("gemm");
  reporter.AddConfig("FEDFC_BENCH_TARGET_MS", target_ms);
  reporter.AddConfig("dispatch_backend", ml::kernels::ActiveBackend().name);

  std::vector<const Backend*> backends = {&ml::kernels::ScalarBackend()};
  if (const Backend* avx2 = ml::kernels::Avx2BackendOrNull()) {
    backends.push_back(avx2);
  }
  reporter.AddConfig("avx2_available", backends.size() > 1 ? "yes" : "no");

  Rng rng(20250808);
  double sink = 0.0;

  // Dense-layer forward: C = bias + A * B^T at N-BEATS layer shapes.
  const GemmShape shapes[] = {
      {256, 128, 16, "input layer (batch x width x lookback)"},
      {256, 128, 128, "trunk layer (batch x width x width)"},
      {256, 16, 128, "backcast head (batch x lookback x width)"},
      {64, 64, 64, "generic square"},
  };
  std::printf("gemm_bias_nt (C = bias + A * B^T), GFLOP/s:\n");
  for (const GemmShape& s : shapes) {
    const std::vector<double> a = RandomVector(s.m * s.k, &rng);
    const std::vector<double> b = RandomVector(s.n * s.k, &rng);
    const std::vector<double> bias = RandomVector(s.n, &rng);
    std::vector<double> c(s.m * s.n, 0.0);
    const double flops = 2.0 * static_cast<double>(s.m * s.n * s.k);
    double scalar_gflops = 0.0;
    for (const Backend* backend : backends) {
      double rps = MeasureRepsPerSecond(
          target_ms,
          [&] {
            backend->gemm_bias_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                                  bias.data(), c.data(), s.n);
            return c[0];
          },
          &sink);
      const double gflops = rps * flops / 1e9;
      std::string name = "gemm_bias_nt_" + std::to_string(s.m) + "x" +
                         std::to_string(s.n) + "x" + std::to_string(s.k) + "_" +
                         backend->name;
      std::printf("  %-34s %8.3f  (%s)\n", name.c_str(), gflops, s.note);
      reporter.AddMetric(name + "_gflops", gflops, "GFLOP/s", true);
      if (backend == backends.front()) {
        scalar_gflops = gflops;
      } else if (scalar_gflops > 0.0) {
        reporter.AddMetric(name + "_speedup_vs_scalar", gflops / scalar_gflops,
                           "x", true);
      }
    }
  }

  // N-BEATS basis projection: C += A * B (theta x basis).
  const GemmShape nn_shapes[] = {
      {256, 16, 8, "theta x trend basis"},
      {256, 128, 128, "generic square, relu-sparse-free"},
  };
  std::printf("gemm_nn (C += A * B), GFLOP/s:\n");
  for (const GemmShape& s : nn_shapes) {
    const std::vector<double> a = RandomVector(s.m * s.k, &rng);
    const std::vector<double> b = RandomVector(s.k * s.n, &rng);
    std::vector<double> c(s.m * s.n, 0.0);
    const double flops = 2.0 * static_cast<double>(s.m * s.n * s.k);
    for (const Backend* backend : backends) {
      double rps = MeasureRepsPerSecond(
          target_ms,
          [&] {
            backend->gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                             c.data(), s.n);
            return c[0];
          },
          &sink);
      const double gflops = rps * flops / 1e9;
      std::string name = "gemm_nn_" + std::to_string(s.m) + "x" +
                         std::to_string(s.n) + "x" + std::to_string(s.k) + "_" +
                         backend->name;
      std::printf("  %-34s %8.3f  (%s)\n", name.c_str(), gflops, s.note);
      reporter.AddMetric(name + "_gflops", gflops, "GFLOP/s", true);
    }
  }

  // Vector ops at trunk width x batch scale.
  {
    constexpr size_t kN = 4096;
    const std::vector<double> x = RandomVector(kN, &rng);
    std::vector<double> y = RandomVector(kN, &rng);
    std::printf("axpy (n=%zu), GFLOP/s:\n", kN);
    for (const Backend* backend : backends) {
      double axpy_rps = MeasureRepsPerSecond(
          target_ms,
          [&] {
            backend->axpy(kN, 1e-9, x.data(), y.data());
            return y[0];
          },
          &sink);
      const double flops = 2.0 * static_cast<double>(kN);
      std::printf("  axpy_%-7s %8.3f\n", backend->name, axpy_rps * flops / 1e9);
      reporter.AddMetric(std::string("axpy_4096_") + backend->name + "_gflops",
                         axpy_rps * flops / 1e9, "GFLOP/s", true);
    }
  }

  if (sink == 0.12345) std::printf("sink %f\n", sink);  // Keep `sink` live.
  Status status = reporter.WriteJson(json_out);
  FEDFC_CHECK(status.ok()) << status;
  return 0;
}

}  // namespace
}  // namespace fedfc::bench

int main(int argc, char** argv) { return fedfc::bench::Main(argc, argv); }
