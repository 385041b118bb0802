/// Reproduces the Section 5.2 "Runtime" measurements: the cost of one
/// knowledge-base record (paper: ~114.53 s at full scale) and the per-client
/// meta-feature extraction cost (paper: ~2.74 s).

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "features/meta_features.h"
#include "ml/kernels/kernels.h"

namespace fedfc::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

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
  BenchConfig cfg;
  BenchReporter reporter("runtime");
  reporter.AddConfig("FEDFC_SCALE", cfg.length_scale);
  reporter.AddConfig("kernel_backend", ml::kernels::ActiveBackend().name);
  std::printf("=== Section 5.2 Runtime measurements ===\n\n");

  // (1) One knowledge-base record (offline phase).
  {
    Rng rng(7);
    ts::Series series = automl::SampleKnowledgeBaseSeries(900, false, &rng);
    auto start = std::chrono::steady_clock::now();
    Result<automl::KnowledgeBaseRecord> record =
        automl::BuildKnowledgeBaseRecord("runtime-probe", series, 5,
                                         /*grid_per_dim=*/1, 9);
    double elapsed = SecondsSince(start);
    FEDFC_CHECK(record.ok()) << record.status();
    std::printf(
        "knowledge-base record (900 samples, 5 clients, grid 1/dim): %.2f s\n"
        "  (paper reports ~114.53 s per record at full grid and length)\n",
        elapsed);
    reporter.AddMetric("kb_record_seconds", elapsed, "s", false);
  }

  // (2) Per-client meta-feature extraction (online phase entry cost).
  {
    data::BenchmarkSuiteOptions suite_opt;
    suite_opt.length_scale = cfg.length_scale;
    Result<std::vector<data::FederatedDataset>> suite =
        data::BuildBenchmarkSuite(suite_opt);
    FEDFC_CHECK(suite.ok()) << suite.status();
    double total = 0.0;
    size_t count = 0;
    for (const auto& dataset : *suite) {
      for (const auto& client : dataset.clients) {
        auto start = std::chrono::steady_clock::now();
        features::ClientMetaFeatures mf = features::ComputeClientMetaFeatures(client);
        total += SecondsSince(start);
        ++count;
        (void)mf;
      }
    }
    std::printf(
        "client meta-feature extraction: %.4f s/client avg over %zu clients\n"
        "  (paper reports ~2.74 s/client on its hardware at full lengths)\n",
        total / static_cast<double>(count), count);
    reporter.AddMetric("meta_features_seconds_per_client",
                       total / static_cast<double>(count), "s", false);
  }

  Status status = reporter.WriteJson(json_out);
  FEDFC_CHECK(status.ok()) << status;
  return 0;
}

}  // namespace
}  // namespace fedfc::bench

int main(int argc, char** argv) { return fedfc::bench::Main(argc, argv); }
