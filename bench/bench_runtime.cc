/// Reproduces the Section 5.2 "Runtime" measurements: the cost of one
/// knowledge-base record (paper: ~114.53 s at full scale) and the per-client
/// meta-feature extraction cost (paper: ~2.74 s), plus the transport volume
/// of a full online run — a quantity the paper motivates (communication
/// efficiency) but does not tabulate. Section (4) measures the speedup of
/// the parallel broadcast fan-out (docs/ARCHITECTURE.md, "Concurrency
/// model") on a 16-client federation.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "features/meta_features.h"
#include "ml/kernels/kernels.h"

namespace fedfc::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Client that simulates the dominant cost of a real FL deployment: the
/// round-trip latency to a remote device. The server's parallel fan-out
/// overlaps these waits, so the speedup it measures is thread-count-bound
/// rather than core-bound.
class LatencyClient : public fl::Client {
 public:
  LatencyClient(std::string id, std::chrono::milliseconds latency)
      : id_(std::move(id)), latency_(latency) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return 100; }

  Result<fl::Payload> Handle(const std::string&, const fl::Payload&) override {
    std::this_thread::sleep_for(latency_);
    fl::Payload reply;
    reply.SetDouble("valid_loss", 1.0);
    return reply;
  }

 private:
  std::string id_;
  std::chrono::milliseconds latency_;
};

/// Counts a round's replies and drops them.
class CountingConsumer : public fl::ReplyConsumer {
 public:
  Status Consume(fl::ClientReply&&) override {
    ++count;
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }

  size_t count = 0;
};

/// Times `rounds` full-participation rounds of `task` at a given thread
/// count.
double TimeRounds(fl::Server* server, size_t num_threads, int rounds,
                      const char* task) {
  server->set_num_threads(num_threads);
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    CountingConsumer replies;
    Result<fl::RoundSummary> summary =
        server->RunRound(fl::RoundSpec(task, fl::Payload()), replies);
    FEDFC_CHECK(summary.ok()) << summary.status();
    FEDFC_CHECK(replies.count == server->num_clients());
  }
  return SecondsSince(start);
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
  reporter.AddConfig("FEDFC_BUDGET_MS", cfg.budget_seconds * 1000.0);
  reporter.AddConfig("FEDFC_SCALE", cfg.length_scale);
  reporter.AddConfig("FEDFC_MAX_ITERS", cfg.max_search_iterations);
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

  // (3) Communication volume of one full online run.
  {
    data::BenchmarkSuiteOptions suite_opt;
    suite_opt.length_scale = cfg.length_scale;
    Result<data::FederatedDataset> dataset = data::BuildBenchmarkDataset(2, suite_opt);
    FEDFC_CHECK(dataset.ok()) << dataset.status();
    automl::KnowledgeBase kb = LoadOrBuildKnowledgeBase(cfg);
    automl::MetaModel meta = TrainMetaModel(kb);
    auto server = MakeForecastServer(*dataset, 3);
    automl::EngineOptions opt;
    opt.time_budget_seconds = cfg.budget_seconds;
    opt.seed = 3;
    automl::FedForecasterEngine engine(&meta, opt);
    auto start = std::chrono::steady_clock::now();
    Result<automl::EngineReport> report = engine.Run(server.get());
    double elapsed = SecondsSince(start);
    FEDFC_CHECK(report.ok()) << report.status();
    std::printf(
        "online run on %s: %.2f s, %zu BO iterations, %zu messages, "
        "%.1f KiB to clients, %.1f KiB to server\n",
        dataset->name.c_str(), elapsed, report->iterations,
        report->transport.messages,
        static_cast<double>(report->transport.bytes_to_clients) / 1024.0,
        static_cast<double>(report->transport.bytes_to_server) / 1024.0);
    reporter.AddMetric("online_run_seconds", elapsed, "s", false);
    reporter.AddMetric("search_iterations_per_second",
                       static_cast<double>(report->iterations) / elapsed,
                       "iter/s", true);
    reporter.AddConfig("online_run_messages",
                       static_cast<int>(report->transport.messages));
  }

  // (4) Parallel broadcast fan-out: threads vs speedup on a 16-client
  // federation. Two regimes: latency-bound (simulated 5 ms device
  // round-trips, the deployment regime the paper's Flower stack runs in)
  // and CPU-bound (real per-client meta-feature extraction, which scales
  // with physical cores).
  {
    constexpr size_t kClients = 16;
    constexpr int kRounds = 8;
    std::printf("\nparallel broadcast, %zu-client federation "
                "(%zu hardware threads):\n",
                kClients, ThreadPool::HardwareThreads());

    std::vector<std::shared_ptr<fl::Client>> clients;
    std::vector<size_t> sizes(kClients, 100);
    for (size_t j = 0; j < kClients; ++j) {
      clients.push_back(std::make_shared<LatencyClient>(
          "lat-" + std::to_string(j), std::chrono::milliseconds(5)));
    }
    fl::Server latency_server(
        std::make_unique<fl::InProcessTransport>(std::move(clients)), sizes);
    double lat_base = TimeRounds(&latency_server, 1, kRounds, "fit");
    for (size_t threads : {2u, 4u, 8u}) {
      double t = TimeRounds(&latency_server, threads, kRounds, "fit");
      std::printf(
          "  latency-bound (5 ms RTT): num_threads=%zu %.3f s vs "
          "num_threads=1 %.3f s -> speedup %.2fx\n",
          threads, t, lat_base, lat_base / t);
      if (threads == 8) {
        reporter.AddMetric("broadcast_rounds_per_second_8threads",
                           static_cast<double>(kRounds) / t, "rounds/s", true);
        reporter.AddMetric("broadcast_speedup_8threads", lat_base / t, "x",
                           true);
      }
    }

    Rng rng(21);
    data::SignalSpec spec;
    spec.length = kClients * 260;
    spec.level = 20.0;
    spec.seasonalities = {{24.0, 3.0, 0.0}};
    spec.noise_std = 0.5;
    spec.ar_coefficient = 0.5;
    ts::Series series = data::GenerateSignal(spec, &rng);
    Result<std::vector<ts::Series>> splits =
        ts::SplitIntoClients(series, static_cast<int>(kClients));
    FEDFC_CHECK(splits.ok()) << splits.status();
    std::vector<std::shared_ptr<fl::Client>> fc;
    std::vector<size_t> fc_sizes;
    for (size_t j = 0; j < splits->size(); ++j) {
      automl::ForecastClient::Options copt;
      copt.seed = 100 + j;
      fc_sizes.push_back((*splits)[j].size());
      fc.push_back(std::make_shared<automl::ForecastClient>(
          "cpu-" + std::to_string(j), (*splits)[j], copt));
    }
    fl::Server cpu_server(std::make_unique<fl::InProcessTransport>(std::move(fc)),
                          fc_sizes);
    double cpu_base =
        TimeRounds(&cpu_server, 1, kRounds, automl::tasks::kMetaFeatures);
    double cpu_par =
        TimeRounds(&cpu_server, 4, kRounds, automl::tasks::kMetaFeatures);
    std::printf(
        "  cpu-bound (meta-features): num_threads=4 %.3f s vs "
        "num_threads=1 %.3f s -> speedup %.2fx (core-limited)\n",
        cpu_par, cpu_base, cpu_base / cpu_par);
  }
  Status status = reporter.WriteJson(json_out);
  FEDFC_CHECK(status.ok()) << status;
  return 0;
}

}  // namespace
}  // namespace fedfc::bench

int main(int argc, char** argv) { return fedfc::bench::Main(argc, argv); }
