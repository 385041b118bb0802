// The two engine workloads: a fixed-work pass of FedForecasterEngine::Run over
// the Table 3 suite, capped at a fixed number of federated evaluations per
// dataset with no time budget, so every pass does the same work.
//
//   automl_bo          the shipped engine (meta-model top-3, warm-started
//                      GP/EI, federated feature selection), in-process.
//   automl_random_tcp  random search over all six families, no meta-model,
//                      behind two multiplexed WorkerServers per dataset on
//                      loopback, reached through net::TcpTransport.

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "automl/knowledge_base.h"
#include "automl/meta_model.h"
#include "core/thread_pool.h"
#include "data/benchmark_suite.h"
#include "fl/task_codec.h"
#include "ml/tree/random_forest.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "net/worker.h"
#include "traced_fl.h"
#include "workloads.h"

namespace fedfc::perfbench {
namespace {

constexpr size_t kEvaluationsPerDataset = 24;
// Random search over all six families spends most of its time in XGB and
// ElasticNetCV fits; a smaller cap keeps its passes as long as automl_bo's.
constexpr size_t kTcpEvaluationsPerDataset = 8;
constexpr size_t kSmokeEvaluations = 4;
constexpr size_t kSmokeDatasets = 2;
constexpr double kLengthScale = 8.0;
constexpr size_t kRoundThreads = 2;
constexpr size_t kWorkersPerDataset = 2;
constexpr int kJoinDeadlineMs = 10000;
constexpr int kSetupsPerPass = 2;
constexpr size_t kMinPasses = 4;
// The calibrated Table 3 suite and the engine run on their shipped seeds, so
// every pass and every workload seed does the same work: the search path of
// BO (and of random search) follows the data and the engine seed, and
// changing either moved evaluations/s by 24-34% between seeds. The workload
// seed draws the order in which the datasets run.
constexpr uint64_t kSuiteSeed = 7;
constexpr uint64_t kEngineSeed = 1;

/// The deployed meta-model: the Random Forest the Table 4 comparison picks.
Result<automl::MetaModel> TrainMetaModel(const automl::KnowledgeBase& kb) {
  ml::ForestConfig cfg;
  cfg.n_trees = 120;
  cfg.tree.max_depth = 10;
  cfg.tree.max_features_fraction = 0.5;
  automl::MetaModel model(std::make_unique<ml::RandomForestClassifier>(cfg));
  Rng rng(17);
  FEDFC_RETURN_IF_ERROR(model.Train(kb, &rng));
  return model;
}

/// One dataset's federation: its clients, optionally hosted by loopback
/// WorkerServers, and the server the engine drives. Members are declared so
/// that destruction runs server, worker pool, workers, clients.
struct Federation {
  /// Owns the clients; a TracingClient only points at its inner client.
  std::vector<std::shared_ptr<automl::ForecastClient>> forecast_clients;
  std::vector<std::shared_ptr<fl::Client>> clients;  ///< As hosted (maybe traced).
  std::unique_ptr<SpanContext> context;
  std::vector<std::unique_ptr<net::WorkerServer>> workers;
  std::unique_ptr<ThreadPool> worker_pool;
  std::vector<std::future<Status>> serving;
  net::TcpTransport* tcp = nullptr;  ///< Owned by `server` (maybe wrapped).
  std::vector<size_t> first_client_of_worker;
  std::unique_ptr<ObservedServer> server;

  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Stops the workers and joins them within a deadline. A worker that does
  /// not stop in time would block the pool's destructor, so the run ends.
  void Shutdown() {
    if (tcp == nullptr) return;
    for (size_t first : first_client_of_worker) {
      (void)tcp->ShutdownWorker(first);  // Best effort; RequestStop backs it.
    }
    for (auto& worker : workers) worker->RequestStop();
    for (auto& done : serving) {
      if (done.wait_for(std::chrono::milliseconds(kJoinDeadlineMs)) !=
          std::future_status::ready) {
        AbortRun("a WorkerServer did not stop within its join deadline");
      }
      Status status = done.get();
      if (!status.ok()) std::fprintf(stderr, "worker: %s\n", status.ToString().c_str());
    }
    serving.clear();
  }
};

Result<std::unique_ptr<Federation>> BuildFederation(
    const data::FederatedDataset& dataset, uint64_t seed, bool tcp,
    Tracer* tracer) {
  auto fed = std::make_unique<Federation>();
  const size_t n = dataset.clients.size();
  fed->context = std::make_unique<SpanContext>(n);
  std::vector<size_t> sizes;
  for (size_t j = 0; j < n; ++j) {
    automl::ForecastClient::Options opt;
    opt.seed = seed * 7919 + j;
    auto client = std::make_shared<automl::ForecastClient>(
        dataset.name + "/" + std::to_string(j), dataset.clients[j], opt);
    sizes.push_back(client->num_examples());
    fed->forecast_clients.push_back(client);
    if (tracer != nullptr) {
      fed->clients.push_back(
          std::make_shared<TracingClient>(client.get(), j, tracer, fed->context.get()));
    } else {
      fed->clients.push_back(client);
    }
  }

  std::unique_ptr<fl::Transport> transport;
  if (!tcp) {
    transport = std::make_unique<fl::InProcessTransport>(fed->clients);
  } else {
    const size_t n_workers = std::min(kWorkersPerDataset, n);
    // Serve blocks, so each worker needs a thread of its own, and a pool of
    // one thread would run Submit inline on this thread.
    fed->worker_pool = std::make_unique<ThreadPool>(std::max<size_t>(n_workers, 2));
    net::WorkerOptions worker_options;
    worker_options.poll_interval_ms = 50;
    std::vector<net::WorkerEndpoint> endpoints;
    size_t begin = 0;
    for (size_t w = 0; w < n_workers; ++w) {
      const size_t end = begin + (n - begin) / (n_workers - w);
      std::vector<fl::Client*> hosted;
      for (size_t j = begin; j < end; ++j) hosted.push_back(fed->clients[j].get());
      FEDFC_ASSIGN_OR_RETURN(net::Listener listener,
                             net::Listener::ListenTcp("127.0.0.1", 0));
      fed->workers.push_back(std::make_unique<net::WorkerServer>(
          std::move(listener), std::move(hosted), worker_options));
      net::WorkerServer* worker = fed->workers.back().get();
      fed->serving.push_back(fed->worker_pool->Submit([worker] { return worker->Serve(); }));
      endpoints.push_back({"127.0.0.1", worker->port(), end - begin});
      fed->first_client_of_worker.push_back(begin);
      begin = end;
    }
    net::TcpTransportOptions tcp_options;
    tcp_options.connect_timeout_ms = 5000;
    tcp_options.io_timeout_ms = 60000;
    auto tcp_transport = std::make_unique<net::TcpTransport>(endpoints, tcp_options);
    fed->tcp = tcp_transport.get();
    // The server learns |D_j| over the wire, as a remote deployment would;
    // this also opens both connections before the timed run.
    FEDFC_ASSIGN_OR_RETURN(std::vector<size_t> remote_sizes,
                           tcp_transport->QueryNumExamples());
    if (remote_sizes != sizes) {
      fed->Shutdown();
      return Status::Internal("workers report different client sizes");
    }
    transport = std::move(tcp_transport);
  }
  if (tracer != nullptr) {
    transport = std::make_unique<TracingTransport>(std::move(transport), tracer,
                                                   fed->context.get());
  }
  fed->server = std::make_unique<ObservedServer>(std::move(transport), sizes,
                                                 tracer, fed->context.get());
  return fed;
}

/// Everything one pass over the suite measured.
struct Pass {
  double run_s = 0.0;       ///< Summed wall time of FedForecasterEngine::Run.
  std::vector<double> self_s;   ///< Per dataset: Run wall time outside rounds.
  std::vector<double> round_s;  ///< Wall time of every round, in order.
  size_t evaluations = 0;
  double wire_bytes = 0.0;
  uint64_t attempted = 0;   ///< Client tasks.
  uint64_t failed = 0;      ///< Failed or timed-out client tasks.
  bool capped = true;       ///< Every run ended on exactly the evaluation cap.
  std::string cap_detail;
  std::vector<double> evaluation_s;  ///< Wall time of each fit_evaluate round.
  std::vector<RoundRecord> rounds;
  std::vector<uint64_t> fingerprints;  ///< Per dataset: loss history, test loss.
  double test_mse_geomean = 0.0;
  Usage usage;
};

/// What a pass runs on: the meta-model (automl_bo only) and the suite, in
/// the order the workload seed draws.
struct Inputs {
  std::unique_ptr<automl::MetaModel> meta;
  std::vector<data::FederatedDataset> suite;
};

Inputs Prepare(const Args& args, bool tcp) {
  Inputs in;
  if (!tcp) {
    Result<automl::KnowledgeBase> kb = automl::KnowledgeBase::LoadCsv(args.kb_path);
    if (!kb.ok() || kb->size() == 0) {
      AbortRun("cannot load the committed knowledge base " + args.kb_path + ": " +
               (kb.ok() ? std::string("empty") : kb.status().ToString()));
    }
    Result<automl::MetaModel> trained = TrainMetaModel(*kb);
    if (!trained.ok()) AbortRun("meta-model training failed: " + trained.status().ToString());
    in.meta = std::make_unique<automl::MetaModel>(std::move(*trained));
  }
  data::BenchmarkSuiteOptions suite_options;
  suite_options.length_scale = kLengthScale;
  suite_options.seed = kSuiteSeed;
  Result<std::vector<data::FederatedDataset>> suite =
      data::BuildBenchmarkSuite(suite_options);
  if (!suite.ok()) AbortRun("suite generation failed: " + suite.status().ToString());
  in.suite = std::move(*suite);
  Rng rng(args.seed);
  for (size_t i = in.suite.size(); i > 1; --i) {
    std::swap(in.suite[i - 1], in.suite[rng.Index(i)]);
  }
  if (args.smoke) in.suite.resize(kSmokeDatasets);
  return in;
}

/// Set-up as a deployment pays it before its first federated round: load
/// the knowledge base, train the meta-model, generate the suite, build every
/// federation, start its workers and open its connections.
double TimeSetup(const Args& args, bool tcp) {
  const auto start = Clock::now();
  Inputs in = Prepare(args, tcp);
  std::vector<std::unique_ptr<Federation>> feds;
  for (const data::FederatedDataset& dataset : in.suite) {
    Result<std::unique_ptr<Federation>> fed =
        BuildFederation(dataset, kEngineSeed, tcp, nullptr);
    if (!fed.ok()) AbortRun("federation setup failed: " + fed.status().ToString());
    feds.push_back(std::move(*fed));
  }
  const double seconds = Seconds(start, Clock::now());
  for (auto& fed : feds) fed->Shutdown();
  return seconds;
}

Pass RunPass(const Args& args, bool tcp, Tracer* tracer) {
  Pass pass;
  const size_t cap = args.smoke ? kSmokeEvaluations
                     : tcp     ? kTcpEvaluationsPerDataset
                               : kEvaluationsPerDataset;
  const Inputs in = Prepare(args, tcp);
  double log_mse_sum = 0.0;
  for (const data::FederatedDataset& dataset : in.suite) {
    Result<std::unique_ptr<Federation>> fed =
        BuildFederation(dataset, kEngineSeed, tcp, tracer);
    if (!fed.ok()) AbortRun("federation setup failed: " + fed.status().ToString());
    ObservedServer& server = *(*fed)->server;

    automl::EngineOptions options;
    options.max_iterations = cap;
    options.time_budget_seconds = std::numeric_limits<double>::infinity();
    options.num_threads = kRoundThreads;
    options.seed = kEngineSeed;
    if (tcp) {
      options.strategy = automl::SearchStrategy::kRandom;
      options.use_meta_model = false;
    }
    automl::FedForecasterEngine engine(in.meta.get(), options);

    const fl::TransportStats before = server.transport_stats();
    const uint64_t run_id = tracer != nullptr ? tracer->NextId() : 0;
    (*fed)->context->run.store(run_id);
    const Usage usage_before = ProcessUsage();
    const auto start = Clock::now();
    Result<automl::EngineReport> report = engine.Run(&server);
    const auto end = Clock::now();
    pass.usage = pass.usage + (ProcessUsage() - usage_before);
    pass.run_s += Seconds(start, end);
    double rounds_s = 0.0;
    if (tracer != nullptr) tracer->Record(run_id, 0, "run", dataset.name, start, end);

    const fl::TransportStats after = server.transport_stats();
    pass.attempted += after.messages - before.messages;
    pass.failed += (after.failures + after.timeouts) - (before.failures + before.timeouts);
    pass.wire_bytes += static_cast<double>(
        (after.bytes_to_clients - before.bytes_to_clients) +
        (after.bytes_to_server - before.bytes_to_server));
    for (const RoundRecord& round : server.rounds()) {
      if (round.task == fl::tasks::kFitEvaluate) pass.evaluation_s.push_back(round.seconds);
      pass.round_s.push_back(round.seconds);
      rounds_s += round.seconds;
      pass.rounds.push_back(round);
    }
    pass.self_s.push_back(Seconds(start, end) - rounds_s);
    (*fed)->Shutdown();

    if (!report.ok()) {
      pass.capped = false;
      pass.cap_detail = dataset.name + ": " + report.status().ToString();
      pass.fingerprints.push_back(0);
      continue;
    }
    pass.evaluations += report->iterations;
    if (report->iterations != cap || report->loss_history.size() != cap) {
      pass.capped = false;
      pass.cap_detail = dataset.name + " ran " + std::to_string(report->iterations) +
                        " evaluations, " + std::to_string(report->loss_history.size()) +
                        " with a loss";
    }
    std::vector<double> outcome = report->loss_history;
    outcome.push_back(report->test_loss);
    pass.fingerprints.push_back(Fingerprint(outcome));
    log_mse_sum += std::log(report->test_loss);
  }
  pass.test_mse_geomean = std::exp(log_mse_sum / static_cast<double>(in.suite.size()));
  return pass;
}

double Sum(const std::vector<Span>& spans, const std::string& name,
           const std::string& label = "") {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name && (label.empty() || s.label == label)) total += s.seconds;
  }
  return total;
}

double Count(const std::vector<Span>& spans, const std::string& name,
             const std::string& label) {
  double n = 0.0;
  for (const Span& s : spans) {
    if (s.name == name && s.label == label) n += 1.0;
  }
  return n;
}

/// Per-layer metrics of the traced pass, from its spans and round traces.
void AddLayerMetrics(const Pass& pass, const std::vector<Span>& spans,
                     WorkloadResult* out) {
  const std::vector<std::pair<const char*, const char*>> phases = {
      {"automl.meta_phase_s", fl::tasks::kMetaFeatures},
      {"automl.feature_phase_s", fl::tasks::kFeatureImportance},
      {"automl.optimize_phase_s", fl::tasks::kFitEvaluate},
      {"automl.final_fit_s", fl::tasks::kFitFinal},
      {"automl.evaluate_s", fl::tasks::kEvaluateModel}};
  for (const auto& [metric, task] : phases) out->Add(metric, Sum(spans, "round", task), "s");
  const double round_s = Sum(spans, "round");
  out->Add("automl.server_self_s", Sum(spans, "run") - round_s, "s");
  out->Add("automl.test_mse_geomean", pass.test_mse_geomean, "mse");

  fl::RoundTrace total;
  std::vector<double> round_ms;
  for (const RoundRecord& r : pass.rounds) {
    round_ms.push_back(r.seconds * 1e3);
    total.messages += r.trace.messages;
    total.bytes_to_clients += r.trace.bytes_to_clients;
    total.bytes_to_server += r.trace.bytes_to_server;
    total.retries += r.trace.retries;
    total.transport_failures += r.trace.transport_failures;
    total.transport_timeouts += r.trace.transport_timeouts;
  }
  const double execute_s = Sum(spans, "execute");
  out->Add("fl.rounds", static_cast<double>(pass.rounds.size()), "count");
  out->Add("fl.messages", static_cast<double>(total.messages), "count");
  out->Add("fl.round_p50_ms", Quantile(round_ms, 0.50), "ms");
  out->Add("fl.round_p95_ms", Quantile(round_ms, 0.95), "ms");
  out->Add("fl.fold_s", Sum(spans, "consume"), "s");
  out->Add("fl.codec_wire_s", execute_s - Sum(spans, "handle"), "s");
  out->Add("fl.round_parallelism", round_s > 0 ? execute_s / round_s : 0.0, "ratio");
  out->Add("fl.bytes_down", static_cast<double>(total.bytes_to_clients), "B");
  out->Add("fl.bytes_up", static_cast<double>(total.bytes_to_server), "B");
  out->Add("fl.retries", static_cast<double>(total.retries), "count");
  out->Add("fl.failed_attempts",
           static_cast<double>(total.transport_failures + total.transport_timeouts),
           "count");

  for (const char* family :
       {"lasso", "elasticnetcv", "linearsvr", "huber", "quantile", "xgb"}) {
    const std::string label = std::string(fl::tasks::kFitEvaluate) + "/" + family;
    out->Add(std::string("ml.") + family + ".fit_eval_s", Sum(spans, "handle", label), "s");
    out->Add(std::string("ml.") + family + ".calls", Count(spans, "handle", label), "count");
  }
  out->Add("ml.fit_final_s", Sum(spans, "handle", fl::tasks::kFitFinal), "s");
  out->Add("ml.evaluate_model_s", Sum(spans, "handle", fl::tasks::kEvaluateModel), "s");
  out->Add("features.meta_features_s", Sum(spans, "handle", fl::tasks::kMetaFeatures), "s");
  out->Add("features.importance_s",
           Sum(spans, "handle", fl::tasks::kFeatureImportance), "s");

  const double ops = static_cast<double>(pass.evaluations);
  out->Add("core.cpu_s", pass.usage.cpu_s, "s");
  out->Add("core.cpu_us_per_op", pass.usage.cpu_s / ops * 1e6, "us");
  out->Add("core.vol_csw_per_op", pass.usage.voluntary_switches / ops, "count");
  out->Add("core.invol_csw_per_op", pass.usage.involuntary_switches / ops, "count");
}

/// Element-wise median across passes of one per-pass series. The passes do
/// identical work, so this drops a stall that hit only one of them.
std::vector<double> AcrossPasses(const std::vector<Pass>& passes,
                                 std::vector<double> Pass::*series) {
  std::vector<double> out;
  for (size_t i = 0; i < (passes.front().*series).size(); ++i) {
    std::vector<double> values;
    for (const Pass& pass : passes) {
      if (i < (pass.*series).size()) values.push_back((pass.*series)[i]);
    }
    out.push_back(Median(values));
  }
  return out;
}

}  // namespace

WorkloadResult RunAutomlWorkload(const Args& args, bool tcp, Tracer* tracer) {
  // Untraced: repeat identical passes until the measured engine time covers
  // the window, and at least kMinPasses, so per-round medians drop stalls
  // that hit one pass (a preempted vCPU) and not the others.
  // Traced: a warm-up pass and an untraced pass, then one traced pass of the
  // same work. Every pass after the first is checked against the first.
  // Set-ups are timed between the passes, so their median spans the run.
  std::vector<Pass> passes;
  std::vector<double> setup_s;
  double measured_s = 0.0;
  const size_t min_passes = tracer == nullptr ? kMinPasses : 3;
  while (passes.size() < min_passes || (tracer == nullptr && measured_s < args.seconds)) {
    for (int k = 0; tracer == nullptr && k < kSetupsPerPass; ++k) {
      setup_s.push_back(TimeSetup(args, tcp));
    }
    const bool traced_pass = tracer != nullptr && passes.size() == 2;
    passes.push_back(RunPass(args, tcp, traced_pass ? tracer : nullptr));
    measured_s += passes.back().run_s;
    std::fprintf(stderr, "pass %zu: %zu evaluations in %.3f s\n", passes.size(),
                 passes.back().evaluations, passes.back().run_s);
  }

  WorkloadResult out;
  bool capped = true;
  bool reproduced = true;
  std::string cap_detail;
  std::vector<double> ops_per_s, wire_kib;
  for (const Pass& pass : passes) {
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    if (!pass.capped) {
      capped = false;
      cap_detail = pass.cap_detail;
    }
    reproduced = reproduced && pass.fingerprints == passes.front().fingerprints &&
                 pass.test_mse_geomean == passes.front().test_mse_geomean;
    const double evals = static_cast<double>(pass.evaluations);
    ops_per_s.push_back(evals / pass.run_s);
    wire_kib.push_back(pass.wire_bytes / 1024.0 / evals);
  }
  out.Check("every run stopped on the evaluation cap", capped, cap_detail);
  out.Check("same seed reproduced loss histories and test_mse_geomean bit for bit",
            reproduced);
  out.Check("no client task failed", out.failed == 0,
            std::to_string(out.failed) + " of " + std::to_string(out.attempted));

  if (tracer == nullptr) {
    // Engine time with each round and each stretch of server work taken as
    // its median over the passes.
    double run_s = 0.0;
    for (double s : AcrossPasses(passes, &Pass::self_s)) run_s += s;
    for (double s : AcrossPasses(passes, &Pass::round_s)) run_s += s;
    std::vector<double> evaluation_ms = AcrossPasses(passes, &Pass::evaluation_s);
    for (double& s : evaluation_ms) s *= 1e3;
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("ops_per_s", static_cast<double>(passes.front().evaluations) / run_s, "1/s");
    out.Add("p50_ms", Quantile(evaluation_ms, 0.50), "ms");
    out.Add("tail_ms", Quantile(evaluation_ms, 0.90), "ms");
    out.Add("wire_kib_per_op", Median(wire_kib), "KiB");
    out.Add("peak_rss_mib", PeakRssMib(), "MiB");
    std::printf("%zu passes of %zu evaluations; tail_ms is p90 of %zu evaluations; "
                "test_mse_geomean %.9g\n",
                passes.size(), passes.front().evaluations, evaluation_ms.size(),
                passes.front().test_mse_geomean);
  } else {
    AddLayerMetrics(passes.back(), tracer->spans(), &out);
    out.Add("trace.overhead_frac", ops_per_s[1] / ops_per_s[2] - 1.0, "ratio");
    std::printf("tracing overhead: untraced %.3f evals/s, traced %.3f evals/s\n",
                ops_per_s[1], ops_per_s[2]);
  }
  return out;
}

}  // namespace fedfc::perfbench
