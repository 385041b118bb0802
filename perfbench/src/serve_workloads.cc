// The two serving workloads: a ForecastServer on loopback, fed by a closed
// loop of two connections (ServeClient allows one outstanding request per
// connection and each caller waits for its reply).
//
//   serve_small_batched  shipped fedfc_serve defaults (max_batch 32, 2 ms
//                        linger), 16-row requests: the batcher dominates.
//   serve_bulk_swap      max_batch 1, 1024-row requests, and a publisher
//                        writing a new model version a few times a second
//                        that the registry watcher hot-swaps in.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "automl/model_io.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "fl/payload.h"
#include "fl/task_codec.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace fedfc::perfbench {
namespace {

constexpr size_t kCols = 8;
constexpr size_t kConnections = 2;
constexpr size_t kRequestPool = 64;  ///< Distinct request bodies per connection.
constexpr int kSetups = 7;
constexpr int kWarmupRequests = 5;
constexpr int kPings = 400;
constexpr int kReplays = 256;
constexpr int kSwapPeriodMs = 300;
constexpr int kClientTimeoutMs = 5000;
constexpr int kJoinDeadlineMs = 15000;

/// A fitted Huber model over an 8-lag schema. The seed draws the true
/// coefficients, so every published version predicts differently.
automl::ModelArtifact MakeArtifact(uint64_t seed) {
  automl::Configuration config;
  config.algorithm = automl::AlgorithmId::kHuber;
  config.categorical["epsilon"] = "1.35";
  config.numeric["alpha"] = 1e-4;
  Rng rng(seed);
  std::vector<double> coef(kCols);
  for (double& c : coef) c = rng.Uniform(-2.0, 2.0);
  Matrix x(256, kCols);
  std::vector<double> y(256);
  for (size_t i = 0; i < 256; ++i) {
    y[i] = rng.Normal(0.0, 0.1);
    for (size_t c = 0; c < kCols; ++c) {
      x(i, c) = rng.Uniform(-2.0, 2.0);
      y[i] += coef[c] * x(i, c);
    }
  }
  Result<std::unique_ptr<ml::Regressor>> model = automl::CreateRegressor(config);
  if (!model.ok()) AbortRun("model: " + model.status().ToString());
  Rng fit_rng(seed + 1);
  Status fitted = (*model)->Fit(x, y, &fit_rng);
  if (!fitted.ok()) AbortRun("model fit: " + fitted.ToString());
  Result<std::vector<double>> blob = automl::SerializeModel(config, **model);
  if (!blob.ok()) AbortRun("model blob: " + blob.status().ToString());
  automl::ModelArtifact artifact;
  artifact.config = std::move(config);
  artifact.spec.n_lags = kCols;
  artifact.spec.include_time_features = false;
  artifact.spec.include_trend_feature = false;
  artifact.blob = std::move(*blob);
  return artifact;
}

Matrix RowsOf(const fl::ForecastRequest& request) {
  const size_t n_rows = request.n_rows();
  Matrix x(n_rows, kCols);
  for (size_t r = 0; r < n_rows; ++r) {
    for (size_t c = 0; c < kCols; ++c) x(r, c) = request.rows[r * kCols + c];
  }
  return x;
}

/// One reply as the caller saw it.
struct Sample {
  size_t pool_index = 0;
  int64_t version = 0;
  uint64_t fingerprint = 0;
  double done_s = 0.0;  ///< Completion, seconds since the window opened.
  double latency_ms = 0.0;
};

struct Window {
  double seconds = 0.0;
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<std::vector<Sample>> samples;  ///< Per connection.
  std::vector<std::pair<int, double>> published;  ///< Version, publish time.
  Usage usage;

  /// Throughput and latency quantiles per slice of about one second,
  /// reduced by the median across slices, so a stall confined to one second
  /// (a preempted vCPU, a swap) does not decide the figure.
  struct Sliced {
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  [[nodiscard]] Sliced BySecond() const {
    const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds));
    const double width = seconds / static_cast<double>(n);
    std::vector<std::vector<double>> latency(n);
    for (const auto& per_conn : samples) {
      for (const Sample& s : per_conn) {
        latency[std::min(n - 1, static_cast<size_t>(s.done_s / width))].push_back(s.latency_ms);
      }
    }
    std::vector<double> qps, p50, p99;
    for (const std::vector<double>& slice : latency) {
      qps.push_back(static_cast<double>(slice.size()) / width);
      p50.push_back(Quantile(slice, 0.50));
      p99.push_back(Quantile(slice, 0.99));
    }
    return {Median(qps), Median(p50), Median(p99)};
  }
};

/// A running server with its registry, service and connected callers.
/// Members are declared so the callers disconnect before the server stops.
class Deployment {
 public:
  Deployment(std::string root, serve::ServeOptions options)
      : root_(std::move(root)), registry_(root_), options_(options) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  /// Publish, load, install, start, connect and warm up. Returns the time
  /// ModelRegistry::LoadLatest took.
  double Start(const automl::ModelArtifact& first,
               const std::vector<fl::ForecastRequest>& warmup) {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    Result<int> version = registry_.Publish(first);
    if (!version.ok()) AbortRun("publish: " + version.status().ToString());
    const auto load_start = Clock::now();
    Result<std::pair<int, automl::ModelArtifact>> latest = registry_.LoadLatest();
    const double load_s = Seconds(load_start, Clock::now());
    if (!latest.ok()) AbortRun("registry load: " + latest.status().ToString());
    Status installed = service_.Install(latest->first, latest->second);
    if (!installed.ok()) AbortRun("install: " + installed.ToString());

    Result<net::Listener> listener = net::Listener::ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) AbortRun("listen: " + listener.status().ToString());
    server_ = std::make_unique<serve::ForecastServer>(std::move(*listener), &service_,
                                                      options_);
    server_->WatchRegistry(&registry_);
    Status started = server_->Start();
    if (!started.ok()) AbortRun("server start: " + started.ToString());
    for (size_t c = 0; c <= kConnections; ++c) {  // The last one pings.
      Result<serve::ServeClient> client =
          serve::ServeClient::Connect("127.0.0.1", server_->port(), kClientTimeoutMs);
      if (!client.ok()) AbortRun("connect: " + client.status().ToString());
      clients_.push_back(std::make_unique<serve::ServeClient>(std::move(*client)));
    }
    for (size_t c = 0; c < kConnections; ++c) {
      for (int i = 0; i < kWarmupRequests; ++i) {
        Result<fl::ForecastReply> reply = clients_[c]->Forecast(warmup[i % warmup.size()]);
        if (!reply.ok()) AbortRun("warm-up: " + reply.status().ToString());
      }
    }
    return load_s;
  }

  /// Disconnects, stops the server within a deadline, removes the registry.
  void Stop() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->RequestStop();
      std::future<Status> waited =
          std::async(std::launch::async, [this] { return server_->Wait(); });
      if (waited.wait_for(std::chrono::milliseconds(kJoinDeadlineMs)) !=
          std::future_status::ready) {
        AbortRun("ForecastServer did not stop within its join deadline");
      }
      Status status = waited.get();
      if (!status.ok()) std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
      server_.reset();
    }
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  serve::ServeClient& client(size_t c) { return *clients_[c]; }
  serve::ServeClient& pinger() { return *clients_.back(); }
  const serve::ModelRegistry& registry() const { return registry_; }
  serve::ForecastService& service() { return service_; }

 private:
  std::string root_;
  serve::ModelRegistry registry_;
  serve::ServeOptions options_;
  serve::ForecastService service_;
  std::unique_ptr<serve::ForecastServer> server_;
  std::vector<std::unique_ptr<serve::ServeClient>> clients_;
};

/// Drives the closed loop for `seconds`; the publisher (when `artifacts` is
/// non-null) writes artifacts[next_artifact...] every kSwapPeriodMs.
Window RunWindow(Deployment& deployment,
                 const std::vector<std::vector<fl::ForecastRequest>>& pool,
                 double seconds, Tracer* tracer,
                 const std::vector<automl::ModelArtifact>* artifacts,
                 size_t* next_artifact, std::map<int, size_t>* version_artifact) {
  Window window;
  window.samples.resize(kConnections);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<uint64_t> sent(kConnections, 0), failed(kConnections, 0);
  std::vector<std::future<void>> callers;
  const uint64_t window_span = tracer != nullptr ? tracer->NextId() : 0;
  const Usage usage_before = ProcessUsage();
  for (size_t c = 0; c < kConnections; ++c) {
    callers.push_back(std::async(std::launch::async, [&, c] {
      serve::ServeClient& client = deployment.client(c);
      std::vector<Sample>& out = window.samples[c];
      std::this_thread::sleep_until(t0);
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t k = i % kRequestPool;
        const auto start = Clock::now();
        Result<fl::ForecastReply> reply = client.Forecast(pool[c][k]);
        const auto end = Clock::now();
        ++sent[c];
        if (!reply.ok()) {
          ++failed[c];
          continue;
        }
        if (tracer != nullptr) {
          tracer->Record(tracer->NextId(), window_span, "request",
                         "conn" + std::to_string(c), start, end);
        }
        out.push_back({k, reply->model_version, Fingerprint(reply->predictions),
                       Seconds(t0, end), Seconds(start, end) * 1e3});
      }
    }));
  }
  std::future<void> publisher;
  if (artifacts != nullptr) {
    publisher = std::async(std::launch::async, [&] {
      for (int k = 1;; ++k) {
        std::this_thread::sleep_until(t0 + std::chrono::milliseconds(k * kSwapPeriodMs));
        if (Clock::now() >= deadline || *next_artifact >= artifacts->size()) return;
        Result<int> version = deployment.registry().Publish((*artifacts)[*next_artifact]);
        if (!version.ok()) AbortRun("publish: " + version.status().ToString());
        (*version_artifact)[*version] = (*next_artifact)++;
        window.published.emplace_back(*version, Seconds(t0, Clock::now()));
      }
    });
  }
  const auto join_by = deadline + std::chrono::milliseconds(kJoinDeadlineMs);
  for (auto& caller : callers) {
    if (caller.wait_until(join_by) != std::future_status::ready) {
      AbortRun("a serve caller did not finish within its deadline");
    }
  }
  if (publisher.valid() && publisher.wait_until(join_by) != std::future_status::ready) {
    AbortRun("the publisher did not finish within its deadline");
  }
  window.usage = ProcessUsage() - usage_before;
  if (tracer != nullptr) tracer->Record(window_span, 0, "window", "load", t0, Clock::now());
  for (size_t c = 0; c < kConnections; ++c) {
    window.sent += sent[c];
    window.failed += failed[c];
    for (const Sample& s : window.samples[c]) window.seconds = std::max(window.seconds, s.done_s);
  }
  if (window.seconds <= 0.0) window.seconds = seconds;
  return window;
}

/// Every reply must equal Forecaster::Forecast on the same rows, for the
/// version stamped in the reply. Returns the number of mismatches.
uint64_t VerifyReplies(const Window& window,
                       const std::vector<std::vector<fl::ForecastRequest>>& pool,
                       const std::vector<automl::ModelArtifact>& artifacts,
                       const std::map<int, size_t>& version_artifact) {
  std::map<int64_t, automl::Forecaster> forecasters;
  std::map<std::tuple<int64_t, size_t, size_t>, uint64_t> expected;
  uint64_t mismatches = 0;
  for (size_t c = 0; c < window.samples.size(); ++c) {
    for (const Sample& s : window.samples[c]) {
      auto key = std::make_tuple(s.version, c, s.pool_index);
      auto it = expected.find(key);
      if (it == expected.end()) {
        auto found = version_artifact.find(static_cast<int>(s.version));
        if (found == version_artifact.end()) {
          ++mismatches;  // A version nobody published.
          continue;
        }
        auto fc = forecasters.find(s.version);
        if (fc == forecasters.end()) {
          Result<automl::Forecaster> made =
              automl::Forecaster::FromArtifact(artifacts[found->second]);
          if (!made.ok()) AbortRun("forecaster: " + made.status().ToString());
          fc = forecasters.emplace(s.version, std::move(*made)).first;
        }
        Result<std::vector<double>> predictions =
            fc->second.Forecast(RowsOf(pool[c][s.pool_index]));
        if (!predictions.ok()) AbortRun("forecast: " + predictions.status().ToString());
        it = expected.emplace(key, Fingerprint(*predictions)).first;
      }
      if (it->second != s.fingerprint) ++mismatches;
    }
  }
  return mismatches;
}

/// Per-request cost of the model and of the codecs on both sides, replayed
/// outside the server through the public APIs.
std::pair<double, double> ReplayModelAndCodec(
    const automl::Forecaster& forecaster,
    const std::vector<fl::ForecastRequest>& requests, int64_t version) {
  std::vector<double> model_us, codec_us;
  for (int i = 0; i < kReplays; ++i) {
    const fl::ForecastRequest& request = requests[static_cast<size_t>(i) % requests.size()];
    auto start = Clock::now();
    Result<std::vector<double>> predictions = forecaster.Forecast(RowsOf(request));
    model_us.push_back(Seconds(start, Clock::now()) * 1e6);
    if (!predictions.ok()) AbortRun("replay: " + predictions.status().ToString());

    start = Clock::now();
    net::Frame frame;
    frame.task = fl::tasks::kForecast;
    frame.body = request.ToPayload().Serialize();
    Result<net::Frame> received = net::DecodeFrame(net::EncodeFrame(frame));
    if (!received.ok()) AbortRun("replay: " + received.status().ToString());
    Result<fl::Payload> payload = fl::Payload::Deserialize(received->body);
    if (!payload.ok()) AbortRun("replay: " + payload.status().ToString());
    Result<fl::ForecastRequest> decoded = fl::ForecastRequest::FromPayload(*payload);
    if (!decoded.ok()) AbortRun("replay: " + decoded.status().ToString());
    net::Frame reply;
    reply.type = net::FrameType::kReply;
    reply.task = fl::tasks::kForecast;
    reply.body = fl::ForecastReply{std::move(*predictions), version}.ToPayload().Serialize();
    Result<net::Frame> answered = net::DecodeFrame(net::EncodeFrame(reply));
    if (!answered.ok()) AbortRun("replay: " + answered.status().ToString());
    Result<fl::Payload> reply_payload = fl::Payload::Deserialize(answered->body);
    if (!reply_payload.ok()) AbortRun("replay: " + reply_payload.status().ToString());
    Result<fl::ForecastReply> reply_decoded = fl::ForecastReply::FromPayload(*reply_payload);
    if (!reply_decoded.ok()) AbortRun("replay: " + reply_decoded.status().ToString());
    codec_us.push_back(Seconds(start, Clock::now()) * 1e6);
  }
  return {Median(model_us), Median(codec_us)};
}

/// Bytes on the wire for one request and its reply.
double WireKibPerRequest(const fl::ForecastRequest& request) {
  net::Frame frame;
  frame.task = fl::tasks::kForecast;
  frame.body = request.ToPayload().Serialize();
  net::Frame reply;
  reply.type = net::FrameType::kReply;
  reply.task = fl::tasks::kForecast;
  reply.body = fl::ForecastReply{std::vector<double>(request.n_rows(), 0.0), 1}
                   .ToPayload()
                   .Serialize();
  return static_cast<double>(net::EncodedFrameSize(frame) + net::EncodedFrameSize(reply)) /
         1024.0;
}

}  // namespace

WorkloadResult RunServeWorkload(const Args& args, bool bulk_swap, Tracer* tracer) {
  const size_t rows = bulk_swap ? 1024 : 16;
  serve::ServeOptions options;  // The shipped fedfc_serve defaults.
  if (bulk_swap) options.max_batch = 1;

  // Inputs, all drawn from the seed: request bodies and model versions.
  std::vector<std::vector<fl::ForecastRequest>> pool(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    Rng rng(args.seed * 1000003 + c);
    for (size_t k = 0; k < kRequestPool; ++k) {
      fl::ForecastRequest request;
      request.n_cols = static_cast<int64_t>(kCols);
      request.rows.resize(rows * kCols);
      for (double& v : request.rows) v = rng.Uniform(-3.0, 3.0);
      pool[c].push_back(std::move(request));
    }
  }
  const size_t n_artifacts =
      bulk_swap ? static_cast<size_t>(args.seconds * 1000.0 / kSwapPeriodMs) + 2 : 1;
  std::vector<automl::ModelArtifact> artifacts;
  for (size_t v = 0; v < n_artifacts; ++v) {
    artifacts.push_back(MakeArtifact(args.seed * 7727 + v));
  }

  // Set up several times and keep the median; serve from the last set-up.
  const std::string root = args.work_dir + "/registry-" + std::to_string(::getpid());
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<Deployment> deployment;
  for (int k = 0; k < kSetups; ++k) {
    deployment.reset();
    const auto start = Clock::now();
    deployment = std::make_unique<Deployment>(root, options);
    load_ms.push_back(deployment->Start(artifacts[0], pool[0]) * 1e3);
    setup_s.push_back(Seconds(start, Clock::now()));
  }
  std::map<int, size_t> version_artifact = {{1, 0}};
  size_t next_artifact = 1;
  const std::vector<automl::ModelArtifact>* publish = bulk_swap ? &artifacts : nullptr;

  // Untraced: one window. Traced: an untraced third, then a traced rest.
  std::vector<Window> windows;
  if (tracer == nullptr) {
    windows.push_back(RunWindow(*deployment, pool, args.seconds, nullptr, publish,
                                &next_artifact, &version_artifact));
  } else {
    windows.push_back(RunWindow(*deployment, pool, args.seconds / 3.0, nullptr, publish,
                                &next_artifact, &version_artifact));
    windows.push_back(RunWindow(*deployment, pool, args.seconds * 2.0 / 3.0, tracer,
                                publish, &next_artifact, &version_artifact));
  }

  WorkloadResult out;
  uint64_t mismatches = 0;
  uint64_t replies = 0;
  for (const Window& w : windows) {
    out.attempted += w.sent;
    out.failed += w.failed;
    replies += w.sent - w.failed;
    mismatches += VerifyReplies(w, pool, artifacts, version_artifact);
  }
  out.Check("every reply equals Forecaster::Forecast for its stamped version",
            mismatches == 0,
            std::to_string(mismatches) + " of " + std::to_string(replies) + " differ");
  out.Check("no request failed", out.failed == 0,
            std::to_string(out.failed) + " of " + std::to_string(out.attempted));
  out.Check("window held at least 1100 requests", out.attempted >= 1100 || args.smoke,
            std::to_string(out.attempted) + " sent");
  const Window& measured = windows.back();
  const Window::Sliced sliced = measured.BySecond();
  std::printf("requests: %llu in %.3f s over %zu connections, %zu rows each\n",
              static_cast<unsigned long long>(measured.sent), measured.seconds,
              kConnections, rows);

  if (tracer == nullptr) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("ops_per_s", sliced.qps, "1/s");
    out.Add("p50_ms", sliced.p50_ms, "ms");
    out.Add("tail_ms", sliced.p99_ms, "ms");
    out.Add("wire_kib_per_op", WireKibPerRequest(pool[0][0]), "KiB");
    out.Add("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    std::vector<double> ping_ms;
    for (int i = 0; i < kPings; ++i) {
      const auto start = Clock::now();
      Result<fl::PingReply> pong = deployment->pinger().Ping();
      if (!pong.ok()) AbortRun("ping: " + pong.status().ToString());
      ping_ms.push_back(Seconds(start, Clock::now()) * 1e3);
    }
    std::shared_ptr<const serve::LoadedModel> live = deployment->service().Snapshot();
    const auto [model_us, codec_us] =
        ReplayModelAndCodec(live->forecaster, pool[0], live->version);
    const double ping_p50 = Median(ping_ms);
    const double p50 = sliced.p50_ms;
    out.Add("net.ping_p50_ms", ping_p50, "ms");
    out.Add("serve.model_us_per_req", model_us, "us");
    out.Add("serve.codec_us_per_req", codec_us, "us");
    out.Add("serve.queue_ms", p50 - ping_p50 - (model_us + codec_us) * 1e-3, "ms");
    out.Add("serve.registry_load_ms", Median(load_ms), "ms");

    // A swap lands when the first reply stamped with that version (or a
    // newer one) comes back.
    std::vector<double> lag_ms;
    for (const auto& [version, published_s] : measured.published) {
      double first = -1.0;
      for (const auto& per_conn : measured.samples) {
        for (const Sample& s : per_conn) {
          if (s.version >= version && (first < 0 || s.done_s < first)) first = s.done_s;
        }
      }
      if (first >= 0) lag_ms.push_back((first - published_s) * 1e3);
    }
    out.Add("serve.swaps", static_cast<double>(lag_ms.size()), "count");
    out.Add("serve.swap_lag_ms", Median(lag_ms), "ms");

    const double ops = static_cast<double>(measured.sent);
    out.Add("core.cpu_s", measured.usage.cpu_s, "s");
    out.Add("core.cpu_us_per_op", measured.usage.cpu_s / ops * 1e6, "us");
    out.Add("core.vol_csw_per_op", measured.usage.voluntary_switches / ops, "count");
    out.Add("core.invol_csw_per_op", measured.usage.involuntary_switches / ops, "count");
    const double untraced_qps = windows.front().BySecond().qps;
    out.Add("trace.overhead_frac", untraced_qps / sliced.qps - 1.0, "ratio");
    std::printf("tracing overhead: untraced %.1f req/s, traced %.1f req/s\n",
                untraced_qps, sliced.qps);
  }
  deployment.reset();
  return out;
}

}  // namespace fedfc::perfbench
