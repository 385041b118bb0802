/// bench_rounds: streaming vs buffered round aggregation across federation
/// sizes (8 -> 1024 clients, ~16 KiB tensor replies). The streaming path
/// folds each reply into a TensorAccumulator as it completes and drops the
/// payload, so its live reply memory is one aggregate regardless of the
/// client count; the buffered path (a bench-local consumer that keeps every
/// reply) materializes the whole round before aggregating, so its per-round
/// reply footprint grows linearly. The sweep
/// runs the streaming pass first, ascending — process RSS is sticky, so
/// running the buffered pass first would hide the streaming flatness under
/// heap already grown by buffering.
///
/// Reported per size: rounds/sec for both paths, process RSS after the
/// streaming sweep step (flat), and the deterministic buffered reply volume
/// (linear) — the machine-independent witness of the memory claim.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "fl/aggregation.h"
#include "fl/server.h"
#include "fl/transport.h"

namespace fedfc::bench {
namespace {

constexpr size_t kTensorDim = 2048;  // 16 KiB of doubles per reply.
constexpr int kRoundsPerSize = 4;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Replies with a deterministic kTensorDim tensor under "params". The tensor
/// is regenerated from the seed on every request instead of being stored:
/// resident clients holding 16 KiB each would grow the process linearly with
/// the client count and drown the server-side signal this bench exists to
/// measure (streaming aggregation holds O(1) reply memory; buffering holds
/// all of it).
class TensorClient : public fl::Client {
 public:
  TensorClient(std::string id, size_t n, uint64_t seed)
      : id_(std::move(id)), n_(n), seed_(seed) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return n_; }

  Result<fl::Payload> Handle(const std::string&, const fl::Payload&) override {
    Rng rng(seed_);
    std::vector<double> tensor(kTensorDim);
    for (double& v : tensor) v = rng.Uniform(-1.0, 1.0);
    fl::Payload reply;
    reply.SetTensor("params", tensor);
    return reply;
  }

 private:
  std::string id_;
  size_t n_;
  uint64_t seed_;
};

std::unique_ptr<fl::Server> MakeServer(size_t n_clients) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<size_t> sizes;
  for (size_t j = 0; j < n_clients; ++j) {
    sizes.push_back(100 + j % 13);  // Unequal weights: a real renorm fold.
    clients.push_back(std::make_shared<TensorClient>(
        "c" + std::to_string(j), sizes[j], 1000 + j));
  }
  // 4 pool threads: exercises the bounded in-flight window (2x pool size),
  // which is where the streaming memory bound actually lives.
  return std::make_unique<fl::Server>(
      std::make_unique<fl::InProcessTransport>(std::move(clients)), sizes,
      /*num_threads=*/4);
}

/// Current VmRSS in KiB from /proc/self/status (0 if unavailable).
size_t CurrentRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(6)));
    }
  }
  return 0;
}

/// Streaming fold of the "params" tensors, raw weights.
class TensorFold : public fl::ReplyConsumer {
 public:
  Status Consume(fl::ClientReply&& r) override {
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> t, r.payload.GetTensor("params"));
    return acc_.Add(r.weight, t);
  }
  Status Finish() override { return Status::OK(); }
  [[nodiscard]] Result<std::vector<double>> Mean() const { return acc_.Mean(); }

 private:
  fl::TensorAccumulator acc_;
};

/// The buffered baseline: keeps every reply and aggregates at Finish, with
/// the weights renormalized over the respondents first.
class BufferingConsumer : public fl::ReplyConsumer {
 public:
  Status Consume(fl::ClientReply&& r) override {
    total_weight_ += r.weight;
    replies_.push_back(std::move(r));
    return Status::OK();
  }
  Status Finish() override {
    fl::TensorAccumulator acc;
    for (const fl::ClientReply& r : replies_) {
      FEDFC_ASSIGN_OR_RETURN(std::vector<double> t,
                             r.payload.GetTensor("params"));
      FEDFC_RETURN_IF_ERROR(acc.Add(r.weight / total_weight_, t));
    }
    FEDFC_ASSIGN_OR_RETURN(mean_, acc.Mean());
    return Status::OK();
  }

  [[nodiscard]] const std::vector<fl::ClientReply>& replies() const {
    return replies_;
  }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

 private:
  std::vector<fl::ClientReply> replies_;
  double total_weight_ = 0.0;
  std::vector<double> mean_;
};

double Checksum(const std::vector<double>& tensor) {
  double sum = 0.0;
  for (double v : tensor) sum += v;
  return sum;
}

struct SweepPoint {
  double streaming_rounds_per_sec = 0.0;
  double buffered_rounds_per_sec = 0.0;
  size_t streaming_rss_kib = 0;
  size_t buffered_reply_bytes = 0;  ///< Buffered payload bytes per round.
  double streaming_checksum = 0.0;
  double buffered_checksum = 0.0;
};

double TimeStreamingRounds(fl::Server* server, double* checksum) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kRoundsPerSize; ++r) {
    TensorFold fold;
    Result<fl::RoundSummary> summary =
        server->RunRound(fl::RoundSpec("round", fl::Payload()), fold);
    FEDFC_CHECK(summary.ok()) << summary.status();
    Result<std::vector<double>> mean = fold.Mean();
    FEDFC_CHECK(mean.ok()) << mean.status();
    *checksum = Checksum(*mean);
  }
  return SecondsSince(start);
}

double TimeBufferedRounds(fl::Server* server, double* checksum,
                          size_t* reply_bytes) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kRoundsPerSize; ++r) {
    BufferingConsumer buffered;
    Result<fl::RoundSummary> summary =
        server->RunRound(fl::RoundSpec("round", fl::Payload()), buffered);
    FEDFC_CHECK(summary.ok()) << summary.status();
    if (r == 0) {
      *reply_bytes = 0;
      for (const fl::ClientReply& reply : buffered.replies()) {
        *reply_bytes += reply.payload.Serialize().size();
      }
    }
    *checksum = Checksum(buffered.mean());
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
  BenchReporter reporter("rounds");
  reporter.AddConfig("tensor_dim", static_cast<int>(kTensorDim));
  reporter.AddConfig("rounds_per_size", kRoundsPerSize);

  const std::vector<size_t> sweep = {8, 64, 256, 1024};
  std::vector<SweepPoint> points(sweep.size());

  std::printf("=== streaming vs buffered round aggregation ===\n");
  std::printf("(%zu-double tensor replies, %d rounds per size)\n\n",
              kTensorDim, kRoundsPerSize);

  // Pass 1: streaming, ascending. RSS sampled after each size is the
  // headline: it must stay flat from 64 to 1024 clients.
  for (size_t i = 0; i < sweep.size(); ++i) {
    auto server = MakeServer(sweep[i]);
    double elapsed = TimeStreamingRounds(server.get(),
                                         &points[i].streaming_checksum);
    points[i].streaming_rounds_per_sec = kRoundsPerSize / elapsed;
    points[i].streaming_rss_kib = CurrentRssKib();
  }

  // Pass 2: buffered, ascending, on fresh identical servers.
  for (size_t i = 0; i < sweep.size(); ++i) {
    auto server = MakeServer(sweep[i]);
    double elapsed =
        TimeBufferedRounds(server.get(), &points[i].buffered_checksum,
                           &points[i].buffered_reply_bytes);
    points[i].buffered_rounds_per_sec = kRoundsPerSize / elapsed;
  }

  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = points[i];
    // Raw-weight streaming fold vs normalized buffered fold agree to ulps.
    FEDFC_CHECK(std::abs(p.streaming_checksum - p.buffered_checksum) < 1e-9)
        << "aggregation mismatch at " << sweep[i] << " clients";
    std::printf(
        "clients=%-5zu streaming %8.1f rounds/s (rss %6zu KiB)   "
        "buffered %8.1f rounds/s (replies %8zu B/round)\n",
        sweep[i], p.streaming_rounds_per_sec, p.streaming_rss_kib,
        p.buffered_rounds_per_sec, p.buffered_reply_bytes);
  }

  const SweepPoint& at64 = points[1];
  const SweepPoint& at1024 = points[3];
  std::printf(
      "\nstreaming rss 64 -> 1024 clients: %zu -> %zu KiB (delta %.0f KiB)\n"
      "buffered replies 64 -> 1024 clients: %zu -> %zu B/round (%.1fx)\n",
      at64.streaming_rss_kib, at1024.streaming_rss_kib,
      static_cast<double>(at1024.streaming_rss_kib) -
          static_cast<double>(at64.streaming_rss_kib),
      at64.buffered_reply_bytes, at1024.buffered_reply_bytes,
      static_cast<double>(at1024.buffered_reply_bytes) /
          static_cast<double>(at64.buffered_reply_bytes));

  reporter.AddMetric("streaming_rounds_per_second_1024",
                     at1024.streaming_rounds_per_sec, "rounds/s", true);
  reporter.AddMetric("buffered_rounds_per_second_1024",
                     at1024.buffered_rounds_per_sec, "rounds/s", true);
  reporter.AddMetric("streaming_rss_kib_1024",
                     static_cast<double>(at1024.streaming_rss_kib), "KiB",
                     false);
  // RSS growth across the 64 -> 1024 streaming sweep: the flatness claim.
  reporter.AddMetric(
      "streaming_rss_growth_kib_64_to_1024",
      static_cast<double>(at1024.streaming_rss_kib) -
          static_cast<double>(at64.streaming_rss_kib),
      "KiB", false);
  // Machine-independent witness of the buffered path's linear footprint.
  reporter.AddMetric("buffered_reply_bytes_per_round_1024",
                     static_cast<double>(at1024.buffered_reply_bytes), "B",
                     false);

  Status status = reporter.WriteJson(json_out);
  FEDFC_CHECK(status.ok()) << status;
  return 0;
}

}  // namespace
}  // namespace fedfc::bench

int main(int argc, char** argv) { return fedfc::bench::Main(argc, argv); }
