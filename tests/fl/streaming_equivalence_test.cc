/// Property tests for the streaming reply pipeline: consumer-based
/// aggregation on raw |D_j| weights must be observably identical to
/// buffering the whole round and aggregating with renormalized weights
/// across seeded federation shapes, failure patterns, and thread counts —
/// the bit-identity contract the O(1)-memory round rides on.
/// Flaky-transport comparisons hold the Execute call order fixed
/// (sequential servers, same seed): FlakyTransport's shared RNG assigns
/// failures by call order, so only an order-preserving pair of runs sees
/// the same fault pattern.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "fl/aggregation.h"
#include "fl/round.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "flaky_transport.h"
#include "round_collector.h"

namespace fedfc::fl {
namespace {

/// Replies with a scalar under "value" and a tensor under "params", both
/// fixed at construction; `fail` makes every task error.
class VectorClient : public Client {
 public:
  VectorClient(std::string id, size_t n, double value,
               std::vector<double> tensor, bool fail)
      : id_(std::move(id)),
        n_(n),
        value_(value),
        tensor_(std::move(tensor)),
        fail_(fail) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return n_; }

  Result<Payload> Handle(const std::string& task,
                         const Payload& request) override {
    (void)task;
    (void)request;
    if (fail_) return Status::Internal("induced failure");
    Payload reply;
    reply.SetDouble("value", value_);
    reply.SetTensor("params", tensor_);
    return reply;
  }

 private:
  std::string id_;
  size_t n_;
  double value_;
  std::vector<double> tensor_;
  bool fail_;
};

/// One seeded federation shape: client count, sizes, reply values, and a
/// failure pattern all derive from the seed, so two Make() calls with the
/// same seed build bit-identical fleets.
struct FederationShape {
  std::vector<size_t> sizes;
  std::vector<double> values;
  std::vector<std::vector<double>> tensors;
  std::vector<bool> fail;

  static FederationShape Make(uint64_t seed, bool with_failures) {
    Rng rng(seed);
    FederationShape shape;
    const size_t n_clients = 2 + rng.Index(9);  // 2..10 clients.
    const size_t dim = 1 + rng.Index(6);        // 1..6 tensor elements.
    for (size_t j = 0; j < n_clients; ++j) {
      shape.sizes.push_back(20 + rng.Index(500));
      shape.values.push_back(rng.Uniform(-50.0, 50.0));
      std::vector<double> tensor(dim);
      for (double& v : tensor) v = rng.Uniform(-10.0, 10.0);
      shape.tensors.push_back(std::move(tensor));
      // Never fail every client: index 0 always answers.
      shape.fail.push_back(with_failures && j > 0 && rng.Bernoulli(0.3));
    }
    return shape;
  }

  [[nodiscard]] std::unique_ptr<Server> MakeServer(size_t num_threads) const {
    std::vector<std::shared_ptr<Client>> clients;
    for (size_t j = 0; j < sizes.size(); ++j) {
      clients.push_back(std::make_shared<VectorClient>(
          "c" + std::to_string(j), sizes[j], values[j], tensors[j], fail[j]));
    }
    return std::make_unique<Server>(
        std::make_unique<InProcessTransport>(std::move(clients)), sizes,
        num_threads);
  }
};

/// Records the exact consumed sequence: indices, raw weights, payload bytes.
class RecordingConsumer : public ReplyConsumer {
 public:
  struct Entry {
    size_t client_index;
    double weight;
    std::vector<uint8_t> payload_bytes;
  };

  Status Consume(ClientReply&& r) override {
    entries_.push_back({r.client_index, r.weight, r.payload.Serialize()});
    return Status::OK();
  }

  Status Finish() override {
    ++finish_calls_;
    return Status::OK();
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] size_t finish_calls() const { return finish_calls_; }

 private:
  std::vector<Entry> entries_;
  size_t finish_calls_ = 0;
};

/// Folds "value" and "params" with the streaming accumulators, raw weights.
class FoldingConsumer : public ReplyConsumer {
 public:
  Status Consume(ClientReply&& r) override {
    FEDFC_ASSIGN_OR_RETURN(double v, r.payload.GetDouble("value"));
    scalar_.Add(r.weight, v);
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> t, r.payload.GetTensor("params"));
    return tensor_.Add(r.weight, t);
  }

  Status Finish() override { return Status::OK(); }

  [[nodiscard]] Result<double> ScalarMean() const { return scalar_.Mean(); }
  [[nodiscard]] Result<std::vector<double>> TensorMean() const {
    return tensor_.Mean();
  }

 private:
  ScalarAccumulator scalar_;
  TensorAccumulator tensor_;
};

RoundSpec PermissiveSpec() {
  RoundSpec spec("any", Payload());
  spec.policy.min_success_fraction = 0.2;
  spec.policy.max_retries = 0;
  return spec;
}

TEST(StreamingEquivalenceTest, ConsumedSequenceIsAscendingAndThreadInvariant) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    for (bool with_failures : {false, true}) {
      FederationShape shape = FederationShape::Make(seed, with_failures);

      RecordingConsumer sequential;
      Result<RoundSummary> a =
          shape.MakeServer(1)->RunRound(PermissiveSpec(), sequential);
      ASSERT_TRUE(a.ok()) << a.status();
      EXPECT_EQ(sequential.finish_calls(), 1u);

      RecordingConsumer pooled;
      Result<RoundSummary> b =
          shape.MakeServer(4)->RunRound(PermissiveSpec(), pooled);
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(pooled.finish_calls(), 1u);

      // The sequence is ascending in client index, carries the RAW |D_j|
      // weights, and does not depend on the thread count — bit for bit.
      ASSERT_EQ(sequential.entries().size(), pooled.entries().size());
      size_t last_index = 0;
      for (size_t k = 0; k < sequential.entries().size(); ++k) {
        const auto& s = sequential.entries()[k];
        const auto& p = pooled.entries()[k];
        EXPECT_GE(s.client_index, last_index);
        last_index = s.client_index;
        EXPECT_EQ(s.client_index, p.client_index);
        EXPECT_EQ(s.weight,
                  static_cast<double>(shape.sizes[s.client_index]));
        EXPECT_EQ(s.weight, p.weight);  // Exactly, not approximately.
        EXPECT_EQ(s.payload_bytes, p.payload_bytes);
      }
      EXPECT_EQ(a->trace.ok_clients, b->trace.ok_clients);
      EXPECT_EQ(a->trace.failed_clients, b->trace.failed_clients);
    }
  }
}

TEST(StreamingEquivalenceTest, BufferedOverloadMatchesLegacyRenormalization) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    for (bool with_failures : {false, true}) {
      FederationShape shape = FederationShape::Make(seed, with_failures);
      Result<CollectedRound> round =
          CollectRound(*shape.MakeServer(1), PermissiveSpec());
      ASSERT_TRUE(round.ok()) << round.status();

      // alpha_j must be the respondents' sizes renormalized in ascending
      // index order — the exact arithmetic the pre-streaming server used.
      double total = 0.0;
      for (const ClientReply& r : round->replies) {
        total += static_cast<double>(shape.sizes[r.client_index]);
      }
      for (size_t i = 0; i < round->replies.size(); ++i) {
        const size_t j = round->replies[i].client_index;
        EXPECT_DOUBLE_EQ(round->alpha(i),
                         static_cast<double>(shape.sizes[j]) / total);
      }
    }
  }
}

TEST(StreamingEquivalenceTest, StreamingFoldsMatchBufferedAggregation) {
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    for (bool with_failures : {false, true}) {
      for (size_t num_threads : {1u, 4u}) {
        FederationShape shape = FederationShape::Make(seed, with_failures);

        Result<CollectedRound> buffered =
            CollectRound(*shape.MakeServer(num_threads), PermissiveSpec());
        ASSERT_TRUE(buffered.ok()) << buffered.status();
        Result<double> alpha_scalar = AlphaWeightedMean(*buffered, "value");
        Result<std::vector<double>> alpha_tensor =
            AlphaWeightedTensorMean(*buffered, "params");
        ASSERT_TRUE(alpha_scalar.ok()) << alpha_scalar.status();
        ASSERT_TRUE(alpha_tensor.ok()) << alpha_tensor.status();

        FoldingConsumer fold;
        Result<RoundSummary> streamed =
            shape.MakeServer(num_threads)->RunRound(PermissiveSpec(), fold);
        ASSERT_TRUE(streamed.ok()) << streamed.status();
        Result<double> fold_scalar = fold.ScalarMean();
        Result<std::vector<double>> fold_tensor = fold.TensorMean();
        ASSERT_TRUE(fold_scalar.ok()) << fold_scalar.status();
        ASSERT_TRUE(fold_tensor.ok()) << fold_tensor.status();

        // Raw-weight fold vs normalized-weight fold: the renormalization is
        // a scale factor on both the numerator and denominator, so the two
        // agree to ulps.
        EXPECT_NEAR(*fold_scalar, *alpha_scalar, 1e-12);
        ASSERT_EQ(fold_tensor->size(), alpha_tensor->size());
        for (size_t i = 0; i < fold_tensor->size(); ++i) {
          EXPECT_NEAR((*fold_tensor)[i], (*alpha_tensor)[i], 1e-12)
              << "element " << i;
        }
      }
    }
  }
}

TEST(StreamingEquivalenceTest, FlakyRoundsAgreeWhenCallOrderIsFixed) {
  // Both runs sequential with the same flaky seed: the Execute call
  // sequences are identical, so the injected fault patterns are identical,
  // and the two paths must agree on outcomes and aggregates.
  for (uint64_t seed : {9u, 10u}) {
    FederationShape shape = FederationShape::Make(seed, /*with_failures=*/false);
    auto make_flaky_server = [&shape]() {
      std::vector<std::shared_ptr<Client>> clients;
      for (size_t j = 0; j < shape.sizes.size(); ++j) {
        clients.push_back(std::make_shared<VectorClient>(
            "c" + std::to_string(j), shape.sizes[j], shape.values[j],
            shape.tensors[j], false));
      }
      return std::make_unique<Server>(
          std::make_unique<FlakyTransport>(
              std::make_unique<InProcessTransport>(std::move(clients)),
              /*failure_rate=*/0.3, /*seed=*/777),
          shape.sizes, /*num_threads=*/1);
    };

    Result<CollectedRound> buffered =
        CollectRound(*make_flaky_server(), PermissiveSpec());
    FoldingConsumer fold;
    Result<RoundSummary> streamed =
        make_flaky_server()->RunRound(PermissiveSpec(), fold);

    ASSERT_EQ(buffered.ok(), streamed.ok());
    if (!buffered.ok()) continue;  // Both rejected the same partial round.
    ASSERT_EQ(buffered->outcomes.size(), streamed->outcomes.size());
    for (size_t j = 0; j < buffered->outcomes.size(); ++j) {
      EXPECT_EQ(buffered->outcomes[j].ok, streamed->outcomes[j].ok) << "client " << j;
    }
    Result<double> alpha_mean = AlphaWeightedMean(*buffered, "value");
    Result<double> fold_mean = fold.ScalarMean();
    ASSERT_TRUE(alpha_mean.ok()) << alpha_mean.status();
    ASSERT_TRUE(fold_mean.ok()) << fold_mean.status();
    EXPECT_NEAR(*fold_mean, *alpha_mean, 1e-12);
  }
}

TEST(StreamingEquivalenceTest, FeedRoundResultReplaysABufferedRound) {
  // A buffered round replayed through a consumer delivers exactly what the
  // live round delivered: the property the collected-round tests (and the
  // phase tests' canned rounds) rely on.
  FederationShape shape = FederationShape::Make(77, /*with_failures=*/true);
  RecordingConsumer live;
  Result<RoundSummary> live_summary =
      shape.MakeServer(1)->RunRound(PermissiveSpec(), live);
  ASSERT_TRUE(live_summary.ok()) << live_summary.status();
  Result<CollectedRound> round =
      CollectRound(*shape.MakeServer(1), PermissiveSpec());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->trace.ok_clients, live_summary->trace.ok_clients);

  RecordingConsumer replayed;
  for (ClientReply& reply : round->replies) {
    ASSERT_TRUE(replayed.Consume(std::move(reply)).ok());
  }
  ASSERT_TRUE(replayed.Finish().ok());
  EXPECT_EQ(replayed.finish_calls(), 1u);
  ASSERT_EQ(replayed.entries().size(), live.entries().size());
  for (size_t k = 0; k < live.entries().size(); ++k) {
    EXPECT_EQ(replayed.entries()[k].client_index,
              live.entries()[k].client_index);
    EXPECT_EQ(replayed.entries()[k].weight, live.entries()[k].weight);
    EXPECT_EQ(replayed.entries()[k].payload_bytes,
              live.entries()[k].payload_bytes);
  }
}

TEST(StreamingEquivalenceTest, ConsumeErrorAbortsTheRound) {
  class RejectingConsumer : public ReplyConsumer {
   public:
    Status Consume(ClientReply&&) override {
      return Status::InvalidArgument("rejected by consumer");
    }
    Status Finish() override {
      finished = true;
      return Status::OK();
    }
    bool finished = false;
  };

  FederationShape shape = FederationShape::Make(13, /*with_failures=*/false);
  for (size_t num_threads : {1u, 4u}) {
    RejectingConsumer rejecting;
    Result<RoundSummary> result =
        shape.MakeServer(num_threads)->RunRound(PermissiveSpec(), rejecting);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    // Finish marks a successful round; an aborted one must not see it.
    EXPECT_FALSE(rejecting.finished);
  }
}

}  // namespace
}  // namespace fedfc::fl
