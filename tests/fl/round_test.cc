#include "fl/round.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fl/server.h"
#include "fl/transport.h"
#include "flaky_transport.h"
#include "round_collector.h"

namespace fedfc::fl {
namespace {

/// Test client: echoes a scalar; `fail_all` makes every task error.
class EchoClient : public Client {
 public:
  EchoClient(std::string id, double value, size_t n, bool fail_all = false)
      : id_(std::move(id)), value_(value), n_(n), fail_all_(fail_all) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return n_; }

  Result<Payload> Handle(const std::string& task,
                         const Payload& request) override {
    (void)request;
    if (fail_all_ || task == "fail") return Status::Internal("induced failure");
    Payload reply;
    reply.SetDouble("value", value_);
    return reply;
  }

 private:
  std::string id_;
  double value_;
  size_t n_;
  bool fail_all_;
};

std::unique_ptr<Server> MakeServer(std::vector<double> values,
                                   std::vector<size_t> sizes,
                                   size_t num_threads = 1,
                                   std::vector<bool> fail = {}) {
  std::vector<std::shared_ptr<Client>> clients;
  for (size_t j = 0; j < values.size(); ++j) {
    clients.push_back(std::make_shared<EchoClient>(
        "c" + std::to_string(j), values[j], sizes[j],
        !fail.empty() && fail[j]));
  }
  return std::make_unique<Server>(
      std::make_unique<InProcessTransport>(std::move(clients)), sizes,
      num_threads);
}

/// Decorator that fails the first `n_failures` attempts against each client,
/// then lets everything through — exercises the retry path deterministically.
class FailFirstAttemptsTransport : public Transport {
 public:
  FailFirstAttemptsTransport(std::unique_ptr<Transport> inner, size_t n_failures)
      : inner_(std::move(inner)),
        attempts_(inner_->num_clients(), 0),
        n_failures_(n_failures) {}

  size_t num_clients() const override { return inner_->num_clients(); }

  Result<Payload> Execute(size_t client_index, const std::string& task,
                          const Payload& request) override {
    if (attempts_[client_index]++ < n_failures_) {
      injected_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return Status::DeadlineExceeded("simulated drop");
    }
    return inner_->Execute(client_index, task, request);
  }

  /// Injected drops never reach the inner transport, so they must be added
  /// here — and as `timeouts`, since the injected status is DeadlineExceeded.
  TransportStats stats() const override {
    TransportStats stats = inner_->stats();
    stats.timeouts += injected_timeouts_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::vector<size_t> attempts_;  ///< Per-client, so no cross-client races.
  size_t n_failures_;
  std::atomic<size_t> injected_timeouts_{0};
};

TEST(SampleParticipantsTest, FullParticipationTakesEveryone) {
  RoundSpec spec("any", Payload());
  std::vector<size_t> sampled = SampleParticipants(spec, 7);
  ASSERT_EQ(sampled.size(), 7u);
  for (size_t j = 0; j < 7; ++j) EXPECT_EQ(sampled[j], j);
}

TEST(SampleParticipantsTest, FractionSamplesCeilAndIsSeedDeterministic) {
  RoundSpec spec("any", Payload());
  spec.policy.participation_fraction = 0.5;
  spec.sampling_seed = 42;
  std::vector<size_t> a = SampleParticipants(spec, 9);
  std::vector<size_t> b = SampleParticipants(spec, 9);
  EXPECT_EQ(a, b);                 // Same seed, same subset.
  EXPECT_EQ(a.size(), 5u);         // ceil(0.5 * 9).
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  std::set<size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (size_t j : a) EXPECT_LT(j, 9u);
}

TEST(SampleParticipantsTest, TinyFractionStillSamplesOneClient) {
  RoundSpec spec("any", Payload());
  spec.policy.participation_fraction = 1e-6;
  EXPECT_EQ(SampleParticipants(spec, 10).size(), 1u);
}

TEST(RoundTest, InvalidParticipationFractionRejected) {
  auto server = MakeServer({1.0}, {10});
  RoundSpec spec("any", Payload());
  spec.policy.participation_fraction = 0.0;
  EXPECT_FALSE(CollectRound(*server, spec).ok());
  spec.policy.participation_fraction = 1.5;
  EXPECT_FALSE(CollectRound(*server, spec).ok());
}

TEST(RoundTest, SampledSubsetRenormalizesWeights) {
  auto server = MakeServer({0.0, 1.0, 2.0, 3.0, 4.0, 5.0},
                           {10, 20, 30, 40, 50, 60});
  RoundSpec spec("any", Payload());
  spec.policy.participation_fraction = 0.5;
  spec.sampling_seed = 7;
  Result<CollectedRound> round = CollectRound(*server, spec);
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->replies.size(), 3u);
  EXPECT_EQ(round->trace.sampled_clients, 3u);
  EXPECT_EQ(round->trace.messages, 3u);  // Unsampled clients see no traffic.
  double total = 0.0;
  for (size_t i = 0; i < round->replies.size(); ++i) total += round->alpha(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Each alpha_j is |D_j| over the sampled total, not the population total.
  size_t sampled_examples = 0;
  for (const auto& r : round->replies) {
    sampled_examples += (r.client_index + 1) * 10;
  }
  for (size_t i = 0; i < round->replies.size(); ++i) {
    const size_t j = round->replies[i].client_index;
    EXPECT_EQ(round->replies[i].weight, static_cast<double>((j + 1) * 10));
    EXPECT_NEAR(round->alpha(i),
                static_cast<double>((j + 1) * 10) /
                    static_cast<double>(sampled_examples),
                1e-12);
  }
}

TEST(RoundTest, AllClientsFailingIsError) {
  auto server = MakeServer({1.0, 2.0}, {10, 10});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("fail", Payload()));
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().ToString().find("all clients failed"),
            std::string::npos);
}

TEST(RoundTest, RetriedClientContributesExactlyOnce) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes = {30, 10};
  for (size_t j = 0; j < sizes.size(); ++j) {
    clients.push_back(std::make_shared<EchoClient>(
        "c" + std::to_string(j), static_cast<double>(j + 1), sizes[j]));
  }
  auto inner = std::make_unique<InProcessTransport>(std::move(clients));
  Server server(std::make_unique<FailFirstAttemptsTransport>(std::move(inner),
                                                             /*n_failures=*/1),
                sizes);
  RoundSpec spec("any", Payload());
  spec.policy.max_retries = 2;
  Result<CollectedRound> round = CollectRound(server, spec);
  ASSERT_TRUE(round.ok());
  // Every client dropped once, retried, and landed exactly one reply with
  // the full-participation weights.
  ASSERT_EQ(round->replies.size(), 2u);
  EXPECT_NEAR(round->alpha(0), 0.75, 1e-12);
  EXPECT_NEAR(round->alpha(1), 0.25, 1e-12);
  EXPECT_EQ(round->trace.retries, 2u);
  ASSERT_EQ(round->outcomes.size(), 2u);
  for (const auto& outcome : round->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.retries, 1u);
  }
  // The trace separates transport-level timeouts (one dropped attempt per
  // client) from other failures, and counts attempts — not the post-retry
  // verdicts, which are all successes here.
  EXPECT_EQ(round->trace.transport_timeouts, 2u);
  EXPECT_EQ(round->trace.transport_failures, 0u);
  EXPECT_EQ(round->trace.failed_clients, 0u);
}

TEST(RoundTest, RetryBudgetExhaustedMarksClientFailed) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes = {10, 10};
  for (size_t j = 0; j < sizes.size(); ++j) {
    clients.push_back(std::make_shared<EchoClient>(
        "c" + std::to_string(j), 1.0, sizes[j]));
  }
  auto inner = std::make_unique<InProcessTransport>(std::move(clients));
  // Three failures per client but only one retry: every attempt fails.
  Server server(std::make_unique<FailFirstAttemptsTransport>(std::move(inner),
                                                             /*n_failures=*/3),
                sizes);
  RoundSpec spec("any", Payload());
  spec.policy.max_retries = 1;
  EXPECT_FALSE(CollectRound(server, spec).ok());
}

TEST(RoundTest, MinSuccessFractionRejectsTooPartialRounds) {
  // Client 1 of 3 fails; 2/3 succeed.
  auto ok_server = MakeServer({1.0, 2.0, 3.0}, {10, 10, 10}, 1,
                              {false, true, false});
  RoundSpec spec("any", Payload());
  spec.policy.min_success_fraction = 0.6;
  Result<CollectedRound> round = CollectRound(*ok_server, spec);
  ASSERT_TRUE(round.ok());  // 2/3 >= 0.6.
  EXPECT_EQ(round->trace.ok_clients, 2u);
  EXPECT_EQ(round->trace.failed_clients, 1u);

  auto strict_server = MakeServer({1.0, 2.0, 3.0}, {10, 10, 10}, 1,
                                  {false, true, false});
  spec.policy.min_success_fraction = 0.9;
  Result<CollectedRound> strict = CollectRound(*strict_server, spec);
  ASSERT_FALSE(strict.ok());  // 2/3 < 0.9.
  EXPECT_NE(strict.status().ToString().find("below success threshold"),
            std::string::npos);
}

TEST(RoundTest, TraceAccountsMessagesAndBytes) {
  auto server = MakeServer({1.0, 2.0, 3.0}, {10, 10, 10});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->trace.sampled_clients, 3u);
  EXPECT_EQ(round->trace.ok_clients, 3u);
  EXPECT_EQ(round->trace.failed_clients, 0u);
  EXPECT_EQ(round->trace.messages, 3u);
  EXPECT_GT(round->trace.bytes_to_clients, 0u);
  EXPECT_GT(round->trace.bytes_to_server, 0u);
  EXPECT_GE(round->trace.wall_seconds, 0.0);
  // A second round accumulates fresh deltas, not the running totals.
  Result<CollectedRound> second =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->trace.messages, 3u);
}

TEST(RoundTest, FailedExecutesCountInTransportStats) {
  auto server = MakeServer({1.0, 2.0, 3.0}, {10, 10, 10}, 1,
                           {false, true, false});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  // A handler error is a generic failure, not a timeout: the two counters
  // are disjoint, in the stats and in the round's trace deltas.
  EXPECT_EQ(server->transport_stats().failures, 1u);
  EXPECT_EQ(server->transport_stats().timeouts, 0u);
  EXPECT_EQ(round->trace.transport_failures, 1u);
  EXPECT_EQ(round->trace.transport_timeouts, 0u);
}

TEST(RoundTest, TimedOutHandlerCountsAsTimeout) {
  // A client whose handler itself returns DeadlineExceeded lands in
  // `timeouts`, keeping the counters disjoint end to end.
  class SlowClient : public Client {
   public:
    std::string id() const override { return "slow"; }
    size_t num_examples() const override { return 10; }
    Result<Payload> Handle(const std::string&, const Payload&) override {
      return Status::DeadlineExceeded("client too slow");
    }
  };
  std::vector<std::shared_ptr<Client>> clients = {
      std::make_shared<EchoClient>("ok", 1.0, 10),
      std::make_shared<SlowClient>()};
  Server server(std::make_unique<InProcessTransport>(std::move(clients)),
                {10, 10});
  Result<CollectedRound> round =
      CollectRound(server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(server.transport_stats().timeouts, 1u);
  EXPECT_EQ(server.transport_stats().failures, 0u);
  EXPECT_EQ(round->trace.transport_timeouts, 1u);
  EXPECT_EQ(round->trace.transport_failures, 0u);
}

TEST(RoundTest, FlakyTransportReportsInjectedFailures) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes;
  for (int j = 0; j < 20; ++j) {
    clients.push_back(std::make_shared<EchoClient>("c" + std::to_string(j),
                                                   1.0, 10));
    sizes.push_back(10);
  }
  auto inner = std::make_unique<InProcessTransport>(std::move(clients));
  Server server(std::make_unique<FlakyTransport>(std::move(inner), 0.4, 7),
                sizes);
  Result<CollectedRound> round =
      CollectRound(server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  // With rate 0.4 over 20 clients some injections are certain for this seed;
  // the decorator must surface them even though the inner transport never
  // saw those calls.
  EXPECT_GT(server.transport_stats().failures, 0u);
  EXPECT_EQ(server.transport_stats().failures, round->trace.failed_clients);
}

}  // namespace
}  // namespace fedfc::fl
