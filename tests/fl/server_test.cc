#include "fl/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "fl/transport.h"
#include "flaky_transport.h"
#include "round_collector.h"

namespace fedfc::fl {
namespace {

/// Test client: echoes a scalar equal to its configured value and its id.
/// `delay` stalls the reply so concurrent broadcasts complete out of
/// submission order; `fail_tasks` makes the named task error deterministically.
class EchoClient : public Client {
 public:
  EchoClient(std::string id, double value, size_t n,
             std::chrono::milliseconds delay = std::chrono::milliseconds(0),
             bool fail_all = false)
      : id_(std::move(id)), value_(value), n_(n), delay_(delay),
        fail_all_(fail_all) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return n_; }

  Result<Payload> Handle(const std::string& task,
                         const Payload& request) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (fail_all_ || task == "fail") return Status::Internal("induced failure");
    Payload reply;
    reply.SetDouble("value", value_);
    reply.SetTensor("vec", {value_, 2.0 * value_});
    if (request.Has("echo")) {
      reply.SetString("echo", *request.GetString("echo"));
    }
    return reply;
  }

 private:
  std::string id_;
  double value_;
  size_t n_;
  std::chrono::milliseconds delay_;
  bool fail_all_;
};

std::unique_ptr<Server> MakeServer(std::vector<double> values,
                                   std::vector<size_t> sizes) {
  std::vector<std::shared_ptr<Client>> clients;
  for (size_t j = 0; j < values.size(); ++j) {
    clients.push_back(
        std::make_shared<EchoClient>("c" + std::to_string(j), values[j], sizes[j]));
  }
  return std::make_unique<Server>(
      std::make_unique<InProcessTransport>(std::move(clients)), sizes);
}

TEST(ServerTest, BroadcastReachesAllClients) {
  auto server = MakeServer({1.0, 2.0, 3.0}, {10, 10, 10});
  Payload request;
  request.SetString("echo", "hi");
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", request));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->replies.size(), 3u);
  for (size_t i = 0; i < round->replies.size(); ++i) {
    EXPECT_EQ(*round->replies[i].payload.GetString("echo"), "hi");
    EXPECT_NEAR(round->alpha(i), 1.0 / 3.0, 1e-12);
  }
}

TEST(ServerTest, WeightsFollowClientSizes) {
  auto server = MakeServer({1.0, 2.0}, {30, 10});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  // Consumers see the raw |D_j|; Equation 1 renormalizes over respondents.
  EXPECT_EQ(round->replies[0].weight, 30.0);
  EXPECT_EQ(round->replies[1].weight, 10.0);
  EXPECT_NEAR(round->alpha(0), 0.75, 1e-12);
  EXPECT_NEAR(round->alpha(1), 0.25, 1e-12);
}

TEST(ServerTest, AggregateScalarIsWeightedMean) {
  auto server = MakeServer({1.0, 5.0}, {30, 10});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  Result<double> agg = AlphaWeightedMean(*round, "value");
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(*agg, 0.75 * 1.0 + 0.25 * 5.0, 1e-12);
}

TEST(ServerTest, AggregateTensorIsElementwiseWeightedMean) {
  auto server = MakeServer({1.0, 3.0}, {10, 10});
  Result<CollectedRound> round =
      CollectRound(*server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  Result<std::vector<double>> agg = AlphaWeightedTensorMean(*round, "vec");
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR((*agg)[0], 2.0, 1e-12);
  EXPECT_NEAR((*agg)[1], 4.0, 1e-12);
}

TEST(ServerTest, AllClientsFailingIsError) {
  auto server = MakeServer({1.0, 2.0}, {10, 10});
  EXPECT_FALSE(CollectRound(*server, RoundSpec("fail", Payload())).ok());
}

TEST(ServerTest, TransportStatsAccumulate) {
  auto server = MakeServer({1.0}, {10});
  EXPECT_EQ(server->transport_stats().messages, 0u);
  ASSERT_TRUE(CollectRound(*server, RoundSpec("any", Payload())).ok());
  EXPECT_EQ(server->transport_stats().messages, 1u);
  EXPECT_GT(server->transport_stats().bytes_to_server, 0u);
}

TEST(ConcurrentServerTest, RepliesArriveInClientIndexOrder) {
  // Client 0 is the slowest and client 7 the fastest, so with 4 workers the
  // completion order is roughly reversed; the gathered replies must still be
  // index-ordered with the right values.
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes;
  constexpr size_t kN = 8;
  for (size_t j = 0; j < kN; ++j) {
    clients.push_back(std::make_shared<EchoClient>(
        "c" + std::to_string(j), static_cast<double>(j), 10,
        std::chrono::milliseconds(2 * (kN - j))));
    sizes.push_back(10);
  }
  Server server(std::make_unique<InProcessTransport>(std::move(clients)), sizes,
                /*num_threads=*/4);
  EXPECT_EQ(server.num_threads(), 4u);
  Result<CollectedRound> round =
      CollectRound(server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->replies.size(), kN);
  for (size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(round->replies[j].client_index, j);
    EXPECT_DOUBLE_EQ(*round->replies[j].payload.GetDouble("value"),
                     static_cast<double>(j));
    EXPECT_NEAR(round->alpha(j), 1.0 / kN, 1e-12);
  }
}

TEST(ConcurrentServerTest, MatchesSequentialBroadcast) {
  auto make = [](size_t num_threads) {
    std::vector<std::shared_ptr<Client>> clients;
    std::vector<size_t> sizes = {30, 10, 20, 40};
    for (size_t j = 0; j < sizes.size(); ++j) {
      clients.push_back(std::make_shared<EchoClient>(
          "c" + std::to_string(j), 1.5 * static_cast<double>(j + 1), sizes[j]));
    }
    return std::make_unique<Server>(
        std::make_unique<InProcessTransport>(std::move(clients)), sizes,
        num_threads);
  };
  auto sequential = make(1);
  auto parallel = make(4);
  Result<CollectedRound> a =
      CollectRound(*sequential, RoundSpec("any", Payload()));
  Result<CollectedRound> b =
      CollectRound(*parallel, RoundSpec("any", Payload()));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->replies.size(), b->replies.size());
  for (size_t j = 0; j < a->replies.size(); ++j) {
    EXPECT_EQ(a->replies[j].client_index, b->replies[j].client_index);
    EXPECT_DOUBLE_EQ(a->replies[j].weight, b->replies[j].weight);
    EXPECT_DOUBLE_EQ(*a->replies[j].payload.GetDouble("value"),
                     *b->replies[j].payload.GetDouble("value"));
  }
  Result<double> agg_a = AlphaWeightedMean(*a, "value");
  Result<double> agg_b = AlphaWeightedMean(*b, "value");
  ASSERT_TRUE(agg_a.ok());
  ASSERT_TRUE(agg_b.ok());
  EXPECT_DOUBLE_EQ(*agg_a, *agg_b);
}

TEST(ConcurrentServerTest, PartialParticipationStillAggregates) {
  // Client 2 fails deterministically; the others answer under 4 workers.
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes = {10, 20, 30, 40};
  for (size_t j = 0; j < sizes.size(); ++j) {
    clients.push_back(std::make_shared<EchoClient>(
        "c" + std::to_string(j), static_cast<double>(j), sizes[j],
        std::chrono::milliseconds(1), /*fail_all=*/j == 2));
  }
  Server server(std::make_unique<InProcessTransport>(std::move(clients)), sizes,
                /*num_threads=*/4);
  Result<CollectedRound> round =
      CollectRound(server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->replies.size(), 3u);
  EXPECT_EQ(round->replies[0].client_index, 0u);
  EXPECT_EQ(round->replies[1].client_index, 1u);
  EXPECT_EQ(round->replies[2].client_index, 3u);
  double total = 0.0;
  for (size_t i = 0; i < round->replies.size(); ++i) total += round->alpha(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Weights renormalize over the 70 responding examples.
  EXPECT_NEAR(round->alpha(2), 40.0 / 70.0, 1e-12);
  Result<double> agg = AlphaWeightedMean(*round, "value");
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(*agg, (10.0 * 0 + 20.0 * 1 + 40.0 * 3) / 70.0, 1e-12);
}

TEST(ConcurrentServerTest, AllClientsFailingIsStillError) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes = {10, 10, 10};
  for (size_t j = 0; j < sizes.size(); ++j) {
    clients.push_back(std::make_shared<EchoClient>("c" + std::to_string(j), 1.0,
                                                   10));
  }
  Server server(std::make_unique<InProcessTransport>(std::move(clients)), sizes,
                /*num_threads=*/3);
  EXPECT_FALSE(CollectRound(server, RoundSpec("fail", Payload())).ok());
}

TEST(ConcurrentServerTest, TransportStatsCountEveryMessage) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes;
  constexpr size_t kN = 16;
  for (size_t j = 0; j < kN; ++j) {
    clients.push_back(
        std::make_shared<EchoClient>("c" + std::to_string(j), 1.0, 10));
    sizes.push_back(10);
  }
  Server server(std::make_unique<InProcessTransport>(std::move(clients)), sizes,
                /*num_threads=*/4);
  ASSERT_TRUE(CollectRound(server, RoundSpec("any", Payload())).ok());
  ASSERT_TRUE(CollectRound(server, RoundSpec("any", Payload())).ok());
  TransportStats stats = server.transport_stats();
  EXPECT_EQ(stats.messages, 2 * kN);
  EXPECT_GT(stats.bytes_to_server, 0u);
}

TEST(ConcurrentServerTest, SetNumThreadsSwitchesModes) {
  auto server = MakeServer({1.0, 2.0}, {10, 10});
  EXPECT_EQ(server->num_threads(), 1u);
  server->set_num_threads(4);
  EXPECT_EQ(server->num_threads(), 4u);
  ASSERT_TRUE(CollectRound(*server, RoundSpec("any", Payload())).ok());
  server->set_num_threads(1);
  EXPECT_EQ(server->num_threads(), 1u);
  ASSERT_TRUE(CollectRound(*server, RoundSpec("any", Payload())).ok());
}

TEST(TransportTest, OutOfRangeClientIndex) {
  std::vector<std::shared_ptr<Client>> clients;
  clients.push_back(std::make_shared<EchoClient>("c0", 1.0, 10));
  InProcessTransport transport(std::move(clients));
  EXPECT_FALSE(transport.Execute(5, "any", Payload()).ok());
}

TEST(FlakyTransportTest, PartialFailuresTolerated) {
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<size_t> sizes;
  for (int j = 0; j < 10; ++j) {
    clients.push_back(std::make_shared<EchoClient>("c" + std::to_string(j),
                                                   static_cast<double>(j), 10));
    sizes.push_back(10);
  }
  auto inner = std::make_unique<InProcessTransport>(std::move(clients));
  Server server(std::make_unique<FlakyTransport>(std::move(inner), 0.4, 7), sizes);
  Result<CollectedRound> round =
      CollectRound(server, RoundSpec("any", Payload()));
  ASSERT_TRUE(round.ok());
  EXPECT_LT(round->replies.size(), 10u);  // Some failed...
  EXPECT_GE(round->replies.size(), 1u);   // ...but not all.
  // Remaining weights renormalize to 1.
  double total = 0.0;
  for (size_t i = 0; i < round->replies.size(); ++i) total += round->alpha(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FlakyTransportTest, ZeroRateNeverFails) {
  std::vector<std::shared_ptr<Client>> clients;
  clients.push_back(std::make_shared<EchoClient>("c0", 1.0, 10));
  auto inner = std::make_unique<InProcessTransport>(std::move(clients));
  FlakyTransport transport(std::move(inner), 0.0, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(transport.Execute(0, "any", Payload()).ok());
  }
}

}  // namespace
}  // namespace fedfc::fl
