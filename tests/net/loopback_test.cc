/// Loopback integration tests: a real fl::Server driving real WorkerServer
/// instances over TCP on 127.0.0.1 — the full multi-process deployment with
/// threads standing in for processes. The headline assertions:
///
///  1. A complete engine run over net::TcpTransport is bit-identical to the
///     same run over fl::InProcessTransport (losses, chosen config, global
///     model bytes). The wire adds framing, never semantics.
///  2. A worker that dies mid-round is absorbed by the RoundPolicy retry
///     machinery: the transport reconnects lazily and the round completes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "net/worker.h"
#include "round_collector.h"

namespace fedfc::net {
namespace {

std::vector<ts::Series> MakeSplits(size_t n_clients, size_t per_client,
                                   uint64_t seed) {
  Rng rng(seed);
  data::SignalSpec spec;
  spec.length = n_clients * per_client;
  spec.level = 10.0;
  spec.seasonalities = {{24.0, 2.0, 0.0}};
  spec.noise_std = 0.2;
  spec.ar_coefficient = 0.6;
  ts::Series series = data::GenerateSignal(spec, &rng);
  Result<std::vector<ts::Series>> splits =
      ts::SplitIntoClients(series, static_cast<int>(n_clients));
  return *splits;
}

std::vector<std::shared_ptr<fl::Client>> MakeClients(
    const std::vector<ts::Series>& splits, uint64_t seed) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  for (size_t j = 0; j < splits.size(); ++j) {
    automl::ForecastClient::Options opt;
    opt.seed = seed + j;
    clients.push_back(std::make_shared<automl::ForecastClient>(
        "c" + std::to_string(j), splits[j], opt));
  }
  return clients;
}

automl::EngineOptions FastOptions() {
  automl::EngineOptions opt;
  opt.max_iterations = 4;
  opt.time_budget_seconds = 120.0;  // Iteration-bounded in tests.
  opt.bo.n_candidates = 64;
  opt.seed = 5;
  opt.strategy = automl::SearchStrategy::kRandom;
  opt.use_meta_model = false;
  return opt;
}

WorkerOptions FastWorkerOptions() {
  WorkerOptions opt;
  opt.poll_interval_ms = 25;
  opt.io_timeout_ms = 10000;
  return opt;
}

/// N WorkerServers on pool threads, stopped and joined in the destructor.
class WorkerFleet {
 public:
  WorkerFleet(ThreadPool* pool,
              const std::vector<std::shared_ptr<fl::Client>>& clients) {
    for (const auto& client : clients) {
      Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
      EXPECT_TRUE(listener.ok()) << listener.status();
      workers_.push_back(std::make_unique<WorkerServer>(
          std::move(*listener), client.get(), FastWorkerOptions()));
      futures_.push_back(
          pool->Submit([w = workers_.back().get()]() { return w->Serve(); }));
    }
  }

  ~WorkerFleet() {
    for (auto& worker : workers_) worker->RequestStop();
    for (auto& future : futures_) EXPECT_TRUE(future.get().ok());
  }

  std::vector<WorkerEndpoint> endpoints() const {
    std::vector<WorkerEndpoint> eps;
    for (const auto& worker : workers_) {
      eps.push_back({"127.0.0.1", worker->port()});
    }
    return eps;
  }

 private:
  std::vector<std::unique_ptr<WorkerServer>> workers_;
  std::vector<std::future<Status>> futures_;
};

TEST(LoopbackTest, EngineOverTcpIsBitIdenticalToInProcess) {
  const size_t n_clients = 3;
  std::vector<ts::Series> splits = MakeSplits(n_clients, 150, 1);

  // Reference: the plain in-process simulation, weighted by the clients'
  // own num_examples() — the same value the wire's size query reports.
  std::vector<std::shared_ptr<fl::Client>> ref_clients = MakeClients(splits, 2);
  std::vector<size_t> sizes;
  for (const auto& c : ref_clients) sizes.push_back(c->num_examples());
  auto inproc_server = std::make_unique<fl::Server>(
      std::make_unique<fl::InProcessTransport>(std::move(ref_clients)), sizes);
  automl::FedForecasterEngine inproc_engine(nullptr, FastOptions());
  Result<automl::EngineReport> inproc = inproc_engine.Run(inproc_server.get());
  ASSERT_TRUE(inproc.ok()) << inproc.status();

  // Same clients, same seeds — but behind TCP workers. Client sizes are
  // fetched over the wire (the __num_examples control task), not assumed.
  std::vector<std::shared_ptr<fl::Client>> clients = MakeClients(splits, 2);
  ThreadPool pool(n_clients + 1);
  WorkerFleet fleet(&pool, clients);
  auto transport = std::make_unique<TcpTransport>(fleet.endpoints());
  Result<std::vector<size_t>> wire_sizes = transport->QueryNumExamples();
  ASSERT_TRUE(wire_sizes.ok()) << wire_sizes.status();
  EXPECT_EQ(*wire_sizes, sizes);

  auto tcp_server =
      std::make_unique<fl::Server>(std::move(transport), *wire_sizes);
  automl::FedForecasterEngine tcp_engine(nullptr, FastOptions());
  Result<automl::EngineReport> tcp = tcp_engine.Run(tcp_server.get());
  ASSERT_TRUE(tcp.ok()) << tcp.status();

  // Bit-identical results: every loss, the chosen configuration, and every
  // byte of the serialized global model.
  ASSERT_EQ(inproc->loss_history.size(), tcp->loss_history.size());
  for (size_t i = 0; i < inproc->loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(inproc->loss_history[i], tcp->loss_history[i])
        << "round " << i;
  }
  EXPECT_DOUBLE_EQ(inproc->best_valid_loss, tcp->best_valid_loss);
  EXPECT_DOUBLE_EQ(inproc->test_loss, tcp->test_loss);
  EXPECT_EQ(inproc->best_config.algorithm, tcp->best_config.algorithm);
  ASSERT_EQ(inproc->global_model_blob.size(), tcp->global_model_blob.size());
  for (size_t i = 0; i < inproc->global_model_blob.size(); ++i) {
    EXPECT_DOUBLE_EQ(inproc->global_model_blob[i], tcp->global_model_blob[i])
        << "blob index " << i;
  }

  // Message accounting: the TCP run sends exactly the engine's messages plus
  // the n_clients size queries. Byte counts differ (frame overhead), but
  // nothing failed or timed out on the loopback path.
  EXPECT_EQ(tcp->transport.messages,
            inproc->transport.messages + n_clients);
  EXPECT_EQ(tcp->transport.failures, 0u);
  EXPECT_EQ(tcp->transport.timeouts, 0u);
}

TEST(LoopbackTest, EngineOverMultiplexedWorkerIsBitIdenticalToInProcess) {
  // The whole federation behind ONE worker process (one listener, one
  // connection): frames address clients by their slot in the header. The
  // engine result must still be bit-identical to the in-process run — the
  // acceptance gate for the multiplexed deployment.
  const size_t n_clients = 3;
  std::vector<ts::Series> splits = MakeSplits(n_clients, 150, 1);

  std::vector<std::shared_ptr<fl::Client>> ref_clients = MakeClients(splits, 2);
  std::vector<size_t> sizes;
  for (const auto& c : ref_clients) sizes.push_back(c->num_examples());
  auto inproc_server = std::make_unique<fl::Server>(
      std::make_unique<fl::InProcessTransport>(std::move(ref_clients)), sizes);
  automl::FedForecasterEngine inproc_engine(nullptr, FastOptions());
  Result<automl::EngineReport> inproc = inproc_engine.Run(inproc_server.get());
  ASSERT_TRUE(inproc.ok()) << inproc.status();

  std::vector<std::shared_ptr<fl::Client>> clients = MakeClients(splits, 2);
  std::vector<fl::Client*> hosted;
  for (const auto& c : clients) hosted.push_back(c.get());
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker(std::move(*listener), std::move(hosted),
                      FastWorkerOptions());
  ASSERT_EQ(worker.num_clients(), n_clients);
  ThreadPool pool(2);
  auto done = pool.Submit([&worker]() { return worker.Serve(); });

  auto transport = std::make_unique<TcpTransport>(std::vector<WorkerEndpoint>{
      {"127.0.0.1", worker.port(), n_clients}});
  ASSERT_EQ(transport->num_clients(), n_clients);
  Result<std::vector<size_t>> wire_sizes = transport->QueryNumExamples();
  ASSERT_TRUE(wire_sizes.ok()) << wire_sizes.status();
  EXPECT_EQ(*wire_sizes, sizes);  // Slot routing reaches the right datasets.

  auto tcp_server =
      std::make_unique<fl::Server>(std::move(transport), *wire_sizes);
  automl::FedForecasterEngine tcp_engine(nullptr, FastOptions());
  Result<automl::EngineReport> tcp = tcp_engine.Run(tcp_server.get());

  worker.RequestStop();
  EXPECT_TRUE(done.get().ok());
  ASSERT_TRUE(tcp.ok()) << tcp.status();

  ASSERT_EQ(inproc->loss_history.size(), tcp->loss_history.size());
  for (size_t i = 0; i < inproc->loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(inproc->loss_history[i], tcp->loss_history[i])
        << "round " << i;
  }
  EXPECT_DOUBLE_EQ(inproc->best_valid_loss, tcp->best_valid_loss);
  EXPECT_DOUBLE_EQ(inproc->test_loss, tcp->test_loss);
  EXPECT_EQ(inproc->best_config.algorithm, tcp->best_config.algorithm);
  ASSERT_EQ(inproc->global_model_blob.size(), tcp->global_model_blob.size());
  for (size_t i = 0; i < inproc->global_model_blob.size(); ++i) {
    EXPECT_DOUBLE_EQ(inproc->global_model_blob[i], tcp->global_model_blob[i])
        << "blob index " << i;
  }
  EXPECT_EQ(tcp->transport.failures, 0u);
  EXPECT_EQ(tcp->transport.timeouts, 0u);
}

/// Echo client for the fault-injection rounds (an engine run is overkill).
class EchoClient : public fl::Client {
 public:
  EchoClient(std::string id, double value, size_t n)
      : id_(std::move(id)), value_(value), n_(n) {}
  std::string id() const override { return id_; }
  size_t num_examples() const override { return n_; }
  Result<fl::Payload> Handle(const std::string&, const fl::Payload&) override {
    fl::Payload reply;
    reply.SetDouble("value", value_);
    return reply;
  }

 private:
  std::string id_;
  double value_;
  size_t n_;
};

TEST(LoopbackTest, KilledWorkerIsAbsorbedByRetryPolicy) {
  // Client 1's "worker process" dies mid-round: the first connection is
  // accepted and immediately closed (the crash), and only then does a fresh
  // WorkerServer start on the same listening socket (the restart). The
  // transport sees the dead connection as one failed execute; the round
  // policy's retry reconnects and completes the round — no abort.
  ThreadPool pool(3);
  EchoClient c0("c0", 1.0, 30);
  EchoClient c1("c1", 2.0, 10);

  Result<Listener> stable = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(stable.ok()) << stable.status();
  WorkerServer worker0(std::move(*stable), &c0, FastWorkerOptions());
  auto done0 = pool.Submit([&worker0]() { return worker0.Serve(); });

  Result<Listener> crashy = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(crashy.ok()) << crashy.status();
  const uint16_t crashy_port = crashy->port();
  // The worker-1 thread: crash once, then serve. A connection queued in the
  // listen backlog during the "restart window" is picked up by Serve.
  std::unique_ptr<WorkerServer> worker1;
  auto done1 = pool.Submit([&worker1, &crashy, &c1]() {
    Result<Socket> first = crashy->Accept(10000);
    if (first.ok()) first->Close();  // Simulated mid-round death.
    worker1 = std::make_unique<WorkerServer>(std::move(*crashy), &c1,
                                             FastWorkerOptions());
    return worker1->Serve();
  });

  auto transport =
      std::make_unique<TcpTransport>(std::vector<WorkerEndpoint>{
          {"127.0.0.1", worker0.port()}, {"127.0.0.1", crashy_port}});
  TcpTransport* transport_ptr = transport.get();
  fl::Server server(std::move(transport), {30, 10});

  fl::RoundSpec spec("any", fl::Payload());
  spec.policy.max_retries = 2;
  Result<fl::CollectedRound> round = fl::CollectRound(server, spec);

  // Tear the workers down before asserting, so a failed expectation cannot
  // leave Serve blocking the pool destructor.
  worker0.RequestStop();
  if (worker1 != nullptr) worker1->RequestStop();
  EXPECT_TRUE(done0.get().ok());
  EXPECT_TRUE(done1.get().ok());

  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(round->replies.size(), 2u);
  EXPECT_NEAR(round->alpha(0), 0.75, 1e-12);
  EXPECT_NEAR(round->alpha(1), 0.25, 1e-12);
  ASSERT_EQ(round->outcomes.size(), 2u);
  EXPECT_TRUE(round->outcomes[0].ok);
  EXPECT_TRUE(round->outcomes[1].ok);
  EXPECT_GE(round->outcomes[1].retries, 1u);  // The crash cost a retry.
  // The dropped connection is accounted as transport-level faults, and the
  // round completed regardless.
  fl::TransportStats stats = transport_ptr->stats();
  EXPECT_GE(stats.failures + stats.timeouts, 1u);
  EXPECT_EQ(round->trace.failed_clients, 0u);
}

TEST(LoopbackTest, DeadWorkerToleratedAsPartialRound) {
  // One worker never existed (connection refused): with a permissive
  // min_success_fraction the round succeeds on the survivors and the fault
  // shows up in the trace, not as a round abort.
  ThreadPool pool(2);
  EchoClient c0("c0", 1.0, 30);
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker0(std::move(*listener), &c0, FastWorkerOptions());
  auto done0 = pool.Submit([&worker0]() { return worker0.Serve(); });

  Result<Listener> dead = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(dead.ok()) << dead.status();
  const uint16_t dead_port = dead->port();
  dead->Close();

  TcpTransportOptions opt;
  opt.connect_timeout_ms = 500;
  fl::Server server(
      std::make_unique<TcpTransport>(
          std::vector<WorkerEndpoint>{{"127.0.0.1", worker0.port()},
                                      {"127.0.0.1", dead_port}},
          opt),
      {30, 10});

  fl::RoundSpec spec("any", fl::Payload());
  spec.policy.min_success_fraction = 0.5;
  Result<fl::CollectedRound> round = fl::CollectRound(server, spec);

  worker0.RequestStop();
  EXPECT_TRUE(done0.get().ok());

  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(round->replies.size(), 1u);
  EXPECT_EQ(round->replies[0].client_index, 0u);
  EXPECT_DOUBLE_EQ(round->alpha(0), 1.0);  // Renormalized alone.
  EXPECT_EQ(round->trace.ok_clients, 1u);
  EXPECT_EQ(round->trace.failed_clients, 1u);
  EXPECT_EQ(round->trace.transport_failures, 1u);  // The refused connect.
}

}  // namespace
}  // namespace fedfc::net
