#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "fl/payload.h"
#include "serve/client.h"
#include "serve_test_util.h"

namespace fedfc::serve {
namespace {

ServeOptions FastServeOptions() {
  ServeOptions options;
  options.poll_interval_ms = 25;
  options.io_timeout_ms = 2000;
  options.batch_timeout_ms = 2;
  options.max_connections = 4;
  options.registry_poll_ms = 25;
  return options;
}

/// One ForecastServer on its own internal pool; Start in the constructor
/// (from the test's main thread — Start must not run inside another pool),
/// RequestStop + Wait in the destructor.
class ServeHarness {
 public:
  explicit ServeHarness(ForecastService* service,
                        ServeOptions options = FastServeOptions(),
                        const ModelRegistry* registry = nullptr) {
    Result<net::Listener> listener = net::Listener::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    server_ =
        std::make_unique<ForecastServer>(std::move(*listener), service, options);
    if (registry != nullptr) server_->WatchRegistry(registry);
    EXPECT_TRUE(server_->Start().ok());
  }

  ~ServeHarness() {
    server_->RequestStop();
    EXPECT_TRUE(server_->Wait().ok());
  }

  [[nodiscard]] uint16_t port() const { return server_->port(); }
  [[nodiscard]] ForecastServer& server() { return *server_; }

  [[nodiscard]] ServeClient Connect() {
    Result<ServeClient> client =
        ServeClient::Connect("127.0.0.1", port(), 2000);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

 private:
  std::unique_ptr<ForecastServer> server_;
};

/// In-process reference predictions for a request against an artifact.
std::vector<double> ExpectedPredictions(const automl::ModelArtifact& artifact,
                                        const fl::ForecastRequest& request) {
  Result<automl::Forecaster> forecaster =
      automl::Forecaster::FromArtifact(artifact);
  EXPECT_TRUE(forecaster.ok()) << forecaster.status();
  Result<std::vector<double>> predictions =
      forecaster->Forecast(RequestMatrix(request));
  EXPECT_TRUE(predictions.ok()) << predictions.status();
  return *predictions;
}

TEST(ForecastServerTest, PingReportsTheLiveVersion) {
  ForecastService service;
  ServeHarness harness(&service);
  ServeClient client = harness.Connect();

  Result<fl::PingReply> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->model_version, 0);  // Nothing installed yet.

  ASSERT_TRUE(service.Install(7, MakeTestArtifact(1.0, 1)).ok());
  pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->model_version, 7);
}

TEST(ForecastServerTest, ForecastMatchesInProcessPredictionBitExact) {
  ForecastService service;
  automl::ModelArtifact artifact = MakeTestArtifact(2.0, 1);
  ASSERT_TRUE(service.Install(1, artifact).ok());
  ServeHarness harness(&service);
  ServeClient client = harness.Connect();

  fl::ForecastRequest request = MakeForecastRequest(16, 2, 11);
  std::vector<double> expected = ExpectedPredictions(artifact, request);
  Result<fl::ForecastReply> reply = client.Forecast(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->model_version, 1);
  ASSERT_EQ(reply->predictions.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reply->predictions[i], expected[i]) << "row " << i;
  }
}

TEST(ForecastServerTest, ConcurrentBatchedRepliesBitIdenticalToSequential) {
  // Several connections fire distinct requests at once so the batcher
  // coalesces them; every reply must still equal the request's own
  // sequential in-process prediction bit-for-bit (batching only ever
  // changes latency, never values).
  ForecastService service;
  automl::ModelArtifact artifact = MakeTestArtifact(2.0, 1);
  ASSERT_TRUE(service.Install(1, artifact).ok());
  ServeOptions options = FastServeOptions();
  options.batch_timeout_ms = 5;  // Wide linger to force real coalescing.
  ServeHarness harness(&service, options);

  constexpr size_t kConnections = 4;
  constexpr size_t kRequestsEach = 8;
  std::vector<std::string> failures(kConnections);
  {
    ThreadPool pool(kConnections);
    std::vector<std::future<void>> jobs;
    for (size_t c = 0; c < kConnections; ++c) {
      jobs.push_back(pool.Submit([&, c] {
        Result<ServeClient> client =
            ServeClient::Connect("127.0.0.1", harness.port(), 2000);
        if (!client.ok()) {
          failures[c] = client.status().ToString();
          return;
        }
        for (size_t i = 0; i < kRequestsEach; ++i) {
          fl::ForecastRequest request =
              MakeForecastRequest(1 + i % 7, 2, 100 * c + i);
          std::vector<double> expected =
              ExpectedPredictions(artifact, request);
          Result<fl::ForecastReply> reply = client->Forecast(request);
          if (!reply.ok()) {
            failures[c] = reply.status().ToString();
            return;
          }
          if (reply->model_version != 1 || reply->predictions != expected) {
            failures[c] = "reply mismatch on request " + std::to_string(i);
            return;
          }
        }
      }));
    }
    for (auto& job : jobs) job.get();
  }
  for (size_t c = 0; c < kConnections; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "connection " << c << ": "
                                     << failures[c];
  }
}

TEST(ForecastServerTest, WrongWidthFailsAloneWithoutPoisoningTheConnection) {
  ForecastService service;
  automl::ModelArtifact artifact = MakeTestArtifact(2.0, 1);
  ASSERT_TRUE(service.Install(1, artifact).ok());
  ServeHarness harness(&service);
  ServeClient client = harness.Connect();

  fl::ForecastRequest bad = MakeForecastRequest(4, 3, 5);  // Model wants 2.
  Result<fl::ForecastReply> reply = client.Forecast(bad);
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reply.status().message().find("expects 2"), std::string::npos)
      << reply.status();

  fl::ForecastRequest good = MakeForecastRequest(4, 2, 5);
  reply = client.Forecast(good);
  ASSERT_TRUE(reply.ok()) << reply.status();  // Same connection still works.
  EXPECT_EQ(reply->predictions, ExpectedPredictions(artifact, good));
}

TEST(ForecastServerTest, OversizedRequestRejectedByRowCap) {
  ForecastService service;
  ASSERT_TRUE(service.Install(1, MakeTestArtifact(2.0, 1)).ok());
  ServeOptions options = FastServeOptions();
  options.max_rows_per_request = 8;
  ServeHarness harness(&service, options);
  ServeClient client = harness.Connect();
  Result<fl::ForecastReply> reply =
      client.Forecast(MakeForecastRequest(9, 2, 5));
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reply.status().message().find("cap"), std::string::npos);
  EXPECT_TRUE(client.Forecast(MakeForecastRequest(8, 2, 5)).ok());
}

TEST(ForecastServerTest, NoModelYetIsFailedPreconditionUntilInstall) {
  ForecastService service;
  ServeHarness harness(&service);
  ServeClient client = harness.Connect();

  fl::ForecastRequest request = MakeForecastRequest(4, 2, 5);
  Result<fl::ForecastReply> reply = client.Forecast(request);
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reply.status().message().find("no model"), std::string::npos);

  automl::ModelArtifact artifact = MakeTestArtifact(2.0, 1);
  ASSERT_TRUE(service.Install(1, artifact).ok());
  reply = client.Forecast(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->predictions, ExpectedPredictions(artifact, request));
}

TEST(ForecastServerTest, UnknownTaskReportsTheHandledVocabulary) {
  ForecastService service;
  ServeHarness harness(&service);
  Result<net::Socket> socket =
      net::Socket::ConnectTcp("127.0.0.1", harness.port(), 2000);
  ASSERT_TRUE(socket.ok()) << socket.status();

  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.task = "nope";
  request.body = fl::Payload().Serialize();
  ASSERT_TRUE(net::WriteFrame(*socket, request, 2000).ok());
  Result<net::Frame> reply = net::ReadFrame(*socket, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, net::FrameType::kError);
  Status status = net::ErrorFrameStatus(*reply);
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_NE(status.message().find("forecast"), std::string::npos) << status;
}

TEST(ForecastServerTest, MalformedFrameGetsErrorReplyThenConnectionDrop) {
  ForecastService service;
  ServeHarness harness(&service);
  Result<net::Socket> socket =
      net::Socket::ConnectTcp("127.0.0.1", harness.port(), 2000);
  ASSERT_TRUE(socket.ok()) << socket.status();

  // 32 bytes of garbage: a frame header with a bad magic. The server must
  // answer with the typed decode error (best effort) and drop the
  // connection, because the byte stream is no longer trustworthy.
  std::vector<uint8_t> garbage(32, 0xAB);
  ASSERT_TRUE(socket->SendAll(garbage.data(), garbage.size(), 2000).ok());
  Result<net::Frame> reply = net::ReadFrame(*socket, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, net::FrameType::kError);
  EXPECT_FALSE(net::ErrorFrameStatus(*reply).ok());

  // After the error reply the server closes its side: the next read sees
  // EOF, not a hung connection.
  Result<net::Frame> after = net::ReadFrame(*socket, 2000);
  EXPECT_FALSE(after.ok());
}

TEST(ForecastServerTest, ShutdownFrameStopsTheWholeServer) {
  ForecastService service;
  ASSERT_TRUE(service.Install(1, MakeTestArtifact(1.0, 1)).ok());
  Result<net::Listener> listener = net::Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ForecastServer server(std::move(*listener), &service, FastServeOptions());
  ASSERT_TRUE(server.Start().ok());

  Result<ServeClient> client =
      ServeClient::Connect("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->SendShutdown().ok());
  EXPECT_TRUE(server.Wait().ok());  // Every loop exits; no job hangs.
}

TEST(ForecastServerTest, RequestStopUnblocksServe) {
  // The signal-handler path: RequestStop is just an atomic store, and the
  // serve loops must return promptly once it lands. Start runs on this
  // thread (calling it from a pool task would run the jobs inline —
  // core/thread_pool.h); only the join moves to the helper pool.
  ForecastService service;
  Result<net::Listener> listener = net::Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ForecastServer server(std::move(*listener), &service, FastServeOptions());
  ASSERT_TRUE(server.Start().ok());
  ThreadPool pool(2);
  std::future<Status> done = pool.Submit([&server] { return server.Wait(); });
  server.RequestStop();
  Status status = done.get();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ForecastServerTest, HotSwapUnderLoadEveryReplyWhollyOneVersion) {
  // The tentpole guarantee: while v2 is installed mid-traffic, every reply
  // is computed wholly by v1 or wholly by v2 — proven by bit-comparing each
  // reply against the per-version expectation — versions never regress
  // within a connection, and no request fails.
  automl::ModelArtifact v1 = MakeTestArtifact(1.0, 1);
  automl::ModelArtifact v2 = MakeTestArtifact(5.0, 2);
  ForecastService service;
  ASSERT_TRUE(service.Install(1, v1).ok());
  ServeHarness harness(&service);

  constexpr size_t kConnections = 3;
  constexpr size_t kMaxRequests = 2000;
  std::vector<std::string> failures(kConnections);
  // One byte per connection: std::vector<bool> packs bits into shared
  // words, so concurrent writes to distinct elements would race.
  std::vector<char> saw_v2(kConnections, 0);
  {
    ThreadPool pool(kConnections);
    std::vector<std::future<void>> jobs;
    for (size_t c = 0; c < kConnections; ++c) {
      jobs.push_back(pool.Submit([&, c] {
        fl::ForecastRequest request = MakeForecastRequest(4, 2, 50 + c);
        const std::vector<double> expect_v1 = ExpectedPredictions(v1, request);
        const std::vector<double> expect_v2 = ExpectedPredictions(v2, request);
        Result<ServeClient> client =
            ServeClient::Connect("127.0.0.1", harness.port(), 2000);
        if (!client.ok()) {
          failures[c] = client.status().ToString();
          return;
        }
        int64_t last_version = 0;
        for (size_t i = 0; i < kMaxRequests; ++i) {
          Result<fl::ForecastReply> reply = client->Forecast(request);
          if (!reply.ok()) {
            failures[c] = reply.status().ToString();
            return;
          }
          if (reply->model_version < last_version) {
            failures[c] = "version rolled back";
            return;
          }
          last_version = reply->model_version;
          const std::vector<double>& expected =
              reply->model_version == 1 ? expect_v1 : expect_v2;
          if (reply->predictions != expected) {
            failures[c] = "reply not wholly v" +
                          std::to_string(reply->model_version);
            return;
          }
          if (reply->model_version == 2) {
            saw_v2[c] = 1;
            return;  // Observed the swap; done.
          }
        }
        failures[c] = "never observed v2";
      }));
    }
    // Let every connection get at least one v1 reply in, then swap.
    {
      ServeClient warmup = harness.Connect();
      Result<fl::ForecastReply> first =
          warmup.Forecast(MakeForecastRequest(2, 2, 99));
      ASSERT_TRUE(first.ok()) << first.status();
      EXPECT_EQ(first->model_version, 1);
    }
    ASSERT_TRUE(service.Install(2, v2).ok());
    for (auto& job : jobs) job.get();
  }
  for (size_t c = 0; c < kConnections; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "connection " << c << ": "
                                     << failures[c];
    EXPECT_EQ(saw_v2[c], 1) << "connection " << c;
  }
}

TEST(ForecastServerTest, WatcherHotSwapsFromTheRegistry) {
  // End-to-end hot-swap path: publish v1, start a watching server against
  // an empty service, and observe the watcher install v1 and then v2 after
  // a later publish — all through the polled registry, no direct Install.
  TempDir dir("serve_watcher");
  ModelRegistry registry(dir.path());
  automl::ModelArtifact v1 = MakeTestArtifact(1.0, 1);
  automl::ModelArtifact v2 = MakeTestArtifact(3.0, 2);
  ASSERT_TRUE(registry.Publish(v1).ok());

  ForecastService service;
  ServeHarness harness(&service, FastServeOptions(), &registry);
  ServeClient client = harness.Connect();

  auto ping_until_version = [&client](int64_t want) {
    for (int i = 0; i < 4000; ++i) {
      Result<fl::PingReply> pong = client.Ping();
      ASSERT_TRUE(pong.ok()) << pong.status();
      if (pong->model_version == want) return;
    }
    FAIL() << "watcher never installed v" << want;
  };
  ping_until_version(1);

  fl::ForecastRequest request = MakeForecastRequest(4, 2, 13);
  Result<fl::ForecastReply> reply = client.Forecast(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->model_version, 1);
  EXPECT_EQ(reply->predictions, ExpectedPredictions(v1, request));

  ASSERT_TRUE(registry.Publish(v2).ok());
  ping_until_version(2);
  reply = client.Forecast(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->model_version, 2);
  EXPECT_EQ(reply->predictions, ExpectedPredictions(v2, request));
}

TEST(ForecastServerTest, BadPublishedVersionNeverInterruptsServing) {
  // A corrupt v2 lands in the registry: the watcher must keep serving v1
  // and pick up a good v3 afterwards.
  TempDir dir("serve_bad_publish");
  ModelRegistry registry(dir.path());
  automl::ModelArtifact v1 = MakeTestArtifact(1.0, 1);
  ASSERT_TRUE(registry.Publish(v1).ok());

  ForecastService service;
  ServeHarness harness(&service, FastServeOptions(), &registry);
  ServeClient client = harness.Connect();
  for (int i = 0; i < 4000 && service.CurrentVersion() != 1; ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  ASSERT_EQ(service.CurrentVersion(), 1);

  automl::ModelArtifact corrupt = MakeTestArtifact(2.0, 2);
  corrupt.blob.resize(1);  // Truncated global model.
  ASSERT_TRUE(registry.Publish(corrupt).ok());
  automl::ModelArtifact v3 = MakeTestArtifact(4.0, 3);
  ASSERT_TRUE(registry.Publish(v3).ok());

  for (int i = 0; i < 4000 && service.CurrentVersion() != 3; ++i) {
    // v1 keeps answering while the watcher retries past the bad v2.
    fl::ForecastRequest request = MakeForecastRequest(2, 2, 17);
    Result<fl::ForecastReply> reply = client.Forecast(request);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_NE(reply->model_version, 2);
  }
  EXPECT_EQ(service.CurrentVersion(), 3);
}

}  // namespace
}  // namespace fedfc::serve
