// One failure contract, pinned on both frame-serving planes: the worker
// plane (net::WorkerServer) and the serving plane (serve::ForecastServer)
// run the same net::FrameServer loop, so the same bad input must cost the
// same on each — a typed error frame, and a dropped connection only when
// the byte stream itself can no longer be trusted.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "fl/payload.h"
#include "fl/task_codec.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/worker.h"
#include "serve/server.h"
#include "serve/service.h"
#include "worker_harness.h"

namespace fedfc::net {
namespace {

enum class Plane { kWorker, kServe };

/// A running server of either plane, with the one request kind it answers
/// without any model or data behind it.
class RunningPlane {
 public:
  virtual ~RunningPlane() = default;
  [[nodiscard]] virtual uint16_t port() const = 0;
  /// A task this plane answers with a kReply frame.
  [[nodiscard]] virtual std::string task() const = 0;
  virtual void RequestStop() = 0;
  /// Blocks until the server has stopped; its Serve/Wait status.
  virtual Status Join() = 0;
};

class WorkerPlane : public RunningPlane {
 public:
  WorkerPlane() : client_("c0", 1.0, 10), pool_(2) {
    Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    worker_ = std::make_unique<WorkerServer>(std::move(*listener), &client_,
                                             FastWorkerOptions());
    done_ = pool_.Submit([w = worker_.get()]() { return w->Serve(); });
  }

  uint16_t port() const override { return worker_->port(); }
  std::string task() const override { return "any"; }
  void RequestStop() override { worker_->RequestStop(); }
  Status Join() override { return done_.get(); }

 private:
  EchoClient client_;
  ThreadPool pool_;
  std::unique_ptr<WorkerServer> worker_;
  std::future<Status> done_;
};

class ServePlane : public RunningPlane {
 public:
  ServePlane() {
    serve::ServeOptions options;
    options.poll_interval_ms = 25;
    options.io_timeout_ms = 2000;
    options.max_connections = 2;
    Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    server_ = std::make_unique<serve::ForecastServer>(std::move(*listener),
                                                      &service_, options);
    EXPECT_TRUE(server_->Start().ok());
  }

  uint16_t port() const override { return server_->port(); }
  std::string task() const override { return fl::tasks::kPing; }
  void RequestStop() override { server_->RequestStop(); }
  Status Join() override { return server_->Wait(); }

 private:
  serve::ForecastService service_;
  std::unique_ptr<serve::ForecastServer> server_;
};

class FrameContractTest : public ::testing::TestWithParam<Plane> {
 protected:
  void SetUp() override {
    if (GetParam() == Plane::kWorker) {
      plane_ = std::make_unique<WorkerPlane>();
    } else {
      plane_ = std::make_unique<ServePlane>();
    }
  }

  void TearDown() override {
    if (!joined_) {
      plane_->RequestStop();
      Status stopped = plane_->Join();
      EXPECT_TRUE(stopped.ok()) << stopped;
    }
  }

  Socket Connect() {
    Result<Socket> conn = Socket::ConnectTcp("127.0.0.1", plane_->port(), 2000);
    EXPECT_TRUE(conn.ok()) << conn.status();
    return std::move(*conn);
  }

  /// Writes `frame` and reads the one frame that answers it.
  static Result<Frame> Exchange(Socket& conn, const Frame& frame) {
    FEDFC_RETURN_IF_ERROR(WriteFrame(conn, frame, 2000));
    return ReadFrame(conn, 2000);
  }

  /// A valid request on `conn` gets a kReply: the connection is usable.
  void ExpectServes(Socket& conn) {
    Frame request;
    request.type = FrameType::kRequest;
    request.task = plane_->task();
    request.body = fl::Payload().Serialize();
    Result<Frame> reply = Exchange(conn, request);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->type, FrameType::kReply);
    EXPECT_EQ(reply->task, plane_->task());
  }

  std::unique_ptr<RunningPlane> plane_;
  bool joined_ = false;
};

TEST_P(FrameContractTest, GarbageGetsTypedErrorThenEofAndTheLoopSurvives) {
  {
    Socket conn = Connect();
    std::vector<uint8_t> garbage(64, 0xAB);  // Bad magic.
    ASSERT_TRUE(conn.SendAll(garbage.data(), garbage.size(), 2000).ok());
    Result<Frame> error = ReadFrame(conn, 2000);
    ASSERT_TRUE(error.ok()) << error.status();
    EXPECT_EQ(error->type, FrameType::kError);
    EXPECT_EQ(ErrorFrameStatus(*error).code(), StatusCode::kInvalidArgument);
    Result<Frame> after = ReadFrame(conn, 2000);
    EXPECT_FALSE(after.ok());  // Dropped: EOF, not a hung connection.
  }
  Socket fresh = Connect();
  ExpectServes(fresh);
}

TEST_P(FrameContractTest, NonRequestFrameGetsTypedErrorAndKeepsTheConnection) {
  Socket conn = Connect();
  Frame bogus;
  bogus.type = FrameType::kReply;  // A server never expects a reply.
  bogus.client_index = 3;
  bogus.task = "bogus_task";
  Result<Frame> error = Exchange(conn, bogus);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(error->client_index, 3u);
  EXPECT_EQ(error->task, "bogus_task");
  EXPECT_EQ(ErrorFrameStatus(*error).code(), StatusCode::kInvalidArgument);
  ExpectServes(conn);
}

TEST_P(FrameContractTest, UndecodableBodyGetsTypedErrorAndKeepsTheConnection) {
  Socket conn = Connect();
  Frame request;
  request.type = FrameType::kRequest;
  request.task = plane_->task();
  request.body = {0xDE, 0xAD, 0xBE, 0xEF};  // Not a serialized Payload.
  Result<Frame> error = Exchange(conn, request);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(error->client_index, 0u);
  EXPECT_EQ(error->task, plane_->task());
  EXPECT_FALSE(ErrorFrameStatus(*error).ok());
  ExpectServes(conn);
}

TEST_P(FrameContractTest, ShutdownFrameStopsTheServerWithOk) {
  Socket conn = Connect();
  ExpectServes(conn);
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  ASSERT_TRUE(WriteFrame(conn, shutdown, 2000).ok());
  joined_ = true;
  Status stopped = plane_->Join();  // No RequestStop: the frame alone.
  EXPECT_TRUE(stopped.ok()) << stopped;
}

std::string PlaneName(const ::testing::TestParamInfo<Plane>& plane) {
  return plane.param == Plane::kWorker ? "Worker" : "Serve";
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, FrameContractTest,
                         ::testing::Values(Plane::kWorker, Plane::kServe),
                         PlaneName);

}  // namespace
}  // namespace fedfc::net
