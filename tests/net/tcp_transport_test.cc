#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "fl/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/worker.h"
#include "worker_harness.h"

namespace fedfc::net {
namespace {

TEST(TcpTransportTest, ExecuteRoundTripsPayload) {
  ThreadPool pool(2);
  EchoClient client("c0", 2.5, 40);
  WorkerHarness worker(&pool, &client);

  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", worker.port()}});
  fl::Payload request;
  request.SetDouble("x", 7.0);
  Result<fl::Payload> reply = transport.Execute(0, "any", request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_DOUBLE_EQ(*reply->GetDouble("value"), 2.5);
  EXPECT_DOUBLE_EQ(*reply->GetDouble("echo"), 7.0);

  fl::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_GT(stats.bytes_to_clients, 0u);
  EXPECT_GT(stats.bytes_to_server, 0u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST(TcpTransportTest, ClientErrorTravelsAsTypedStatus) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);
  WorkerHarness worker(&pool, &client);

  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", worker.port()}});
  Result<fl::Payload> reply = transport.Execute(0, "fail", fl::Payload());
  ASSERT_FALSE(reply.ok());
  // The worker wraps the handler's status in an error frame; the transport
  // reconstructs it code-and-message intact.
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_NE(reply.status().ToString().find("no handler for 'fail'"),
            std::string::npos);
  EXPECT_EQ(transport.stats().failures, 1u);
  EXPECT_EQ(transport.stats().timeouts, 0u);

  // An app-level error does not poison the connection machinery: the next
  // execute on the same client succeeds (reconnecting if needed).
  Result<fl::Payload> ok = transport.Execute(0, "any", fl::Payload());
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(TcpTransportTest, ConnectionRefusedCountsAsFailure) {
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  uint16_t dead_port = listener->port();
  listener->Close();

  TcpTransportOptions opt;
  opt.connect_timeout_ms = 500;
  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", dead_port}}, opt);
  Result<fl::Payload> reply = transport.Execute(0, "any", fl::Payload());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kIOError);
  EXPECT_EQ(transport.stats().failures, 1u);
  EXPECT_EQ(transport.stats().timeouts, 0u);
}

TEST(TcpTransportTest, SilentPeerCountsAsTimeout) {
  // A listener that never answers: connect and send succeed (the kernel
  // queues both), then the reply read hits its deadline.
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();

  TcpTransportOptions opt;
  opt.io_timeout_ms = 100;
  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", listener->port()}}, opt);
  Result<fl::Payload> reply = transport.Execute(0, "any", fl::Payload());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(transport.stats().timeouts, 1u);
  EXPECT_EQ(transport.stats().failures, 0u);
}

TEST(TcpTransportTest, ReplyForAnotherTaskIsAFailureAndForcesReconnect) {
  // A raw-socket fake worker: on its first connection it answers with a
  // well-formed reply frame for another task (a stale frame, as a stream
  // out of sync would carry); on its second it answers properly.
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ThreadPool pool(2);
  auto fake = pool.Submit([&listener]() -> Status {
    for (bool stale : {true, false}) {
      FEDFC_ASSIGN_OR_RETURN(Socket conn, listener->Accept(5000));
      FEDFC_ASSIGN_OR_RETURN(Frame request, ReadFrame(conn, 5000));
      Frame reply;
      reply.type = FrameType::kReply;
      reply.client_index = request.client_index;
      reply.task = stale ? "other_task" : request.task;
      fl::Payload payload;
      payload.SetDouble("value", 4.0);
      reply.body = payload.Serialize();
      FEDFC_RETURN_IF_ERROR(WriteFrame(conn, reply, 5000));
    }
    return Status::OK();
  });

  TcpTransportOptions opt;
  opt.io_timeout_ms = 5000;
  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", listener->port()}}, opt);
  Result<fl::Payload> stale = transport.Execute(0, "fit", fl::Payload());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInternal);
  EXPECT_NE(stale.status().message().find("out of sync"), std::string::npos)
      << stale.status();
  EXPECT_EQ(transport.stats().failures, 1u);
  EXPECT_EQ(transport.stats().timeouts, 0u);

  // The stale stream was closed: the next execute reconnects (the fake's
  // second accept) and succeeds.
  Result<fl::Payload> fresh = transport.Execute(0, "fit", fl::Payload());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_DOUBLE_EQ(*fresh->GetDouble("value"), 4.0);
  EXPECT_EQ(transport.stats().failures, 1u);
  Status served = fake.get();
  EXPECT_TRUE(served.ok()) << served;
}

TEST(TcpTransportTest, OutOfRangeClientIndexRejected) {
  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", 1}});
  EXPECT_EQ(transport.Execute(5, "any", fl::Payload()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(TcpTransportTest, QueryNumExamplesFetchesSizesOverTheWire) {
  ThreadPool pool(3);
  EchoClient c0("c0", 1.0, 30);
  EchoClient c1("c1", 2.0, 10);
  WorkerHarness w0(&pool, &c0);
  WorkerHarness w1(&pool, &c1);

  TcpTransport transport(std::vector<WorkerEndpoint>{
      {"127.0.0.1", w0.port()}, {"127.0.0.1", w1.port()}});
  Result<std::vector<size_t>> sizes = transport.QueryNumExamples();
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_EQ(*sizes, (std::vector<size_t>{30, 10}));
}

TEST(TcpTransportTest, ShutdownFrameStopsTheWorker) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);

  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker(std::move(*listener), &client, FastWorkerOptions());
  auto done = pool.Submit([&worker]() { return worker.Serve(); });

  TcpTransport transport(
      std::vector<WorkerEndpoint>{{"127.0.0.1", worker.port()}});
  ASSERT_TRUE(transport.Execute(0, "any", fl::Payload()).ok());
  ASSERT_TRUE(transport.ShutdownWorker(0).ok());
  // Serve returns on its own — no RequestStop needed.
  EXPECT_TRUE(done.get().ok());
}

}  // namespace
}  // namespace fedfc::net
