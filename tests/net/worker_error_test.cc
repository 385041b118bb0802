// Regression tests for the WorkerServer serve-loop error paths pinned down
// during the [[nodiscard]] Result/Status sweep (docs/STATIC_ANALYSIS.md,
// "Error-handling policy"): every fallible step in the loop — accept, frame
// read, payload decode, dispatch, frame write — must either propagate a
// typed Status or recover deliberately. These tests drive each branch over
// a real loopback socket and assert the loop's recovery behavior, not just
// the happy path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/worker.h"
#include "worker_harness.h"

namespace fedfc::net {
namespace {

Socket MustConnect(uint16_t port) {
  Result<Socket> conn = Socket::ConnectTcp("127.0.0.1", port, 2000);
  EXPECT_TRUE(conn.ok()) << conn.status();
  return std::move(*conn);
}

/// Sends a valid request frame on `conn` and expects a well-formed kReply.
void RoundTripValidRequest(Socket& conn) {
  Frame request;
  request.type = FrameType::kRequest;
  request.task = "any";
  request.body = fl::Payload().Serialize();
  ASSERT_TRUE(WriteFrame(conn, request, 2000).ok());
  Result<Frame> reply = ReadFrame(conn, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kReply);
}

TEST(WorkerErrorTest, GarbageBytesDropTheConnectionButNotTheLoop) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);
  WorkerHarness worker(&pool, &client);

  {
    // Wire garbage (wrong magic) must not kill the worker. Under the
    // net::FrameServer contract the loop answers with the typed decode
    // error (best effort), drops the connection, and returns to accept.
    Socket garbler = MustConnect(worker.port());
    std::vector<uint8_t> garbage(64, 0xAB);
    ASSERT_TRUE(garbler.SendAll(garbage.data(), garbage.size(), 2000).ok());
    Result<Frame> error = ReadFrame(garbler, 2000);
    ASSERT_TRUE(error.ok()) << error.status();
    EXPECT_EQ(error->type, FrameType::kError);
    EXPECT_EQ(ErrorFrameStatus(*error).code(), StatusCode::kInvalidArgument);
    // Then the worker closes its end: the next read observes EOF/reset.
    Result<Frame> nothing = ReadFrame(garbler, 2000);
    EXPECT_FALSE(nothing.ok());
  }

  // The loop survived: a fresh connection completes a full round trip.
  Socket conn = MustConnect(worker.port());
  RoundTripValidRequest(conn);
}

TEST(WorkerErrorTest, NonRequestFrameGetsTypedErrorOnSameConnection) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);
  WorkerHarness worker(&pool, &client);

  Socket conn = MustConnect(worker.port());
  Frame bogus;
  bogus.type = FrameType::kReply;  // A worker never expects a reply.
  bogus.task = "any";
  ASSERT_TRUE(WriteFrame(conn, bogus, 2000).ok());

  Result<Frame> reply = ReadFrame(conn, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kError);
  Status decoded = ErrorFrameStatus(*reply);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);

  // A protocol-level error is answered, not fatal: the same connection
  // still serves a valid request afterwards.
  RoundTripValidRequest(conn);
}

TEST(WorkerErrorTest, UndecodablePayloadBodyGetsTypedErrorNotADrop) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);
  WorkerHarness worker(&pool, &client);

  Socket conn = MustConnect(worker.port());
  Frame request;
  request.type = FrameType::kRequest;
  request.task = "any";
  request.body = {0xDE, 0xAD, 0xBE, 0xEF};  // Not a serialized Payload.
  ASSERT_TRUE(WriteFrame(conn, request, 2000).ok());

  // Payload::Deserialize's failure travels back as an error frame instead
  // of being swallowed (the pre-sweep temptation) or dropping the link.
  Result<Frame> reply = ReadFrame(conn, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_FALSE(ErrorFrameStatus(*reply).ok());

  RoundTripValidRequest(conn);
}

TEST(WorkerErrorTest, HandlerErrorTravelsBackWithCodeAndMessage) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);
  WorkerHarness worker(&pool, &client);

  Socket conn = MustConnect(worker.port());
  Frame request;
  request.type = FrameType::kRequest;
  request.task = "fail";
  request.body = fl::Payload().Serialize();
  ASSERT_TRUE(WriteFrame(conn, request, 2000).ok());

  Result<Frame> reply = ReadFrame(conn, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kError);
  Status decoded = ErrorFrameStatus(*reply);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_NE(decoded.message().find("no handler for 'fail'"),
            std::string::npos);
}

TEST(WorkerErrorTest, MultiplexedWorkerDispatchesOnClientIndex) {
  ThreadPool pool(2);
  EchoClient c0("c0", 1.0, 30);
  EchoClient c1("c1", 2.0, 10);

  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker(std::move(*listener),
                      std::vector<fl::Client*>{&c0, &c1}, FastWorkerOptions());
  EXPECT_EQ(worker.num_clients(), 2u);
  auto done = pool.Submit([&worker]() { return worker.Serve(); });

  Socket conn = MustConnect(worker.port());
  for (uint32_t slot : {1u, 0u, 1u}) {
    Frame request;
    request.type = FrameType::kRequest;
    request.client_index = slot;
    request.task = "any";
    request.body = fl::Payload().Serialize();
    ASSERT_TRUE(WriteFrame(conn, request, 2000).ok());
    Result<Frame> reply = ReadFrame(conn, 2000);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->type, FrameType::kReply);
    EXPECT_EQ(reply->client_index, slot);  // Replies echo the slot.
    Result<fl::Payload> payload = fl::Payload::Deserialize(reply->body);
    ASSERT_TRUE(payload.ok()) << payload.status();
    EXPECT_DOUBLE_EQ(*payload->GetDouble("value"), slot == 0 ? 1.0 : 2.0);
  }

  worker.RequestStop();
  EXPECT_TRUE(done.get().ok());
}

TEST(WorkerErrorTest, OutOfRangeClientIndexGetsTypedErrorNotADrop) {
  ThreadPool pool(2);
  EchoClient c0("c0", 1.0, 30);
  EchoClient c1("c1", 2.0, 10);

  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker(std::move(*listener),
                      std::vector<fl::Client*>{&c0, &c1}, FastWorkerOptions());
  auto done = pool.Submit([&worker]() { return worker.Serve(); });

  Socket conn = MustConnect(worker.port());
  Frame request;
  request.type = FrameType::kRequest;
  request.client_index = 7;  // Hosting only slots 0 and 1.
  request.task = "any";
  request.body = fl::Payload().Serialize();
  ASSERT_TRUE(WriteFrame(conn, request, 2000).ok());

  Result<Frame> reply = ReadFrame(conn, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->client_index, 7u);  // Error frames echo the slot too.
  Status decoded = ErrorFrameStatus(*reply);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("out of range"), std::string::npos);

  // A misaddressed frame is answered, not fatal: the same connection still
  // serves a valid request afterwards.
  RoundTripValidRequest(conn);

  worker.RequestStop();
  EXPECT_TRUE(done.get().ok());
}

TEST(WorkerErrorTest, ShutdownFrameEndsServeWithOkStatus) {
  ThreadPool pool(2);
  EchoClient client("c0", 1.0, 10);

  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  WorkerServer worker(std::move(*listener), &client, FastWorkerOptions());
  auto done = pool.Submit([&worker]() { return worker.Serve(); });

  Socket conn = MustConnect(worker.port());
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  ASSERT_TRUE(WriteFrame(conn, shutdown, 2000).ok());

  // Serve's Status is the whole contract of the [[nodiscard]] sweep here:
  // it returns OK on an orderly shutdown, and callers (fedfc_worker's main)
  // must consume it.
  Status served = done.get();
  EXPECT_TRUE(served.ok()) << served;
}

}  // namespace
}  // namespace fedfc::net
