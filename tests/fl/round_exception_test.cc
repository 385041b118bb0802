// Regression tests for the streaming-window exception-safety fix in
// fl/server.cc (found while annotating the window state for clang Thread
// Safety Analysis): the pooled round submits tasks that capture the
// RunRound stack frame by reference, and an exception surfacing through
// future::get used to unwind that frame while later tasks were still
// queued or running — a use-after-scope the sanitizer jobs catch (this
// suite is part of fedfc_concurrency_tests, so it runs under TSan too).
// The fix drains every in-flight task before rethrowing; these tests pin
// that the exception still propagates and that the server (and its pool)
// stay usable afterwards.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "fl/round.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "round_collector.h"

namespace fedfc::fl {
namespace {

/// Client that answers any task with its value after a short stall, so a
/// pooled round reliably has tasks still executing when an earlier slot's
/// exception unwinds.
class SlowEchoClient : public Client {
 public:
  SlowEchoClient(std::string id, double value) : id_(std::move(id)), value_(value) {}

  std::string id() const override { return id_; }
  size_t num_examples() const override { return 10; }

  Result<Payload> Handle(const std::string& /*task*/,
                         const Payload& /*request*/) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Payload reply;
    reply.SetDouble("value", value_);
    return reply;
  }

 private:
  std::string id_;
  double value_;
};

/// Decorator that *throws* (rather than returning a non-OK Result) for one
/// client index, a bounded number of times. Throwing transports are the
/// degenerate case the retry policy cannot absorb — a bad_alloc in payload
/// serialization behaves exactly like this.
class ThrowingTransport : public Transport {
 public:
  ThrowingTransport(std::unique_ptr<Transport> inner, size_t throw_at,
                    size_t times)
      : inner_(std::move(inner)), throw_at_(throw_at), throws_left_(times) {}

  size_t num_clients() const override { return inner_->num_clients(); }

  Result<Payload> Execute(size_t client_index, const std::string& task,
                          const Payload& request) override {
    if (client_index == throw_at_) {
      bool do_throw = false;
      {
        MutexLock lock(mu_);
        if (throws_left_ > 0) {
          --throws_left_;
          do_throw = true;
        }
      }
      if (do_throw) throw std::runtime_error("injected transport exception");
    }
    return inner_->Execute(client_index, task, request);
  }

  TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<Transport> inner_;
  size_t throw_at_;
  mutable Mutex mu_;
  size_t throws_left_ FEDFC_GUARDED_BY(mu_);
};

std::unique_ptr<Server> MakeThrowingServer(size_t n, size_t throw_at,
                                           size_t times, size_t num_threads) {
  std::vector<std::shared_ptr<Client>> clients;
  clients.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    clients.push_back(std::make_shared<SlowEchoClient>(
        "c" + std::to_string(j), static_cast<double>(j + 1)));
  }
  auto transport = std::make_unique<ThrowingTransport>(
      std::make_unique<InProcessTransport>(std::move(clients)), throw_at,
      times);
  return std::make_unique<Server>(std::move(transport),
                                  std::vector<size_t>(n, 10), num_threads);
}

/// Runs one collected round and reports whether it returned OK; lets
/// EXPECT_THROW consume the [[nodiscard]] Result without discarding it.
bool RunOneRound(Server& server, const RoundSpec& spec) {
  Result<CollectedRound> result = CollectRound(server, spec);
  return result.ok();
}

TEST(RoundExceptionTest, PooledRoundDrainsInFlightTasksBeforeUnwinding) {
  // Throw at slot 2 of 32: by the time slot 2's future rethrows, the
  // 2×pool-size window has many later tasks queued or running against the
  // RunRound frame. Pre-fix, unwinding here left those tasks chasing
  // dangling stack references.
  auto server = MakeThrowingServer(32, 2, 1, 4);
  RoundSpec spec("echo", Payload());
  bool ok = false;
  EXPECT_THROW(ok = RunOneRound(*server, spec), std::runtime_error);
  EXPECT_FALSE(ok);

  // The pool and transport survived the unwind: the next round (the
  // injected throw is spent) completes over all 32 clients.
  Result<CollectedRound> retry = CollectRound(*server, spec);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->replies.size(), 32u);
  EXPECT_EQ(retry->trace.ok_clients, 32u);
}

TEST(RoundExceptionTest, SequentialRoundPropagatesTheSameException) {
  auto server = MakeThrowingServer(8, 3, 1, 1);
  RoundSpec spec("echo", Payload());
  bool ok = false;
  EXPECT_THROW(ok = RunOneRound(*server, spec), std::runtime_error);
  EXPECT_FALSE(ok);

  Result<CollectedRound> retry = CollectRound(*server, spec);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->replies.size(), 8u);
}

TEST(RoundExceptionTest, RepeatedThrowsNeverWedgeThePool) {
  // Every round throws until the budget is spent; each unwind must leave
  // the pool reusable for the next attempt.
  auto server = MakeThrowingServer(16, 0, 3, 4);
  RoundSpec spec("echo", Payload());
  for (int attempt = 0; attempt < 3; ++attempt) {
    bool ok = false;
    EXPECT_THROW(ok = RunOneRound(*server, spec), std::runtime_error);
    EXPECT_FALSE(ok);
  }
  Result<CollectedRound> final_round = CollectRound(*server, spec);
  ASSERT_TRUE(final_round.ok());
  EXPECT_EQ(final_round->replies.size(), 16u);
}

}  // namespace
}  // namespace fedfc::fl
