#include "fl/server.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "core/logging.h"

namespace fedfc::fl {
namespace {

/// One sampled client's finished attempt: the final Execute result and how
/// many re-attempts it took. Slots move through the round's in-flight window
/// by value, so a reply's payload lives exactly from transport completion to
/// the consumer call.
struct Slot {
  Result<Payload> reply;
  size_t retries = 0;

  Slot() : reply(Status::Internal("unset slot")) {}
};

}  // namespace

Server::Server(std::unique_ptr<Transport> transport, std::vector<size_t> client_sizes,
               size_t num_threads)
    : transport_(std::move(transport)), client_sizes_(std::move(client_sizes)) {
  FEDFC_CHECK(transport_ != nullptr);
  FEDFC_CHECK(transport_->num_clients() == client_sizes_.size())
      << "transport/client size mismatch";
  set_num_threads(num_threads);
}

void Server::set_num_threads(size_t num_threads) {
  if (num_threads <= 1) {
    pool_.reset();
    return;
  }
  if (pool_ && pool_->size() == num_threads) return;
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

Result<RoundSummary> Server::RunRound(const RoundSpec& spec,
                                      ReplyConsumer& consumer) {
  if (spec.policy.participation_fraction <= 0.0 ||
      spec.policy.participation_fraction > 1.0) {
    return Status::InvalidArgument(
        "round '" + spec.task + "': participation_fraction must be in (0, 1]");
  }
  auto start = std::chrono::steady_clock::now();
  const TransportStats stats_before = transport_->stats();
  const std::vector<size_t> sampled = SampleParticipants(spec, num_clients());
  const size_t n = sampled.size();

  auto execute_with_retries = [&](size_t s) {
    const size_t j = sampled[s];
    Slot slot;
    for (size_t attempt = 0;; ++attempt) {
      slot.reply = transport_->Execute(j, spec.task, spec.request);
      slot.retries = attempt;
      if (slot.reply.ok() || attempt >= spec.policy.max_retries) return slot;
      if (spec.policy.retry_backoff_ms > 0.0) {
        // 2^attempt with the exponent capped (1ULL << 64 is UB, and a
        // million-fold backoff is already far past useful) and the computed
        // sleep clamped to 30 s, so a huge max_retries policy cannot turn
        // into a shift out of range or an eternity of waiting.
        const double factor =
            static_cast<double>(1ULL << std::min<size_t>(attempt, 20));
        const double sleep_ms =
            std::min(spec.policy.retry_backoff_ms * factor, 30000.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
    }
  };

  // Index-ordered consumption: whether the slots were filled sequentially or
  // by a pool, replies reach the consumer in ascending client-index order,
  // so the consumed sequence — and the reported last error — is independent
  // of execution interleaving. Each slot is dropped right after processing;
  // the pooled path additionally bounds how many undigested replies exist at
  // once to the in-flight window.
  RoundSummary summary;
  summary.outcomes.reserve(n);
  std::string last_error;
  Status consume_status = Status::OK();
  size_t ok_clients = 0;
  auto process = [&](size_t s, Slot&& slot) {
    const size_t j = sampled[s];
    ClientOutcome outcome;
    outcome.client_index = j;
    outcome.retries = slot.retries;
    summary.trace.retries += slot.retries;
    if (!slot.reply.ok()) {
      outcome.ok = false;
      outcome.error = slot.reply.status().ToString();
      last_error = outcome.error;
      FEDFC_LOG(Warning) << "client " << j << " failed task '" << spec.task
                         << "': " << last_error;
    } else {
      outcome.ok = true;
      ++ok_clients;
      if (consume_status.ok()) {
        ClientReply cr;
        cr.client_index = j;
        cr.weight = static_cast<double>(client_sizes_[j]);
        cr.payload = std::move(*slot.reply);
        consume_status = consumer.Consume(std::move(cr));
      }
    }
    summary.outcomes.push_back(std::move(outcome));
  };

  if (pool_ && n > 1) {
    // Sliding window over the pool: submit clients in index order, consume
    // the oldest as soon as the window fills. At most `window` replies are
    // ever in flight, whatever n is. The window state itself (in_flight,
    // next_to_process, and everything `process` touches) is owned by this
    // thread alone — pool tasks only ever run execute_with_retries — so it
    // needs no lock; what it does need is the drain below: the submitted
    // tasks capture this frame's locals by reference, and letting an
    // exception unwind while any of them is still queued or running would
    // leave pool threads chasing dangling stack references.
    const size_t window = pool_->size() * 2;
    std::deque<std::future<Slot>> in_flight;
    size_t next_to_process = 0;
    try {
      for (size_t s = 0; s < n; ++s) {
        in_flight.push_back(pool_->Submit([&execute_with_retries, s]() {
          return execute_with_retries(s);
        }));
        if (in_flight.size() >= window) {
          process(next_to_process++, in_flight.front().get());
          in_flight.pop_front();
        }
      }
      while (!in_flight.empty()) {
        process(next_to_process++, in_flight.front().get());
        in_flight.pop_front();
      }
    } catch (...) {
      // A throwing transport (or an allocation failure in `process`)
      // surfaced through future::get. Wait out every submitted task before
      // unwinding so none outlives the locals it references.
      for (std::future<Slot>& f : in_flight) {
        if (f.valid()) f.wait();
      }
      throw;
    }
  } else {
    for (size_t s = 0; s < n; ++s) process(s, execute_with_retries(s));
  }
  FEDFC_RETURN_IF_ERROR(consume_status);

  summary.trace.sampled_clients = n;
  summary.trace.ok_clients = ok_clients;
  summary.trace.failed_clients = n - ok_clients;

  if (ok_clients == 0) {
    return Status::Internal("all clients failed task '" + spec.task +
                            "': " + last_error);
  }
  if (static_cast<double>(ok_clients) <
      spec.policy.min_success_fraction * static_cast<double>(n)) {
    return Status::Internal(
        "round '" + spec.task + "' below success threshold: " +
        std::to_string(ok_clients) + "/" + std::to_string(n) +
        " clients succeeded (require " +
        std::to_string(spec.policy.min_success_fraction) + "); last error: " +
        last_error);
  }
  FEDFC_RETURN_IF_ERROR(consumer.Finish());

  const TransportStats stats_after = transport_->stats();
  summary.trace.messages = stats_after.messages - stats_before.messages;
  summary.trace.bytes_to_clients =
      stats_after.bytes_to_clients - stats_before.bytes_to_clients;
  summary.trace.bytes_to_server =
      stats_after.bytes_to_server - stats_before.bytes_to_server;
  summary.trace.transport_failures = stats_after.failures - stats_before.failures;
  summary.trace.transport_timeouts = stats_after.timeouts - stats_before.timeouts;
  summary.trace.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return summary;
}

}  // namespace fedfc::fl
