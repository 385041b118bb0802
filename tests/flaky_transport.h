#ifndef FEDFC_TESTS_FLAKY_TRANSPORT_H_
#define FEDFC_TESTS_FLAKY_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/result.h"
#include "core/sync.h"
#include "fl/payload.h"
#include "fl/transport.h"

namespace fedfc::fl {

/// Decorator that makes a fraction of calls fail (for failure-injection
/// tests of the orchestration layer).
class FlakyTransport : public Transport {
 public:
  FlakyTransport(std::unique_ptr<Transport> inner, double failure_rate,
                 uint64_t seed)
      : inner_(std::move(inner)), failure_rate_(failure_rate), state_(seed | 1) {}

  size_t num_clients() const override { return inner_->num_clients(); }

  Result<Payload> Execute(size_t client_index, const std::string& task,
                          const Payload& request) override {
    // xorshift64* keeps this decorator dependency-free and deterministic.
    // The draw order (and therefore which clients fail) depends on broadcast
    // scheduling when the server runs multi-threaded; the stream itself stays
    // race-free behind the mutex.
    bool fail;
    {
      MutexLock lock(state_mutex_);
      state_ ^= state_ >> 12;
      state_ ^= state_ << 25;
      state_ ^= state_ >> 27;
      uint64_t r = state_ * 0x2545F4914F6CDD1DULL;
      const double u = static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
      fail = u < failure_rate_;
      if (fail) ++injected_failures_;
    }
    if (fail) {
      return Status::IOError("injected transport failure");
    }
    return inner_->Execute(client_index, task, request);
  }

  /// Inner stats plus the failures this decorator injected (an injected
  /// fault never reaches the inner transport, so it must be counted here or
  /// it is invisible in reports).
  TransportStats stats() const override {
    TransportStats stats = inner_->stats();
    MutexLock lock(state_mutex_);
    stats.failures += injected_failures_;
    return stats;
  }

 private:
  std::unique_ptr<Transport> inner_;
  double failure_rate_;
  mutable Mutex state_mutex_;
  uint64_t state_ FEDFC_GUARDED_BY(state_mutex_);
  size_t injected_failures_ FEDFC_GUARDED_BY(state_mutex_) = 0;
};

}  // namespace fedfc::fl

#endif  // FEDFC_TESTS_FLAKY_TRANSPORT_H_
