#ifndef FEDFC_NET_FRAME_SERVER_H_
#define FEDFC_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/result.h"
#include "fl/payload.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedfc::net {

/// The server half of the frame protocol, shared by the worker plane
/// (WorkerServer) and the serving plane (serve::ForecastServer): one
/// listener, one async-signal-safe stop flag, and one serve loop
///
///   accept -> WaitReadable -> ReadFrame -> handle -> WriteFrame
///
/// with one failure contract:
///
///   input                          reply                      connection
///   garbled frame                  best-effort typed error    dropped; back
///                                  frame (echoes nothing)     to accept
///   non-request frame, undecodable typed error frame echoing  kept
///   body, or handler error         the slot and task
///   kShutdown                      none                       the whole
///                                                             server stops
///
/// Each `Serve` call runs one loop and so serves one connection at a time;
/// a caller runs it on as many threads as it wants concurrent connections
/// (they share the listener, whose non-blocking accept makes a wakeup lost
/// to a sibling just re-poll). Everything a loop touches besides the stop
/// flag is immutable after construction, so the loops need no lock.
class FrameServer {
 public:
  /// Answers one decoded request body addressed to `slot` (the frame's
  /// client-index word) for `task`. An error becomes a typed error frame.
  using Handler = std::function<Result<fl::Payload>(
      uint32_t slot, const std::string& task, const fl::Payload& request)>;

  /// `poll_interval_ms` is how often an idle loop re-checks the stop flag;
  /// `io_timeout_ms` bounds each send/receive once a frame transfer starts.
  FrameServer(Listener listener, int poll_interval_ms, int io_timeout_ms)
      : listener_(std::move(listener)),
        poll_interval_ms_(poll_interval_ms),
        io_timeout_ms_(io_timeout_ms) {}

  [[nodiscard]] uint16_t port() const { return listener_.port(); }

  /// Serves connections one at a time until a shutdown frame arrives on any
  /// loop or RequestStop is called. Returns non-OK only when the listening
  /// socket itself fails.
  Status Serve(const Handler& handler);

  /// Asks every loop to exit at its next idle poll. Lock-free and
  /// async-signal-safe — which is why the flag is a std::atomic and not
  /// fedfc::Mutex-guarded state: taking a lock in a signal handler is
  /// forbidden.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stopped() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  void ServeConnection(Socket conn, const Handler& handler);
  /// The reply frame for one non-shutdown frame.
  Frame Answer(const Frame& frame, const Handler& handler) const;

  Listener listener_;
  int poll_interval_ms_;
  int io_timeout_ms_;
  std::atomic<bool> stop_{false};
};

}  // namespace fedfc::net

#endif  // FEDFC_NET_FRAME_SERVER_H_
