#ifndef FEDFC_SERVE_CLIENT_H_
#define FEDFC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/result.h"
#include "fl/task_codec.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedfc::serve {

/// Blocking request/reply client for a ForecastServer — the counterpart the
/// e2e tests, the load generator, and embedding applications use. One
/// connection, one outstanding request at a time; error frames come back as
/// their typed Status. A broken or out-of-sync stream closes the connection
/// (net::RoundTripFrame); later calls fail until the caller reconnects.
class ServeClient {
 public:
  static Result<ServeClient> Connect(const std::string& host, uint16_t port,
                                     int timeout_ms = 5000);

  /// One batch-of-rows forecast round trip.
  [[nodiscard]] Result<fl::ForecastReply> Forecast(
      const fl::ForecastRequest& request);

  /// Liveness probe; the reply carries the live model version.
  [[nodiscard]] Result<fl::PingReply> Ping();

  /// Asks the server to stop (the frame-level shutdown control signal).
  [[nodiscard]] Status SendShutdown();

 private:
  ServeClient(net::Socket socket, int timeout_ms)
      : socket_(std::move(socket)), timeout_ms_(timeout_ms) {}

  /// net::RoundTripFrame for one request frame of `task`.
  Result<net::Frame> RoundTrip(const std::string& task,
                               const fl::Payload& payload);

  net::Socket socket_;
  int timeout_ms_;
};

}  // namespace fedfc::serve

#endif  // FEDFC_SERVE_CLIENT_H_
