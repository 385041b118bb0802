#include "serve/client.h"

#include "fl/payload.h"

namespace fedfc::serve {

Result<ServeClient> ServeClient::Connect(const std::string& host,
                                         uint16_t port, int timeout_ms) {
  FEDFC_ASSIGN_OR_RETURN(net::Socket socket,
                         net::Socket::ConnectTcp(host, port, timeout_ms));
  return ServeClient(std::move(socket), timeout_ms);
}

Result<net::Frame> ServeClient::RoundTrip(const std::string& task,
                                          const fl::Payload& payload) {
  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.task = task;
  request.body = payload.Serialize();
  return net::RoundTripFrame(socket_, request, timeout_ms_);
}

Result<fl::ForecastReply> ServeClient::Forecast(
    const fl::ForecastRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(net::Frame reply,
                         RoundTrip(fl::tasks::kForecast, request.ToPayload()));
  FEDFC_ASSIGN_OR_RETURN(fl::Payload payload,
                         fl::Payload::Deserialize(reply.body));
  return fl::ForecastReply::FromPayload(payload);
}

Result<fl::PingReply> ServeClient::Ping() {
  FEDFC_ASSIGN_OR_RETURN(
      net::Frame reply, RoundTrip(fl::tasks::kPing, fl::PingRequest().ToPayload()));
  FEDFC_ASSIGN_OR_RETURN(fl::Payload payload,
                         fl::Payload::Deserialize(reply.body));
  return fl::PingReply::FromPayload(payload);
}

Status ServeClient::SendShutdown() {
  net::Frame frame;
  frame.type = net::FrameType::kShutdown;
  return net::WriteFrame(socket_, frame, timeout_ms_);
}

}  // namespace fedfc::serve
