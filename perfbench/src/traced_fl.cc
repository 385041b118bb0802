#include "traced_fl.h"

#include <optional>
#include <utility>

#include "automl/search_space.h"
#include "fl/task_codec.h"

namespace fedfc::perfbench {

namespace {

/// Times the consumer's folds and records one "consume" span per call.
class TimedConsumer : public fl::ReplyConsumer {
 public:
  TimedConsumer(fl::ReplyConsumer& inner, Tracer* tracer, uint64_t round_id)
      : inner_(inner), tracer_(tracer), round_id_(round_id) {}

  Status Consume(fl::ClientReply&& reply) override {
    const auto start = Clock::now();
    Status status = inner_.Consume(std::move(reply));
    tracer_->Record(tracer_->NextId(), round_id_, "consume", "reply", start,
                    Clock::now());
    return status;
  }

  Status Finish() override {
    const auto start = Clock::now();
    Status status = inner_.Finish();
    tracer_->Record(tracer_->NextId(), round_id_, "consume", "finish", start,
                    Clock::now());
    return status;
  }

 private:
  fl::ReplyConsumer& inner_;
  Tracer* tracer_;
  uint64_t round_id_;
};

/// Lower-case family name of a fit_evaluate request ("" if it does not
/// decode).
std::string FamilyOf(const fl::Payload& fit_evaluate_request) {
  Result<fl::FitEvaluateRequest> request =
      fl::FitEvaluateRequest::FromPayload(fit_evaluate_request);
  if (!request.ok()) return "";
  Result<automl::Configuration> config =
      automl::Configuration::FromTensor(request->config);
  if (!config.ok()) return "";
  switch (config->algorithm) {
    case automl::AlgorithmId::kLasso: return "lasso";
    case automl::AlgorithmId::kLinearSvr: return "linearsvr";
    case automl::AlgorithmId::kElasticNetCv: return "elasticnetcv";
    case automl::AlgorithmId::kXgb: return "xgb";
    case automl::AlgorithmId::kHuber: return "huber";
    case automl::AlgorithmId::kQuantile: return "quantile";
  }
  return "";
}

}  // namespace

ObservedServer::ObservedServer(std::unique_ptr<fl::Transport> transport,
                               std::vector<size_t> client_sizes, Tracer* tracer,
                               SpanContext* context)
    : fl::Server(std::move(transport), std::move(client_sizes)),
      tracer_(tracer),
      context_(context) {}

Result<fl::RoundSummary> ObservedServer::RunRound(const fl::RoundSpec& spec,
                                                  fl::ReplyConsumer& consumer) {
  const uint64_t id = tracer_ != nullptr ? tracer_->NextId() : 0;
  context_->round.store(id, std::memory_order_relaxed);
  std::optional<TimedConsumer> timed;
  if (tracer_ != nullptr) timed.emplace(consumer, tracer_, id);
  const auto start = Clock::now();
  Result<fl::RoundSummary> summary =
      fl::Server::RunRound(spec, timed ? *timed : consumer);
  const auto end = Clock::now();
  if (tracer_ != nullptr) {
    tracer_->Record(id, context_->run.load(std::memory_order_relaxed), "round",
                    spec.task, start, end);
  }
  RoundRecord record{spec.task, Seconds(start, end), {}};
  if (summary.ok()) record.trace = summary->trace;
  rounds_.push_back(std::move(record));
  return summary;
}

Result<fl::Payload> TracingTransport::Execute(size_t client_index,
                                              const std::string& task,
                                              const fl::Payload& request) {
  const uint64_t id = tracer_->NextId();
  if (client_index < context_->execute.size()) {
    context_->execute[client_index].store(id, std::memory_order_relaxed);
  }
  const auto start = Clock::now();
  Result<fl::Payload> reply = inner_->Execute(client_index, task, request);
  tracer_->Record(id, context_->round.load(std::memory_order_relaxed),
                  "execute", task, start, Clock::now());
  return reply;
}

Result<fl::Payload> TracingClient::Handle(const std::string& task,
                                          const fl::Payload& request) {
  const uint64_t id = tracer_->NextId();
  const uint64_t parent = context_->execute[index_].load(std::memory_order_relaxed);
  const auto start = Clock::now();
  Result<fl::Payload> reply = inner_->Handle(task, request);
  const auto end = Clock::now();
  std::string label = task;
  if (task == fl::tasks::kFitEvaluate) label += "/" + FamilyOf(request);
  tracer_->Record(id, parent, "handle", std::move(label), start, end);
  return reply;
}

}  // namespace fedfc::perfbench
