#ifndef FEDFC_PERFBENCH_TRACED_FL_H_
#define FEDFC_PERFBENCH_TRACED_FL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "fl/client.h"
#include "fl/round.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "trace.h"

namespace fedfc::perfbench {

/// Parent links between the traced federated boundaries. Rounds run one at
/// a time, and a client is driven by one thread at a time, so every slot has
/// a single writer; readers on worker threads only need the latest value.
struct SpanContext {
  explicit SpanContext(size_t n_clients) : execute(n_clients) {}
  std::atomic<uint64_t> run{0};
  std::atomic<uint64_t> round{0};
  std::vector<std::atomic<uint64_t>> execute;  ///< Per global client index.
};

/// Wall time and accounting of one round, as the engine saw it.
struct RoundRecord {
  std::string task;
  double seconds = 0.0;
  fl::RoundTrace trace;
};

/// fl::Server that times every round it runs. The engine phases reach it
/// through fl::RoundRunner&, so this is the round boundary seen from outside.
/// With a tracer it also records round spans and wraps the consumer to time
/// the folds; without one it only keeps the per-round wall times the
/// end-to-end latency percentiles need.
class ObservedServer : public fl::Server {
 public:
  ObservedServer(std::unique_ptr<fl::Transport> transport,
                 std::vector<size_t> client_sizes, Tracer* tracer,
                 SpanContext* context);

  using fl::Server::RunRound;
  Result<fl::RoundSummary> RunRound(const fl::RoundSpec& spec,
                                    fl::ReplyConsumer& consumer) override;

  [[nodiscard]] const std::vector<RoundRecord>& rounds() const { return rounds_; }

 private:
  Tracer* tracer_;
  SpanContext* context_;
  std::vector<RoundRecord> rounds_;
};

/// Forwarding transport: one "execute" span per client task.
class TracingTransport : public fl::Transport {
 public:
  TracingTransport(std::unique_ptr<fl::Transport> inner, Tracer* tracer,
                   SpanContext* context)
      : inner_(std::move(inner)), tracer_(tracer), context_(context) {}

  size_t num_clients() const override { return inner_->num_clients(); }
  Result<fl::Payload> Execute(size_t client_index, const std::string& task,
                              const fl::Payload& request) override;
  fl::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<fl::Transport> inner_;
  Tracer* tracer_;
  SpanContext* context_;
};

/// Forwarding client: one "handle" span per task, labelled with the model
/// family for fit_evaluate.
class TracingClient : public fl::Client {
 public:
  TracingClient(fl::Client* inner, size_t global_index, Tracer* tracer,
                SpanContext* context)
      : inner_(inner), index_(global_index), tracer_(tracer), context_(context) {}

  std::string id() const override { return inner_->id(); }
  size_t num_examples() const override { return inner_->num_examples(); }
  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request) override;

 private:
  fl::Client* inner_;
  size_t index_;
  Tracer* tracer_;
  SpanContext* context_;
};

}  // namespace fedfc::perfbench

#endif  // FEDFC_PERFBENCH_TRACED_FL_H_
