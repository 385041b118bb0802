#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/logging.h"
#include "core/matrix.h"
#include "fl/payload.h"

namespace fedfc::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ForecastServer::ForecastServer(net::Listener listener, ForecastService* service,
                               ServeOptions options)
    : frames_(std::move(listener), options.poll_interval_ms,
              options.io_timeout_ms),
      service_(service),
      options_(options) {
  options_.max_batch = std::max(options_.max_batch, 1);
  options_.max_connections = std::max<size_t>(options_.max_connections, 1);
}

Status ForecastServer::Start() {
  FEDFC_CHECK(service_ != nullptr);
  if (pool_ != nullptr) {
    return Status::FailedPrecondition("serve: server already started");
  }
  // One pool thread per job, so every loop truly runs concurrently; the
  // jobs are submitted from the caller's thread (they would run inline if
  // Start were itself a pool task — see core/thread_pool.h).
  const size_t n_jobs =
      options_.max_connections + 1 + (registry_ != nullptr ? 1 : 0);
  pool_ = std::make_unique<ThreadPool>(n_jobs);
  jobs_.reserve(n_jobs);
  for (size_t i = 0; i < options_.max_connections; ++i) {
    jobs_.push_back(pool_->Submit([this] {
      Status served = frames_.Serve(
          [this](uint32_t, const std::string& task,
                 const fl::Payload& request) { return Handle(task, request); });
      // A shutdown frame stops the frame loops; wake the batcher and the
      // watcher now rather than at their next poll (a signal handler's
      // RequestStop cannot notify).
      cv_.NotifyAll();
      watch_cv_.NotifyAll();
      return served;
    }));
  }
  jobs_.push_back(pool_->Submit([this] {
    BatcherLoop();
    return Status::OK();
  }));
  if (registry_ != nullptr) {
    jobs_.push_back(pool_->Submit([this] {
      WatcherLoop();
      return Status::OK();
    }));
  }
  return Status::OK();
}

Status ForecastServer::Wait() {
  Status first = Status::OK();
  for (auto& job : jobs_) {
    Status status = job.get();
    if (first.ok() && !status.ok()) first = status;
  }
  jobs_.clear();
  pool_.reset();
  return first;
}

Status ForecastServer::Serve() {
  FEDFC_RETURN_IF_ERROR(Start());
  return Wait();
}

// ---------------------------------------------------------------------------
// Connection side.
// ---------------------------------------------------------------------------

Result<fl::Payload> ForecastServer::Handle(const std::string& task,
                                           const fl::Payload& request) {
  if (task == fl::tasks::kPing) {
    return fl::PingReply{service_->CurrentVersion()}.ToPayload();
  }
  if (task == fl::tasks::kForecast) {
    FEDFC_ASSIGN_OR_RETURN(fl::ForecastRequest decoded,
                           fl::ForecastRequest::FromPayload(request));
    FEDFC_ASSIGN_OR_RETURN(fl::ForecastReply forecast,
                           ForecastBlocking(std::move(decoded)));
    return forecast.ToPayload();
  }
  return Status::Unimplemented(
      std::string("serve: unknown task '") + task + "' (handles: [" +
      fl::tasks::kForecast + ", " + fl::tasks::kPing + "])");
}

Result<fl::ForecastReply> ForecastServer::ForecastBlocking(
    fl::ForecastRequest request) {
  if (request.n_rows() > options_.max_rows_per_request) {
    return Status::InvalidArgument(
        "serve: request of " + std::to_string(request.n_rows()) +
        " rows exceeds the per-request cap of " +
        std::to_string(options_.max_rows_per_request));
  }
  std::future<Result<fl::ForecastReply>> future;
  {
    MutexLock lock(mutex_);
    if (queue_closed_) {
      return Status::FailedPrecondition("serve: server is stopping");
    }
    Pending pending;
    pending.request = std::move(request);
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    cv_.NotifyOne();
  }
  // One outstanding request per connection (request/reply protocol), so
  // blocking the reader here blocks nobody else.
  return future.get();
}

// ---------------------------------------------------------------------------
// Batcher.
// ---------------------------------------------------------------------------

void ForecastServer::BatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stopped()) {
        cv_.WaitFor(mutex_, options_.poll_interval_ms);
      }
      if (queue_.empty()) {
        // Stopping with nothing pending: close the queue under this same
        // lock, so no enqueue can slip in after the batcher is gone —
        // late requests fail fast instead of stranding a promise.
        queue_closed_ = true;
        return;
      }
      // Linger: give concurrent connections a short window to coalesce
      // into this batch. Skipped when stopping — drain promptly.
      if (!stopped() && options_.batch_timeout_ms > 0) {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(options_.batch_timeout_ms);
        while (queue_.size() < static_cast<size_t>(options_.max_batch) &&
               !stopped()) {
          const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
          if (left.count() <= 0) break;
          cv_.WaitFor(mutex_, static_cast<int>(left.count()));
        }
      }
      const size_t take =
          std::min(queue_.size(), static_cast<size_t>(options_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    RunBatch(std::move(batch));
    // On stop the loop keeps draining: every request accepted before the
    // queue closed still gets a real (or typed-error) reply.
  }
}

void ForecastServer::RunBatch(std::vector<Pending> batch) {
  // ONE snapshot for the whole batch: every reply below is computed by
  // exactly this model version, no matter how many hot-swaps land while
  // the batch is in flight.
  std::shared_ptr<const LoadedModel> snapshot = service_->Snapshot();
  if (snapshot == nullptr) {
    for (Pending& pending : batch) {
      pending.promise.set_value(
          Status::FailedPrecondition("serve: no model loaded yet"));
    }
    return;
  }
  const size_t width = snapshot->forecaster.n_features();
  std::vector<size_t> valid;
  valid.reserve(batch.size());
  size_t total_rows = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const fl::ForecastRequest& request = batch[i].request;
    if (static_cast<size_t>(request.n_cols) != width) {
      // A mismatched request fails alone; it never poisons the batch.
      batch[i].promise.set_value(Status::InvalidArgument(
          "serve: request rows have " + std::to_string(request.n_cols) +
          " columns, model v" + std::to_string(snapshot->version) +
          " expects " + std::to_string(width)));
      continue;
    }
    valid.push_back(i);
    total_rows += request.n_rows();
  }
  if (valid.empty()) return;

  // Coalesce every valid request into one matrix and evaluate it with a
  // single Predict call. Predict is row-independent for every model family
  // in the search space, so this is bit-identical to evaluating each
  // request alone.
  Matrix x(total_rows, width, 0.0);
  size_t row = 0;
  for (size_t i : valid) {
    const std::vector<double>& values = batch[i].request.rows;
    const size_t n_rows = batch[i].request.n_rows();
    for (size_t r = 0; r < n_rows; ++r) {
      for (size_t c = 0; c < width; ++c) {
        x(row + r, c) = values[r * width + c];
      }
    }
    row += n_rows;
  }
  Result<std::vector<double>> predictions = snapshot->forecaster.Forecast(x);
  if (!predictions.ok()) {
    for (size_t i : valid) {
      batch[i].promise.set_value(predictions.status());
    }
    return;
  }
  size_t offset = 0;
  for (size_t i : valid) {
    const size_t n_rows = batch[i].request.n_rows();
    fl::ForecastReply reply;
    reply.model_version = snapshot->version;
    reply.predictions.assign(predictions->begin() + static_cast<long>(offset),
                             predictions->begin() +
                                 static_cast<long>(offset + n_rows));
    offset += n_rows;
    batch[i].promise.set_value(std::move(reply));
  }
}

// ---------------------------------------------------------------------------
// Registry watcher.
// ---------------------------------------------------------------------------

void ForecastServer::WatcherLoop() {
  while (!stopped()) {
    Result<int> latest = registry_->LatestVersion();
    if (!latest.ok()) {
      FEDFC_LOG(Warning) << "serve: registry scan failed: " << latest.status();
    } else if (*latest > service_->CurrentVersion()) {
      Result<automl::ModelArtifact> artifact = registry_->Load(*latest);
      Status installed = artifact.ok() ? service_->Install(*latest, *artifact)
                                       : artifact.status();
      if (installed.ok()) {
        FEDFC_LOG(Info) << "serve: hot-swapped to v" << *latest;
      } else {
        // A bad version never interrupts serving: keep the live model and
        // retry at the next poll (the publisher may still be mid-fix).
        FEDFC_LOG(Warning) << "serve: cannot install v" << *latest << ": "
                           << installed << " (keeping v"
                           << service_->CurrentVersion() << ")";
      }
    }
    MutexLock lock(watch_mutex_);
    watch_cv_.WaitFor(watch_mutex_, options_.registry_poll_ms);
  }
}

}  // namespace fedfc::serve
