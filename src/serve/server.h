#ifndef FEDFC_SERVE_SERVER_H_
#define FEDFC_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/sync.h"
#include "core/thread_pool.h"
#include "fl/task_codec.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace fedfc::serve {

struct ServeOptions {
  /// Most requests coalesced into one batched model evaluation.
  int max_batch = 32;
  /// How long the batcher lingers for more requests once it has one. The
  /// throughput/latency dial: 0 = dispatch immediately.
  int batch_timeout_ms = 2;
  /// Concurrent connections served (one frame loop each).
  size_t max_connections = 8;
  /// Granularity at which idle loops re-check the stop flag.
  int poll_interval_ms = 100;
  /// Per send/receive deadline once a frame transfer has started.
  int io_timeout_ms = 30000;
  /// Watcher cadence: how often the registry is polled for a newer version.
  int registry_poll_ms = 200;
  /// Per-request row cap — bounds one client's share of a batch.
  size_t max_rows_per_request = 4096;
};

/// Production inference server: answers `forecast` frames over the same
/// frame-v2 protocol the federated plumbing speaks, coalescing concurrent
/// requests into single batched model evaluations.
///
/// Shape: `Start` launches (on an internal ThreadPool) `max_connections`
/// net::FrameServer loops, one batcher, and — when a registry is attached —
/// one watcher; `Wait` joins them. Each frame loop accepts one connection
/// at a time off the shared listener, under the FrameServer failure
/// contract, and answers `__ping` inline and `forecast` by enqueueing the
/// decoded request with a promise and blocking on the future
/// (request/reply per connection, so one outstanding request per peer).
/// The batcher drains up to `max_batch` requests after a
/// `batch_timeout_ms` linger, snapshots the service ONCE, packs every row
/// into one matrix, runs one `Forecast` call, and fulfills each promise
/// with its slice — so a whole batch is answered by exactly one model
/// version, and batching is bit-identical to sequential evaluation
/// (row-independent Predict; see docs/ARCHITECTURE.md, "Serving").
///
/// The watcher polls the registry for a newer committed version and
/// installs it through ForecastService — the hot-swap path. A `kShutdown`
/// frame or `RequestStop` (async-signal-safe, callable from a signal
/// handler) stops everything; pending requests are failed with typed
/// errors, never dropped silently.
class ForecastServer {
 public:
  /// `service` must outlive the server and is shared with whoever else
  /// installs models (tests install directly; production attaches a
  /// registry).
  ForecastServer(net::Listener listener, ForecastService* service,
                 ServeOptions options = {});

  /// Attaches the registry the watcher polls. Call before Start; the
  /// registry must outlive the server.
  void WatchRegistry(const ModelRegistry* registry) { registry_ = registry; }

  [[nodiscard]] uint16_t port() const { return frames_.port(); }

  /// Launches the worker jobs and returns immediately. Must not be called
  /// from a thread inside another ThreadPool (nested submits run inline).
  Status Start();

  /// Joins every job; returns the first frame-loop failure (a dead
  /// listener), OK otherwise. Blocks until RequestStop or a shutdown frame.
  Status Wait();

  /// Start + Wait, for callers that want the WorkerServer::Serve shape.
  Status Serve();

  /// Asks every loop to exit at its next poll. Lock-free and
  /// async-signal-safe (an atomic store, nothing else) — callable from a
  /// SIGINT/SIGTERM handler. Loops observe it within poll_interval_ms.
  void RequestStop() { frames_.RequestStop(); }

 private:
  /// A decoded forecast request waiting for its batch, carrying the promise
  /// its connection worker blocks on.
  struct Pending {
    fl::ForecastRequest request;
    std::promise<Result<fl::ForecastReply>> promise;
  };

  [[nodiscard]] bool stopped() const { return frames_.stopped(); }

  /// The frame loops' handler; blocks on the batcher for forecasts.
  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request);
  Result<fl::ForecastReply> ForecastBlocking(fl::ForecastRequest request);

  void BatcherLoop();
  /// One batched evaluation: a single service snapshot, a single Forecast.
  void RunBatch(std::vector<Pending> batch);

  void WatcherLoop();

  net::FrameServer frames_;
  ForecastService* service_;
  const ModelRegistry* registry_ = nullptr;
  ServeOptions options_;

  Mutex mutex_;
  CondVar cv_;
  std::deque<Pending> queue_ FEDFC_GUARDED_BY(mutex_);
  /// Set by the batcher on exit; enqueues after that fail immediately, so a
  /// request can never be stranded on an unfulfilled promise.
  bool queue_closed_ FEDFC_GUARDED_BY(mutex_) = false;

  /// Watcher's private sleep: a timed wait lets a shutdown frame cut the
  /// nap short while RequestStop (which cannot notify) is still bounded by
  /// the poll cadence.
  Mutex watch_mutex_;
  CondVar watch_cv_;

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<Status>> jobs_;
};

}  // namespace fedfc::serve

#endif  // FEDFC_SERVE_SERVER_H_
