#include "core/thread_pool.h"

#include <algorithm>
#include <exception>

namespace fedfc {

namespace {

/// Set while a thread is executing a task for some pool; used to run nested
/// parallel sections inline rather than deadlocking on a saturated queue.
thread_local bool tls_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : size_(std::max<size_t>(1, num_threads)) {
  if (size_ == 1) return;  // Sequential pool: no workers, no queue traffic.
  workers_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (not a predicate lambda) so the guarded reads of
      // stop_/queue_ happen in this scope, where the analysis can see the
      // capability held.
      while (!stop_ && queue_.empty()) cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and queue drained.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  if (workers_.empty() || tls_in_worker) {
    task();
    return;
  }
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || tls_in_worker || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One exception slot per index so the rethrown error is the lowest-index
  // failure regardless of which thread ran it.
  std::vector<std::exception_ptr> errors(n);
  // Counted down under done_mutex: a task that decremented it outside the
  // lock could still be about to lock done_mutex and signal done_cv after
  // this frame, which owns both, has returned.
  size_t remaining = n;
  Mutex done_mutex;
  CondVar done_cv;
  for (size_t i = 0; i < n; ++i) {
    Schedule([&, i]() {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      MutexLock lock(done_mutex);
      if (--remaining == 0) done_cv.NotifyOne();
    });
  }
  {
    MutexLock lock(done_mutex);
    while (remaining != 0) done_cv.Wait(done_mutex);
  }
  for (size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace fedfc
