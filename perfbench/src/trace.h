#ifndef FEDFC_PERFBENCH_TRACE_H_
#define FEDFC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace fedfc::perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One interval recorded at a layer boundary. `parent` is the span that
/// caused it (0 = none). `name` is the boundary ("run", "round", "consume",
/// "execute", "handle", "request"); `label` says what crossed it (a task id,
/// a task and model family, a dataset).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string label;
  double start_s = 0.0;  ///< Since the tracer was created.
  double seconds = 0.0;
};

/// In-memory span store for one benchmark process. Boundaries on any thread
/// append finished spans under one mutex; nothing is written until
/// `WriteJsonLines`, which main() calls once at exit.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserves a span id, so children can name their parent before the
  /// parent span has finished.
  uint64_t NextId();

  void Record(uint64_t id, uint64_t parent, std::string name, std::string label,
              Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;

  /// `header` (one JSON object) on the first line, then one object per span.
  Status WriteJsonLines(const std::string& path, const std::string& header) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable Mutex mutex_;
  uint64_t next_id_ FEDFC_GUARDED_BY(mutex_) = 1;
  std::vector<Span> spans_ FEDFC_GUARDED_BY(mutex_);
};

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (0 for an empty sample).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// getrusage(RUSAGE_SELF): CPU time and context switches of the process.
struct Usage {
  double cpu_s = 0.0;
  double voluntary_switches = 0.0;
  double involuntary_switches = 0.0;
};
Usage ProcessUsage();
Usage operator+(const Usage& a, const Usage& b);
Usage operator-(const Usage& a, const Usage& b);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMib();

/// FNV-1a over the bytes of `values`: the bit-exact fingerprint the output
/// checks compare.
uint64_t Fingerprint(const std::vector<double>& values);

}  // namespace fedfc::perfbench

#endif  // FEDFC_PERFBENCH_TRACE_H_
