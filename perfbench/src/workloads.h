#ifndef FEDFC_PERFBENCH_WORKLOADS_H_
#define FEDFC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace fedfc::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small-size pass for the self-check: two datasets, four evaluations,
  /// short serve windows. Never used for measurements.
  bool smoke = false;
  std::string kb_path;   ///< The committed knowledge base.
  std::string work_dir;  ///< Registries and traces, inside the source tree.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: end-to-end metrics (tracing off) or
/// per-layer metrics (traced), plus the verdict of its output checks.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  ///< "name: ok" or "name: FAILED (...)".

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(const std::string& name, bool ok, const std::string& detail = "") {
    if (!ok) correct = false;
    checks.push_back(name + ": " + (ok ? "ok" : "FAILED") +
                     (detail.empty() ? "" : " (" + detail + ")"));
  }
};

/// `automl_bo` (tcp = false) and `automl_random_tcp` (tcp = true).
WorkloadResult RunAutomlWorkload(const Args& args, bool tcp, Tracer* tracer);

/// `serve_small_batched` (bulk_swap = false) and `serve_bulk_swap`.
WorkloadResult RunServeWorkload(const Args& args, bool bulk_swap, Tracer* tracer);

/// Stops the process with every operation counted as failed when a
/// workload misses its deadline (see main.cc).
[[noreturn]] void AbortRun(const std::string& why);

}  // namespace fedfc::perfbench

#endif  // FEDFC_PERFBENCH_WORKLOADS_H_
