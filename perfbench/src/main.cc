// fedfc_perfbench: runs one benchmark workload and prints its metrics, the
// verdict of its output checks, and (last line) one JSON result object.
//
//   fedfc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --kb <committed knowledge base> --work-dir <dir for temp files>
//                   [--git-sha <sha>] [--smoke]
//
// perfbench/run.py builds this binary and is the entry point; see
// perfbench/README.md for the workloads and metrics.

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "ml/kernels/kernels.h"
#include "trace.h"
#include "workloads.h"

#ifndef FEDFC_PERFBENCH_BUILD_TYPE
#define FEDFC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fedfc::perfbench {

namespace {

std::mutex g_exit_mutex;  // Serializes the final result line.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string Provenance(const Args& args, const std::string& git_sha) {
  return "{\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"kernel_backend\": " + JsonString(ml::kernels::ActiveBackend().name) +
         ", \"build_type\": " + JsonString(FEDFC_PERFBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + JsonString(git_sha) + "}";
}

void PrintResult(const WorkloadResult& result) {
  for (const std::string& check : result.checks) std::printf("check %s\n", check.c_str());
  std::printf("verdict: %s\n", result.correct ? "outputs correct" : "OUTPUTS WRONG");
  for (const Metric& m : result.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Ends the run if the workload outlives its deadline: a hung join or
/// connect becomes a failed result instead of a hung process.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            AbortRun("the workload missed its " + std::to_string(seconds) + " s deadline");
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <automl_bo|automl_random_tcp|serve_small_batched|"
               "serve_bulk_swap> --seed <n> --seconds <s> --trace <0|1> --kb <path> "
               "--work-dir <dir> [--git-sha <sha>] [--smoke]\n",
               argv0);
  return 2;
}

}  // namespace

void AbortRun(const std::string& why) {
  std::lock_guard<std::mutex> lock(g_exit_mutex);
  std::fprintf(stderr, "perfbench: aborting: %s\n", why.c_str());
  WorkloadResult failed;
  failed.attempted = 1;
  failed.failed = 1;
  failed.Check("workload completed", false, why);
  PrintResult(failed);
  std::fflush(stderr);
  std::_Exit(0);
}

int Main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (!has_value) {
      return PrintUsage(argv[0]);
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (flag == "--kb") {
      args.kb_path = argv[++i];
    } else if (flag == "--work-dir") {
      args.work_dir = argv[++i];
    } else if (flag == "--git-sha") {
      git_sha = argv[++i];
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (args.work_dir.empty() || args.kb_path.empty() || !(args.seconds > 0)) {
    return PrintUsage(argv[0]);
  }
  const bool automl_bo = args.workload == "automl_bo";
  const bool automl_tcp = args.workload == "automl_random_tcp";
  const bool serve_small = args.workload == "serve_small_batched";
  const bool serve_bulk = args.workload == "serve_bulk_swap";
  if (!automl_bo && !automl_tcp && !serve_small && !serve_bulk) return PrintUsage(argv[0]);

  const std::string provenance = Provenance(args, git_sha);
  std::printf("provenance: %s\n", provenance.c_str());
  std::fflush(stdout);

  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  WorkloadResult result;
  {
    // A run must end within 180 s; a slow host gets all of it before a
    // workload counts as hung.
    Watchdog watchdog(170.0);
    result = automl_bo || automl_tcp ? RunAutomlWorkload(args, automl_tcp, traced)
                                     : RunServeWorkload(args, serve_bulk, traced);
  }
  if (traced != nullptr) {
    const std::string path = args.work_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    Status written = tracer.WriteJsonLines(path, provenance);
    std::printf("trace: %s (%zu spans)%s\n", path.c_str(), tracer.spans().size(),
                written.ok() ? "" : " NOT WRITTEN");
  }
  std::lock_guard<std::mutex> lock(g_exit_mutex);
  PrintResult(result);
  return 0;
}

}  // namespace fedfc::perfbench

int main(int argc, char** argv) { return fedfc::perfbench::Main(argc, argv); }
