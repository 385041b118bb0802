#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace fedfc::perfbench {

uint64_t Tracer::NextId() {
  MutexLock lock(mutex_);
  return next_id_++;
}

void Tracer::Record(uint64_t id, uint64_t parent, std::string name,
                    std::string label, Clock::time_point start,
                    Clock::time_point end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.label = std::move(label);
  span.start_s = Seconds(origin_, start);
  span.seconds = Seconds(start, end);
  MutexLock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(mutex_);
  return spans_;
}

Status Tracer::WriteJsonLines(const std::string& path,
                              const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"label\":\"%s\","
                 "\"start_s\":%.9f,\"seconds\":%.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.label.c_str(), s.start_s, s.seconds);
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot write trace " + path);
  return Status::OK();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.voluntary_switches = static_cast<double>(ru.ru_nvcsw);
  u.involuntary_switches = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage operator+(const Usage& a, const Usage& b) {
  return {a.cpu_s + b.cpu_s, a.voluntary_switches + b.voluntary_switches,
          a.involuntary_switches + b.involuntary_switches};
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_s - b.cpu_s, a.voluntary_switches - b.voluntary_switches,
          a.involuntary_switches - b.involuntary_switches};
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

uint64_t Fingerprint(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace fedfc::perfbench
