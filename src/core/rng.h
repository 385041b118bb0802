#ifndef FEDFC_CORE_RNG_H_
#define FEDFC_CORE_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/logging.h"

namespace fedfc {

/// Deterministic random number generator.
///
/// Every stochastic component in the library takes an Rng (or a seed) so
/// that experiments are reproducible; there is no hidden global generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal (optionally scaled/shifted). Scales a standard draw
  /// itself, with the expression libstdc++'s normal_distribution applies,
  /// so every draw keeps its bits and stddev = 0 (zero noise) is allowed,
  /// where that distribution requires stddev > 0.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> standard;
    return standard(engine_) * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Int(int64_t lo, int64_t hi) {
    FEDFC_DCHECK(lo <= hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform index in [0, n).
  size_t Index(size_t n) {
    FEDFC_DCHECK(n > 0);
    return static_cast<size_t>(Int(0, static_cast<int64_t>(n) - 1));
  }

  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// k distinct indices drawn uniformly from [0, n) (k <= n).
  std::vector<size_t> Sample(size_t n, size_t k);

  /// n indices drawn with replacement from [0, n) (bootstrap).
  std::vector<size_t> Bootstrap(size_t n);

  /// Derives an independent child generator (for per-client streams).
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fedfc

#endif  // FEDFC_CORE_RNG_H_
