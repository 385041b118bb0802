#ifndef FEDFC_FL_AGGREGATION_H_
#define FEDFC_FL_AGGREGATION_H_

#include <vector>

#include "core/result.h"

namespace fedfc::fl {

/// Streaming weighted mean: folds (weight, value) pairs one at a time and
/// renormalizes on the running total, so a round's scalar aggregate needs
/// O(1) memory no matter how many clients reply. Weights are raw example
/// counts |D_j|; `Mean` returns sum(w_j * v_j) / sum(w_j) — Equation 1
/// applied without ever materializing the normalized weights.
class ScalarAccumulator {
 public:
  void Add(double weight, double value) {
    weighted_sum_ += weight * value;
    total_weight_ += weight;
    any_ = true;
  }

  [[nodiscard]] Result<double> Mean() const {
    if (!any_) return Status::InvalidArgument("aggregate: no replies");
    return weighted_sum_ / total_weight_;
  }

 private:
  double weighted_sum_ = 0.0;
  double total_weight_ = 0.0;
  bool any_ = false;
};

/// Streaming elementwise weighted mean over equal-length tensors. The shape
/// is pinned by the FIRST tensor added — even an empty one: a zero-length
/// first tensor followed by a non-empty one is a size mismatch, not a
/// silent re-initialization.
class TensorAccumulator {
 public:
  Status Add(double weight, const std::vector<double>& tensor) {
    if (!any_) {
      sum_.assign(tensor.size(), 0.0);
      any_ = true;
    } else if (sum_.size() != tensor.size()) {
      return Status::InvalidArgument("aggregate: tensor size mismatch");
    }
    for (size_t i = 0; i < tensor.size(); ++i) sum_[i] += weight * tensor[i];
    total_weight_ += weight;
    return Status::OK();
  }

  [[nodiscard]] Result<std::vector<double>> Mean() const {
    if (!any_) return Status::InvalidArgument("aggregate: no replies");
    std::vector<double> mean = sum_;
    for (double& v : mean) v /= total_weight_;
    return mean;
  }

 private:
  std::vector<double> sum_;
  double total_weight_ = 0.0;
  bool any_ = false;
};

}  // namespace fedfc::fl

#endif  // FEDFC_FL_AGGREGATION_H_
