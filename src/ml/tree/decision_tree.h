#ifndef FEDFC_ML_TREE_DECISION_TREE_H_
#define FEDFC_ML_TREE_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/status.h"
#include "ml/tree/exact_split.h"

namespace fedfc::ml {

/// Configuration shared by single trees and the ensembles built on them.
struct TreeConfig {
  int max_depth = 8;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Fraction of features examined per split (Random Forest decorrelation);
  /// 1.0 examines all features.
  double max_features_fraction = 1.0;
  /// Extra-Trees style: draw one random threshold per candidate feature
  /// instead of scanning all cut points.
  bool random_thresholds = false;
};

/// CART decision tree for regression (variance reduction) or classification
/// (Gini impurity). Nodes are stored in a flat array; leaves carry either a
/// mean value (regression) or a class distribution (classification). Exact
/// splits scan presorted column blocks (ml/tree/exact_split.h).
class DecisionTree {
 public:
  enum class Task { kRegression, kClassification };

  DecisionTree() = default;
  DecisionTree(Task task, TreeConfig config) : task_(task), config_(config) {}

  /// Fits on the given rows. For classification, labels are in
  /// [0, n_classes). `sample_indices` selects (with possible repetition —
  /// bootstrap) the training rows; empty means all rows. Every cell of `x`
  /// must be finite.
  Status Fit(const Matrix& x, const std::vector<double>& y_reg,
             const std::vector<int>& y_cls, int n_classes,
             const std::vector<size_t>& sample_indices, Rng* rng);
  /// The same fit on a matrix an ensemble has presorted once for all of
  /// its trees.
  Status Fit(const tree_internal::SortedColumns& sorted,
             const std::vector<double>& y_reg, const std::vector<int>& y_cls,
             int n_classes, const std::vector<size_t>& sample_indices, Rng* rng);

  /// Regression prediction for one row.
  [[nodiscard]] double PredictRow(const double* row) const;
  /// Class distribution for one row (classification trees only).
  [[nodiscard]] const std::vector<double>& PredictDistRow(const double* row) const;

  /// Total impurity decrease attributed to each feature.
  [[nodiscard]] const std::vector<double>& feature_importances() const { return importances_; }
  [[nodiscard]] size_t n_nodes() const { return nodes_.size(); }
  [[nodiscard]] Task task() const { return task_; }

 private:
  struct Node {
    int feature = -1;            ///< -1 for leaves.
    double threshold = 0.0;      ///< Go left when x[feature] <= threshold.
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;          ///< Regression leaf mean.
    std::vector<double> dist;    ///< Classification leaf probabilities.
  };

  struct BuildContext;

  /// Grows the node over entries [lo, lo + n) of the context's blocks.
  template <typename Stat>
  int32_t Build(BuildContext* ctx, Stat* stat, size_t lo, size_t n, int depth);
  int32_t MakeLeaf(const BuildContext& ctx, size_t lo, size_t n);

  Task task_ = Task::kRegression;
  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  int n_classes_ = 0;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_TREE_DECISION_TREE_H_
