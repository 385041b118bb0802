#ifndef FEDFC_ML_TREE_GBDT_TREE_H_
#define FEDFC_ML_TREE_GBDT_TREE_H_

#include <cstdint>
#include <vector>

#include "core/matrix.h"
#include "core/result.h"
#include "ml/tree/exact_split.h"
#include "ml/tree/feature_binning.h"

namespace fedfc::ml::gbdt_internal {

/// Tuning knobs shared by the boosting variants.
struct GbdtTreeConfig {
  int max_depth = 4;
  double reg_lambda = 1.0;
  size_t min_samples_leaf = 1;
  double min_gain = 1e-12;
};

/// One regression tree fitted to first/second-order gradients with the
/// XGBoost split gain
///   0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l))
/// and leaf weight -G/(H+l). Every boosted model in the library is built
/// from this one node tree; the three growers below differ only in how they
/// choose splits.
class GbdtTree {
 public:
  /// Depth-wise exact greedy split finding (XGBoost) on the presorted
  /// column blocks of the booster's matrix (ml/tree/exact_split.h). Fits on
  /// the rows in `sample_indices` (all rows when empty). `g` and `h`
  /// are per-row gradient/hessian; `h` entries must be positive.
  void Fit(const tree_internal::SortedColumns& sorted, const std::vector<double>& g,
           const std::vector<double>& h, const std::vector<size_t>& sample_indices,
           const GbdtTreeConfig& config);

  /// Leaf-wise (best-first) growth on quantile bins (LightGBM): splits the
  /// leaf with the highest gain until `max_leaves` leaves exist or no split
  /// gains more than `config.min_gain`. Ignores `config.max_depth`.
  void FitLeafWise(const BinnedMatrix& binned, const std::vector<double>& g,
                   const std::vector<double>& h, int max_leaves,
                   const GbdtTreeConfig& config);

  /// Oblivious (symmetric) growth on quantile bins (CatBoost): every level
  /// applies one (feature, threshold) split to all of its nodes, for at most
  /// `config.max_depth` levels. Laid out as a full preorder node tree.
  void FitOblivious(const BinnedMatrix& binned, const std::vector<double>& g,
                    const std::vector<double>& h, const GbdtTreeConfig& config);

  /// Goes left when row[feature] <= threshold; a NaN feature goes right.
  [[nodiscard]] double PredictRow(const double* row) const;

  [[nodiscard]] size_t n_nodes() const { return nodes_.size(); }
  /// Highest feature index any split reads, -1 for a single-leaf tree.
  /// `PredictRow(row)` indexes `row` up to this value, so callers holding a
  /// deserialized (untrusted) tree must check it against their row width
  /// before predicting (see Regressor::ValidateFeatureWidth).
  [[nodiscard]] int MaxFeature() const;
  /// Total split gain per feature (for importances).
  [[nodiscard]] const std::vector<double>& feature_gains() const { return gains_; }

  /// Rewrites every node weight w as fn(w) (the federated merge's scaling).
  template <typename Fn>
  void MapWeights(Fn fn) {
    for (Node& n : nodes_) n.weight = fn(n.weight);
  }

  /// Flat numeric encoding (for FL model transfer): node count followed by
  /// (feature, threshold, left, right, weight) per node.
  void AppendTo(std::vector<double>* out) const;
  /// Inverse of AppendTo; advances *offset past the consumed span.
  static Result<GbdtTree> FromSpan(const std::vector<double>& data, size_t* offset);

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    double weight = 0.0;
  };

  /// Grows the node over entries [lo, lo + n) of `blocks`.
  int32_t Build(tree_internal::ColumnBlocks* blocks, tree_internal::GradientStat* stat,
                const std::vector<size_t>& features, size_t lo, size_t n, int depth,
                const GbdtTreeConfig& config);

  std::vector<Node> nodes_;
  std::vector<double> gains_;
};

}  // namespace fedfc::ml::gbdt_internal

#endif  // FEDFC_ML_TREE_GBDT_TREE_H_
