#ifndef FEDFC_ML_TREE_FEATURE_BINNING_H_
#define FEDFC_ML_TREE_FEATURE_BINNING_H_

#include <cstdint>
#include <vector>

#include "core/matrix.h"

namespace fedfc::ml::gbdt_internal {

/// Quantile-binned view of a feature matrix, shared by GbdtTree's leaf-wise
/// (LightGBM-style) and oblivious (CatBoost-style) growers.
class BinnedMatrix {
 public:
  /// Bins each column into at most `max_bins` quantile buckets.
  static BinnedMatrix Build(const Matrix& x, int max_bins = 32);

  [[nodiscard]] uint8_t bin(size_t row, size_t col) const { return bins_[row * cols_ + col]; }
  /// Raw row-major bin storage; feature f of row r lives at
  /// bins_data()[r * cols() + f]. Lets the histogram loop walk one
  /// feature column with a stride instead of calling bin() per row.
  [[nodiscard]] const uint8_t* bins_data() const { return bins_.data(); }
  [[nodiscard]] size_t rows() const { return rows_; }
  [[nodiscard]] size_t cols() const { return cols_; }
  /// Actual number of bins used for a feature (<= max_bins).
  [[nodiscard]] int n_bins(size_t col) const { return n_bins_[col]; }

  /// Bins a new (unseen) value of feature `col` using the stored edges.
  [[nodiscard]] uint8_t BinValue(size_t col, double value) const;

  /// Upper edge of bin b for feature `col` (split "bin <= b" corresponds to
  /// value <= UpperEdge(col, b)).
  [[nodiscard]] double UpperEdge(size_t col, int b) const {
    return edges_[col][static_cast<size_t>(b)];
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint8_t> bins_;             // Row-major (rows x cols).
  std::vector<int> n_bins_;               // Per feature.
  std::vector<std::vector<double>> edges_;  // Per feature: upper edges per bin.
};

}  // namespace fedfc::ml::gbdt_internal

#endif  // FEDFC_ML_TREE_FEATURE_BINNING_H_
