#ifndef FEDFC_ML_TREE_EXACT_SPLIT_H_
#define FEDFC_ML_TREE_EXACT_SPLIT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/matrix.h"
#include "core/result.h"
#include "core/status.h"

/// The exact split core shared by the two exact growers, DecisionTree
/// (Random Forest, Extra Trees) and GbdtTree's depth-wise `Fit` (XGBoost):
/// presorted column blocks (Chen & Guestrin, KDD 2016, §4.1; SLIQ's
/// attribute lists, Mehta et al., EDBT 1996) and one splitter parameterized
/// by the node statistic. A node's range of every column block holds exactly
/// the (value, row) sequence a per-node sort of its rows would return, so
/// every threshold, gain and leaf is bit-identical to sorting at each node.
namespace fedfc::ml::tree_internal {

/// InvalidArgument naming `who` and the first non-finite cell of `x`: the
/// exact and binned split finders order feature values, and NaN has no
/// strict weak order.
Status RequireFinite(const Matrix& x, const char* who);

/// Every column of `x` sorted once by (value, row). Built once per ensemble
/// fit, since `x` is the same for every tree and boosting round. Holds a
/// pointer to `x`, which must outlive it.
class SortedColumns {
 public:
  /// Fails like RequireFinite on any non-finite cell.
  static Result<SortedColumns> Build(const Matrix& x, const char* who);

  [[nodiscard]] const Matrix& x() const { return *x_; }
  /// Rows of column `col` in (value, row) order.
  [[nodiscard]] const uint32_t* order(size_t col) const {
    return order_.data() + col * x_->rows();
  }

 private:
  const Matrix* x_ = nullptr;
  std::vector<uint32_t> order_;  // Column-major: cols x rows.
};

/// One tree's working set. For every column, the tree's rows in (value, row)
/// order, each repeated by its multiplicity in the tree's sample; beside
/// them, the same rows in draw order. A node owns the range [lo, lo + n) of
/// every list. `Partition` splits a range stably in every list, so both
/// child ranges are again in (value, row) order, and the draw-order list
/// keeps the order in which the sample drew the rows: the order every node
/// total and leaf value is summed in. Nothing is sorted or allocated per
/// node.
class ColumnBlocks {
 public:
  /// `sample` lists the tree's rows in draw order, with repeats (bootstrap)
  /// or without (subsample); empty means every row once, in row order.
  /// `with_columns` false keeps only the draw-order list, for trees that
  /// never scan sorted values (random thresholds). `sorted` must outlive
  /// the blocks.
  ColumnBlocks(const SortedColumns& sorted, const std::vector<size_t>& sample,
               bool with_columns);

  /// Number of (row, multiplicity) entries: the root node's size.
  [[nodiscard]] size_t size() const { return draw_.size(); }
  [[nodiscard]] const Matrix& x() const { return sorted_->x(); }
  [[nodiscard]] const uint32_t* draw(size_t lo) const { return draw_.data() + lo; }
  /// Rows of column `col` in the node starting at `lo`, in (value, row)
  /// order.
  [[nodiscard]] const uint32_t* rows(size_t col, size_t lo) const {
    return rows_.data() + col * size() + lo;
  }

  /// Moves the rows of [lo, lo + n) with x(row, feature) <= threshold to the
  /// front of the range, keeping the relative order on both sides, and
  /// returns how many there are. The column blocks are split only when a
  /// child holds at least `min_split_size` entries, i.e. when one may be
  /// split again; the draw-order list always is.
  size_t Partition(size_t lo, size_t n, size_t feature, double threshold,
                   size_t min_split_size);

 private:
  /// Stable partition of rows[0, n) by goes_left_: left rows are compacted
  /// in place, right rows wait in the spill buffer and follow.
  void SplitRange(uint32_t* rows, size_t n);

  const SortedColumns* sorted_;
  size_t n_cols_ = 0;            // x().cols(), or 0 without columns.
  std::vector<uint32_t> rows_;   // Column-major: n_cols_ x size(), plus slack.
  std::vector<uint32_t> draw_;
  std::vector<uint8_t> goes_left_;  // Indexed by row of x.
  std::vector<uint32_t> spill_;
};

struct ExactSplit {
  int feature = -1;  ///< -1 when no split beats the minimum gain.
  double threshold = 0.0;
  double gain = 0.0;
};

/// The one exact splitter. Scans each feature's range in (value, row) order,
/// adding each row to the left statistic, and considers a cut between every
/// two distinct neighbours that leaves at least `min_leaf` entries per side,
/// at their midpoint. Features are tried in the given order and the first
/// strictly best gain wins, so only a gain above `min_gain` splits. `stat`
/// must have seen the node (`Begin`).
template <typename Stat>
ExactSplit FindBestExactSplit(const ColumnBlocks& blocks, size_t lo, size_t n,
                              const std::vector<size_t>& features, size_t min_leaf,
                              double min_gain, Stat* stat) {
  const size_t stride = blocks.x().cols();
  ExactSplit best;
  best.gain = min_gain;
  for (size_t f : features) {
    const uint32_t* r = blocks.rows(f, lo);
    const double* column = blocks.x().data().data() + f;  // x(row, f) at row * stride.
    double v = column[r[0] * stride];
    if (v == column[r[n - 1] * stride]) continue;
    stat->ResetLeft();
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      stat->AddLeft(r[pos]);
      const double next = column[r[pos + 1] * stride];
      const double cur = v;
      v = next;
      if (cur == next) continue;
      const size_t n_left = pos + 1;
      const size_t n_right = n - n_left;
      if (n_left < min_leaf || n_right < min_leaf) continue;
      const double gain = stat->Gain(n_left, n_right);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.threshold = 0.5 * (cur + next);
      }
    }
  }
  return best;
}

// Node statistics. Each one totals a node over its draw-order rows
// (`Begin`), accumulates a left child one row at a time, and scores a cut
// with the same floating-point expression the growers have always used.

/// Variance reduction on (y, y²) sums: Random-Forest regression.
class VarianceStat {
 public:
  explicit VarianceStat(const std::vector<double>& y) : y_(y.data()) {}

  void Begin(const uint32_t* rows, size_t n) {
    sum_ = 0.0;
    sum2_ = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double v = y_[rows[i]];
      sum_ += v;
      sum2_ += v * v;
    }
    dn_ = static_cast<double>(n);
    impurity_ = sum2_ / dn_ - (sum_ / dn_) * (sum_ / dn_);
  }
  /// True when every row has the same target (nothing to split).
  [[nodiscard]] bool Pure(const uint32_t* rows, size_t n) const {
    return std::all_of(rows, rows + n,
                       [&](uint32_t r) { return y_[r] == y_[rows[0]]; });
  }
  void ResetLeft() {
    left_ = 0.0;
    left2_ = 0.0;
  }
  void AddLeft(uint32_t row) {
    const double v = y_[row];
    left_ += v;
    left2_ += v * v;
  }
  [[nodiscard]] double Gain(size_t n_left, size_t n_right) const {
    const double dl = static_cast<double>(n_left);
    const double dr = static_cast<double>(n_right);
    const double sr = sum_ - left_, sr2 = sum2_ - left2_;
    const double var_l = left2_ / dl - (left_ / dl) * (left_ / dl);
    const double var_r = sr2 / dr - (sr / dr) * (sr / dr);
    return impurity_ - (dl * var_l + dr * var_r) / dn_;
  }

 private:
  const double* y_;
  double sum_ = 0.0, sum2_ = 0.0, dn_ = 0.0, impurity_ = 0.0;
  double left_ = 0.0, left2_ = 0.0;
};

/// Gini impurity decrease on class counts: Random-Forest and Extra-Trees
/// classification.
class GiniStat {
 public:
  GiniStat(const std::vector<int>& y, size_t n_classes)
      : y_(y.data()), parent_(n_classes, 0.0), left_(n_classes, 0.0) {}

  void Begin(const uint32_t* rows, size_t n) {
    std::fill(parent_.begin(), parent_.end(), 0.0);
    for (size_t i = 0; i < n; ++i) parent_[Label(rows[i])] += 1.0;
    dn_ = static_cast<double>(n);
    impurity_ = Gini(parent_, nullptr, dn_);
  }
  [[nodiscard]] bool Pure(const uint32_t* rows, size_t n) const {
    return std::all_of(rows, rows + n,
                       [&](uint32_t r) { return y_[r] == y_[rows[0]]; });
  }
  void ResetLeft() { std::fill(left_.begin(), left_.end(), 0.0); }
  void AddLeft(uint32_t row) { left_[Label(row)] += 1.0; }
  [[nodiscard]] double Gain(size_t n_left, size_t n_right) const {
    const double dl = static_cast<double>(n_left);
    const double dr = static_cast<double>(n_right);
    const double gl = Gini(left_, nullptr, dl);
    const double gr = Gini(parent_, &left_, dr);
    return impurity_ - (dl * gl + dr * gr) / dn_;
  }

 private:
  [[nodiscard]] size_t Label(uint32_t row) const { return static_cast<size_t>(y_[row]); }
  /// 1 - Σ p², p = (counts[c] - minus[c]) / total; 0 for an empty side.
  static double Gini(const std::vector<double>& counts,
                     const std::vector<double>* minus, double total) {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (size_t c = 0; c < counts.size(); ++c) {
      const double p = (minus ? counts[c] - (*minus)[c] : counts[c]) / total;
      g -= p * p;
    }
    return g;
  }

  const int* y_;
  std::vector<double> parent_, left_;
  double dn_ = 0.0, impurity_ = 0.0;
};

/// XGBoost's structure score G²/(H + λ) of one leaf.
inline double LeafScore(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

/// Second-order (gradient, hessian) sums and the XGBoost split gain
///   0.5 * (GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ)): boosting.
class GradientStat {
 public:
  GradientStat(const std::vector<double>& g, const std::vector<double>& h,
               double lambda)
      : g_(g.data()), h_(h.data()), lambda_(lambda) {}

  void Begin(const uint32_t* rows, size_t n) {
    g_sum_ = 0.0;
    h_sum_ = 0.0;
    for (size_t i = 0; i < n; ++i) {
      g_sum_ += g_[rows[i]];
      h_sum_ += h_[rows[i]];
    }
    parent_ = LeafScore(g_sum_, h_sum_, lambda_);
  }
  void ResetLeft() {
    gl_ = 0.0;
    hl_ = 0.0;
  }
  void AddLeft(uint32_t row) {
    gl_ += g_[row];
    hl_ += h_[row];
  }
  [[nodiscard]] double Gain(size_t /*n_left*/, size_t /*n_right*/) const {
    return 0.5 * (LeafScore(gl_, hl_, lambda_) +
                  LeafScore(g_sum_ - gl_, h_sum_ - hl_, lambda_) - parent_);
  }
  [[nodiscard]] double g_sum() const { return g_sum_; }
  [[nodiscard]] double h_sum() const { return h_sum_; }

 private:
  const double* g_;
  const double* h_;
  double lambda_;
  double g_sum_ = 0.0, h_sum_ = 0.0, parent_ = 0.0;
  double gl_ = 0.0, hl_ = 0.0;
};

}  // namespace fedfc::ml::tree_internal

#endif  // FEDFC_ML_TREE_EXACT_SPLIT_H_
