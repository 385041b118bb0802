#include "ml/tree/exact_split.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

namespace fedfc::ml::tree_internal {

Status RequireFinite(const Matrix& x, const char* who) {
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    for (size_t c = 0; c < x.cols(); ++c) {
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(std::string(who) + ": non-finite feature at row " +
                                       std::to_string(r) + ", column " +
                                       std::to_string(c));
      }
    }
  }
  return Status::OK();
}

Result<SortedColumns> SortedColumns::Build(const Matrix& x, const char* who) {
  FEDFC_RETURN_IF_ERROR(RequireFinite(x, who));
  if (x.rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(std::string(who) + ": too many rows");
  }
  SortedColumns out;
  out.x_ = &x;
  out.order_.resize(x.rows() * x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    uint32_t* order = out.order_.data() + c * x.rows();
    std::iota(order, order + x.rows(), uint32_t{0});
    std::sort(order, order + x.rows(), [&](uint32_t a, uint32_t b) {
      return x(a, c) < x(b, c) || (x(a, c) == x(b, c) && a < b);
    });
  }
  return out;
}

ColumnBlocks::ColumnBlocks(const SortedColumns& sorted,
                           const std::vector<size_t>& sample, bool with_columns)
    : sorted_(&sorted), goes_left_(sorted.x().rows(), 0) {
  const Matrix& x = sorted.x();
  if (sample.empty()) {
    draw_.resize(x.rows());
    std::iota(draw_.begin(), draw_.end(), uint32_t{0});
  } else {
    draw_.assign(sample.begin(), sample.end());
  }
  const size_t m = draw_.size();
  spill_.resize(m);
  if (!with_columns) return;
  n_cols_ = x.cols();
  // Each column's presorted rows, each repeated by its multiplicity in the
  // sample: the multiset in (value, row) order, in O(rows) per column. The
  // loop writes each row twice before it advances, so the last column needs
  // two slack entries.
  rows_.resize(n_cols_ * m + 2);
  std::vector<uint32_t> multiplicity(x.rows(), 0);
  for (uint32_t r : draw_) ++multiplicity[r];
  for (size_t c = 0; c < n_cols_; ++c) {
    const uint32_t* order = sorted.order(c);
    uint32_t* out = rows_.data() + c * m;
    size_t k = 0;
    for (size_t i = 0; i < x.rows(); ++i) {
      const uint32_t r = order[i];
      const uint32_t times = multiplicity[r];
      out[k] = r;
      out[k + 1] = r;
      for (uint32_t rep = 2; rep < times; ++rep) out[k + rep] = r;
      k += times;
    }
  }
}

size_t ColumnBlocks::Partition(size_t lo, size_t n, size_t feature,
                               double threshold, size_t min_split_size) {
  const double* column = x().data().data() + feature;
  const size_t stride = x().cols();
  uint32_t* draw = draw_.data() + lo;
  size_t n_left = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t left = column[draw[i] * stride] <= threshold ? 1 : 0;
    goes_left_[draw[i]] = left;
    n_left += left;
  }
  SplitRange(draw, n);
  if (std::max(n_left, n - n_left) >= min_split_size) {
    const size_t m = size();
    for (size_t c = 0; c < n_cols_; ++c) SplitRange(rows_.data() + c * m + lo, n);
  }
  return n_left;
}

void ColumnBlocks::SplitRange(uint32_t* rows, size_t n) {
  // Branch-free: each row is written to both destinations and only the
  // matching cursor advances. The left cursor never passes the read cursor.
  size_t n_left = 0, n_right = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    const size_t left = goes_left_[r];
    rows[n_left] = r;
    spill_[n_right] = r;
    n_left += left;
    n_right += 1 - left;
  }
  std::copy(spill_.begin(), spill_.begin() + static_cast<ptrdiff_t>(n_right),
            rows + n_left);
}

}  // namespace fedfc::ml::tree_internal
