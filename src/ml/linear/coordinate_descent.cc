#include "ml/linear/coordinate_descent.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.h"

namespace fedfc::ml {

const char* CdSelectionName(CdSelection s) {
  return s == CdSelection::kCyclic ? "cyclic" : "random";
}

double SoftThreshold(double z, double gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0.0;
}

std::vector<Gram> PrefixGrams(const Matrix& x, const std::vector<double>& y,
                              const std::vector<size_t>& ends) {
  const size_t d = x.cols();
  FEDFC_CHECK(x.rows() == y.size() && d > 0);
  // Upper triangle of XᵀX and Xᵀy, summed row by row.
  std::vector<double> xtx(d * d, 0.0);
  std::vector<double> xty(d, 0.0);
  std::vector<Gram> grams;
  grams.reserve(ends.size());
  size_t r = 0;
  for (size_t end : ends) {
    FEDFC_CHECK(end >= r && end >= 1 && end <= x.rows())
        << "PrefixGrams: ends must be non-decreasing in [1, rows]";
    for (; r < end; ++r) {
      const double* row = x.Row(r);
      for (size_t j = 0; j < d; ++j) {
        double* acc = &xtx[j * d];
        for (size_t k = j; k < d; ++k) acc[k] += row[j] * row[k];
        xty[j] += row[j] * y[r];
      }
    }
    Gram gram;
    gram.n = end;
    gram.d = d;
    gram.g.resize(d * d);
    gram.q.resize(d);
    const double n = static_cast<double>(end);
    for (size_t j = 0; j < d; ++j) {
      for (size_t k = j; k < d; ++k) {
        gram.g[j * d + k] = gram.g[k * d + j] = xtx[j * d + k] / n;
      }
      gram.q[j] = xty[j] / n;
    }
    gram.xty = xty;
    grams.push_back(std::move(gram));
  }
  return grams;
}

std::vector<double> CoordinateDescent(const Gram& gram, const CdOptions& options,
                                      Rng* rng) {
  const size_t d = gram.d;
  FEDFC_CHECK(gram.n > 0 && d > 0 && gram.g.size() == d * d && gram.q.size() == d);

  std::vector<double> w(d, 0.0);
  std::vector<double> gw(d, 0.0);  // G w; zero since w starts at 0.

  const double l1 = options.alpha * options.l1_ratio;
  const double l2 = options.alpha * (1.0 - options.l1_ratio);

  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);

  for (size_t iter = 0; iter < options.max_iter; ++iter) {
    if (options.selection == CdSelection::kRandom && rng != nullptr) {
      rng->Shuffle(&order);
    }
    double max_update = 0.0;
    for (size_t j : order) {
      const double* g_row = &gram.g[j * d];
      const double g_jj = g_row[j];
      if (g_jj <= 1e-12) continue;  // Constant/empty column.
      const double w_old = w[j];
      // rho = (1/n) x_j . (y - X w + w_j x_j)
      const double rho = gram.q[j] - gw[j] + g_jj * w_old;
      const double w_new = SoftThreshold(rho, l1) / (g_jj + l2);
      if (w_new != w_old) {
        const double delta = w_new - w_old;
        for (size_t k = 0; k < d; ++k) gw[k] += delta * g_row[k];
        w[j] = w_new;
        max_update = std::max(max_update, std::fabs(delta));
      }
    }
    if (max_update < options.tol) break;
  }
  return w;
}

double PrefixIntercept(const Matrix& x, const std::vector<double>& y, size_t n,
                       const std::vector<double>& w) {
  FEDFC_CHECK(n > 0 && n <= x.rows() && n <= y.size() && w.size() == x.cols());
  double sum_y = 0.0;
  double sum_pred = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) acc += row[c] * w[c];
    sum_y += y[r];
    sum_pred += acc;
  }
  return sum_y / static_cast<double>(n) - sum_pred / static_cast<double>(n);
}

}  // namespace fedfc::ml
