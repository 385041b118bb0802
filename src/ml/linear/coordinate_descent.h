#ifndef FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_
#define FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_

#include <vector>

#include "core/matrix.h"
#include "core/rng.h"

namespace fedfc::ml {

/// Coordinate selection order for coordinate descent (Table 2's `selection`
/// hyperparameter for Lasso/ElasticNet).
enum class CdSelection { kCyclic, kRandom };

const char* CdSelectionName(CdSelection s);

struct CdOptions {
  double alpha = 1.0;       ///< Overall regularization strength.
  double l1_ratio = 1.0;    ///< 1 = Lasso, 0 = Ridge, in between = ElasticNet.
  CdSelection selection = CdSelection::kCyclic;
  size_t max_iter = 200;    ///< Full passes over coordinates.
  double tol = 1e-5;        ///< Max coordinate update below which we stop.
};

/// The least-squares sufficient statistics of the first `n` rows of (X, y):
/// G = XᵀX/n (row-major, d x d) and q = Xᵀy/n, plus the unscaled Xᵀy sums
/// the ElasticNetCV alpha path starts from.
struct Gram {
  size_t n = 0;
  size_t d = 0;
  std::vector<double> g;
  std::vector<double> q;
  std::vector<double> xty;
};

/// Builds one Gram per entry of `ends` (non-decreasing, each in [1, rows]),
/// each over the row prefix [0, end). The raw sums are accumulated once, in
/// row order, and snapshotted at every end, so a prefix's Gram is bit-equal
/// to one built on that prefix alone. Plain loops, not the dispatched kernel
/// layer: the sums are bit-identical on every backend.
std::vector<Gram> PrefixGrams(const Matrix& x, const std::vector<double>& y,
                              const std::vector<size_t>& ends);

/// Minimizes the scikit-learn elastic-net objective
///   1/(2n) ||y - X w||^2 + alpha * l1_ratio * ||w||_1
///     + 0.5 * alpha * (1 - l1_ratio) * ||w||^2
/// by cyclic or random coordinate descent with soft-thresholding, in
/// covariance form (Friedman, Hastie & Tibshirani, JSS 2010): with Gw kept
/// current, rho_j = q_j - (Gw)_j + G_jj w_j, and a coordinate update costs
/// O(d), paid only when w_j changes. Starts cold from w = 0. X should be
/// (approximately) standardized for good conditioning; callers inside this
/// library always pass standardized data. Returns the weight vector; the
/// intercept is handled by the caller (zero for centered data).
std::vector<double> CoordinateDescent(const Gram& gram, const CdOptions& options,
                                      Rng* rng);

/// The intercept of least squares on the row prefix [0, n) given weights w:
/// mean(y) - mean(X w), each summed in row order.
double PrefixIntercept(const Matrix& x, const std::vector<double>& y, size_t n,
                       const std::vector<double>& w);

/// Soft-thresholding operator S(z, g) = sign(z) * max(|z| - g, 0).
double SoftThreshold(double z, double gamma);

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_
