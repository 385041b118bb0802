#include "ml/linear/lasso.h"

namespace fedfc::ml {

Status LassoRegressor::FitStandardized(const Matrix& x, const std::vector<double>& y,
                                       Rng* rng, std::vector<double>* weights_std,
                                       double* intercept_std) {
  if (!(config_.alpha >= 0.0)) {  // Also rejects NaN.
    return Status::InvalidArgument("Lasso: alpha must be non-negative");
  }
  CdOptions opts;
  opts.alpha = config_.alpha;
  opts.l1_ratio = 1.0;
  opts.selection = config_.selection;
  opts.max_iter = config_.max_iter;
  opts.tol = config_.tol;
  *weights_std = CoordinateDescent(PrefixGrams(x, y, {x.rows()}).front(), opts, rng);
  // Standardized target has zero mean; residual mean is the intercept.
  *intercept_std = PrefixIntercept(x, y, x.rows(), *weights_std);
  return Status::OK();
}

}  // namespace fedfc::ml
