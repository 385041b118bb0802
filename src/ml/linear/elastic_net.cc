#include "ml/linear/elastic_net.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/vec_math.h"

namespace fedfc::ml {

Status ElasticNetCvRegressor::FitStandardized(const Matrix& x,
                                              const std::vector<double>& y, Rng* rng,
                                              std::vector<double>* weights_std,
                                              double* intercept_std) {
  if (config_.n_alphas == 0) {
    return Status::InvalidArgument("ElasticNetCV: n_alphas must be positive");
  }
  if (!(config_.alpha_min_ratio > 0.0 && config_.alpha_min_ratio <= 1.0)) {
    return Status::InvalidArgument("ElasticNetCV: alpha_min_ratio must lie in (0, 1]");
  }
  // Clamp would read NaN as 1 and silently fit pure Lasso.
  if (std::isnan(config_.l1_ratio)) {
    return Status::InvalidArgument("ElasticNetCV: l1_ratio is NaN");
  }
  // The paper's Table 2 lists l1_ratio in [0.3:10]; scikit-learn clips the
  // mixing ratio to [0, 1], so values above 1 saturate at pure Lasso.
  double l1_ratio = Clamp(config_.l1_ratio, 0.0, 1.0);
  const size_t n = x.rows();
  if (n < 8) return Status::InvalidArgument("ElasticNetCV: too few samples");

  // Forward-chaining folds: train on a prefix, validate on the next block.
  // The training prefixes are nested, so one pass over the rows yields every
  // fold's Gram and, last, the full-data Gram for alpha_max and the refit.
  size_t folds = std::min<size_t>(config_.n_folds, n / 4);
  folds = std::max<size_t>(folds, 1);
  std::vector<size_t> ends;  // Training prefix ends, then n.
  std::vector<size_t> valid_ends;
  for (size_t f = 0; f < folds; ++f) {
    size_t train_end = n * (f + 1) / (folds + 1);
    size_t valid_end = n * (f + 2) / (folds + 1);
    if (train_end < 4 || valid_end <= train_end) continue;
    ends.push_back(train_end);
    valid_ends.push_back(valid_end);
  }
  ends.push_back(n);
  const std::vector<Gram> grams = PrefixGrams(x, y, ends);
  const Gram& full = grams.back();

  // alpha_max: smallest alpha for which all coefficients are zero under the
  // scikit-learn scaling, max_j |x_j . y| / (n * l1_ratio).
  double max_xty = 0.0;
  for (double v : full.xty) max_xty = std::max(max_xty, std::fabs(v));
  double alpha_max =
      std::max(max_xty / (static_cast<double>(n) * std::max(l1_ratio, 1e-3)), 1e-8);
  std::vector<double> alphas;
  for (size_t i = 0; i < config_.n_alphas; ++i) {
    double t = config_.n_alphas > 1
                   ? static_cast<double>(i) / static_cast<double>(config_.n_alphas - 1)
                   : 0.0;
    alphas.push_back(alpha_max * std::pow(config_.alpha_min_ratio, t));
  }

  CdOptions opts;
  opts.l1_ratio = l1_ratio;
  opts.selection = config_.selection;
  opts.max_iter = config_.max_iter;
  opts.tol = config_.tol;
  double best_cv = std::numeric_limits<double>::infinity();
  double best_alpha = alphas.back();
  for (double alpha : alphas) {
    opts.alpha = alpha;
    double cv_loss = 0.0;
    for (size_t f = 0; f < valid_ends.size(); ++f) {
      const size_t train_end = ends[f];
      const size_t valid_end = valid_ends[f];
      std::vector<double> w = CoordinateDescent(grams[f], opts, rng);
      double b = PrefixIntercept(x, y, train_end, w);
      double loss = 0.0;
      for (size_t i = train_end; i < valid_end; ++i) {
        const double* row = x.Row(i);
        double pred = b;
        for (size_t c = 0; c < x.cols(); ++c) pred += row[c] * w[c];
        loss += (pred - y[i]) * (pred - y[i]);
      }
      cv_loss += loss / static_cast<double>(valid_end - train_end);
    }
    if (valid_ends.empty()) continue;
    cv_loss /= static_cast<double>(valid_ends.size());
    if (cv_loss < best_cv) {
      best_cv = cv_loss;
      best_alpha = alpha;
    }
  }
  chosen_alpha_ = best_alpha;

  opts.alpha = best_alpha;
  *weights_std = CoordinateDescent(full, opts, rng);
  *intercept_std = PrefixIntercept(x, y, n, *weights_std);
  return Status::OK();
}

}  // namespace fedfc::ml
