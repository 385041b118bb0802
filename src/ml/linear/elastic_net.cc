#include "ml/linear/elastic_net.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/vec_math.h"

namespace fedfc::ml {

namespace {

double InterceptFor(const Matrix& x, const std::vector<double>& y,
                    const std::vector<double>& w) {
  std::vector<double> pred(x.rows(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) acc += row[c] * w[c];
    pred[r] = acc;
  }
  return Mean(y) - Mean(pred);
}

/// alpha_max: smallest alpha for which all coefficients are zero under the
/// scikit-learn scaling, max_j |x_j . y| / (n * l1_ratio).
double AlphaMax(const Matrix& x, const std::vector<double>& y, double l1_ratio) {
  double best = 0.0;
  for (size_t j = 0; j < x.cols(); ++j) {
    double dot = 0.0;
    for (size_t r = 0; r < x.rows(); ++r) dot += x(r, j) * y[r];
    best = std::max(best, std::fabs(dot));
  }
  double denom = static_cast<double>(x.rows()) * std::max(l1_ratio, 1e-3);
  return best / denom;
}

}  // namespace

Status ElasticNetCvRegressor::FitStandardized(const Matrix& x,
                                              const std::vector<double>& y, Rng* rng,
                                              std::vector<double>* weights_std,
                                              double* intercept_std) {
  // The paper's Table 2 lists l1_ratio in [0.3:10]; scikit-learn clips the
  // mixing ratio to [0, 1], so values above 1 saturate at pure Lasso.
  double l1_ratio = Clamp(config_.l1_ratio, 0.0, 1.0);
  const size_t n = x.rows();
  if (n < 8) return Status::InvalidArgument("ElasticNetCV: too few samples");

  double alpha_max = std::max(AlphaMax(x, y, l1_ratio), 1e-8);
  std::vector<double> alphas;
  for (size_t i = 0; i < config_.n_alphas; ++i) {
    double t = config_.n_alphas > 1
                   ? static_cast<double>(i) / static_cast<double>(config_.n_alphas - 1)
                   : 0.0;
    alphas.push_back(alpha_max * std::pow(config_.alpha_min_ratio, t));
  }

  // Forward-chaining folds: train on a prefix, validate on the next block.
  size_t folds = std::min<size_t>(config_.n_folds, n / 4);
  folds = std::max<size_t>(folds, 1);
  double best_cv = std::numeric_limits<double>::infinity();
  double best_alpha = alphas.back();
  for (double alpha : alphas) {
    double cv_loss = 0.0;
    size_t used = 0;
    for (size_t f = 0; f < folds; ++f) {
      size_t train_end = n * (f + 1) / (folds + 1);
      size_t valid_end = n * (f + 2) / (folds + 1);
      if (train_end < 4 || valid_end <= train_end) continue;
      std::vector<size_t> train_idx(train_end);
      for (size_t i = 0; i < train_end; ++i) train_idx[i] = i;
      Matrix xt = x.SelectRows(train_idx);
      std::vector<double> yt(y.begin(),
                             y.begin() + static_cast<std::ptrdiff_t>(train_end));

      CdOptions opts;
      opts.alpha = alpha;
      opts.l1_ratio = l1_ratio;
      opts.selection = config_.selection;
      opts.max_iter = config_.max_iter;
      opts.tol = config_.tol;
      std::vector<double> w = CoordinateDescent(xt, yt, opts, rng);
      double b = InterceptFor(xt, yt, w);
      double loss = 0.0;
      for (size_t i = train_end; i < valid_end; ++i) {
        const double* row = x.Row(i);
        double pred = b;
        for (size_t c = 0; c < x.cols(); ++c) pred += row[c] * w[c];
        loss += (pred - y[i]) * (pred - y[i]);
      }
      cv_loss += loss / static_cast<double>(valid_end - train_end);
      ++used;
    }
    if (used == 0) continue;
    cv_loss /= static_cast<double>(used);
    if (cv_loss < best_cv) {
      best_cv = cv_loss;
      best_alpha = alpha;
    }
  }
  chosen_alpha_ = best_alpha;

  CdOptions opts;
  opts.alpha = best_alpha;
  opts.l1_ratio = l1_ratio;
  opts.selection = config_.selection;
  opts.max_iter = config_.max_iter;
  opts.tol = config_.tol;
  *weights_std = CoordinateDescent(x, y, opts, rng);
  *intercept_std = InterceptFor(x, y, *weights_std);
  return Status::OK();
}

}  // namespace fedfc::ml
