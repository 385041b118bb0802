#ifndef FEDFC_ML_LINEAR_ELASTIC_NET_H_
#define FEDFC_ML_LINEAR_ELASTIC_NET_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/linear/coordinate_descent.h"
#include "ml/linear/linear_base.h"

namespace fedfc::ml {

/// ElasticNet with the regularization strength `alpha` chosen by
/// time-ordered K-fold cross-validation over a geometric alpha path —
/// the scikit-learn ElasticNetCV the paper's search space names.
/// Search-space hyperparameters (Table 2): `l1_ratio`, `selection`.
class ElasticNetCvRegressor : public LinearRegressorBase {
 public:
  struct Config {
    double l1_ratio = 0.5;
    CdSelection selection = CdSelection::kCyclic;
    size_t n_alphas = 10;     ///< Geometric path length.
    double alpha_min_ratio = 1e-3;
    size_t n_folds = 3;       ///< Forward-chaining time-series folds.
    size_t max_iter = 150;
    double tol = 1e-5;
  };

  ElasticNetCvRegressor() = default;
  explicit ElasticNetCvRegressor(Config config) : config_(config) {}

  std::string Name() const override { return "ElasticNetCV"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<ElasticNetCvRegressor>(*this);
  }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] double chosen_alpha() const { return chosen_alpha_; }

 protected:
  Status FitStandardized(const Matrix& x, const std::vector<double>& y, Rng* rng,
                         std::vector<double>* weights_std,
                         double* intercept_std) override;

 private:
  Config config_;
  double chosen_alpha_ = 0.0;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_ELASTIC_NET_H_
