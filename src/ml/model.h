#ifndef FEDFC_ML_MODEL_H_
#define FEDFC_ML_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/status.h"

namespace fedfc::ml {

/// Base interface for all regression models in the search space (Table 2)
/// plus the substrate models (Random Forest for feature selection, N-BEATS
/// baseline).
///
/// Models that support federated parameter averaging (linear models and
/// neural networks) expose their parameters as a flat vector; tree ensembles
/// do not and are aggregated by ensembling instead (see
/// automl::ModelBlobAccumulator).
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits on rows of `x` against `y`. `rng` drives any stochastic component
  /// (subsampling, initialization); it must outlive the call only.
  virtual Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) = 0;

  virtual std::vector<double> Predict(const Matrix& x) const = 0;

  virtual std::string Name() const = 0;

  /// Flat parameter vector for FL averaging; empty when unsupported.
  virtual std::vector<double> GetParameters() const { return {}; }
  virtual Status SetParameters(const std::vector<double>& /*params*/) {
    return Status::Unimplemented("model does not support parameter loading");
  }
  virtual bool SupportsParameterAveraging() const { return false; }

  /// Checks that a fitted (possibly deserialized) model can predict rows of
  /// `n_cols` features. Predict itself trusts its caller — a model decoded
  /// from the wire or from disk can claim any width, so every boundary that
  /// pairs an untrusted model with local feature rows must call this first
  /// (linear models need the exact width; trees need every split's feature
  /// index in range, else PredictRow reads out of bounds).
  virtual Status ValidateFeatureWidth(size_t /*n_cols*/) const {
    return Status::OK();
  }

  /// Deep copy (unfitted state need not be preserved; fitted state must be).
  virtual std::unique_ptr<Regressor> Clone() const = 0;
};

/// Base interface for classifiers (used by the meta-model, Table 4).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits on integer labels in [0, n_classes).
  virtual Status Fit(const Matrix& x, const std::vector<int>& y, int n_classes,
                     Rng* rng) = 0;

  /// Per-class probabilities, one row per input row.
  virtual Matrix PredictProba(const Matrix& x) const = 0;

  /// Argmax labels (derived from PredictProba by default).
  virtual std::vector<int> Predict(const Matrix& x) const;

  virtual std::string Name() const = 0;
  virtual std::unique_ptr<Classifier> Clone() const = 0;

 protected:
  int n_classes_ = 0;

 public:
  [[nodiscard]] int n_classes() const { return n_classes_; }
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_MODEL_H_
