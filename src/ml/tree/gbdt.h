#ifndef FEDFC_ML_TREE_GBDT_H_
#define FEDFC_ML_TREE_GBDT_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "ml/tree/gbdt_tree.h"

namespace fedfc::ml {

/// Gradient-boosted tree ensemble configuration, matching the Table 2
/// XGBRegressor hyperparameters.
struct GbdtConfig {
  size_t n_estimators = 20;
  int max_depth = 4;
  double learning_rate = 0.1;
  double reg_lambda = 1.0;
  double subsample = 1.0;       ///< Row subsampling fraction per tree.
  size_t min_samples_leaf = 1;
  /// true: XGBoost-style second-order boosting; false: classic first-order
  /// gradient boosting (unit hessian) — the Table 4 "Gradient Boosting"
  /// candidate.
  bool use_hessian = true;
};

/// XGBoost-style regressor on the squared loss (g = pred - y, h = 1).
class GbdtRegressor : public Regressor {
 public:
  GbdtRegressor() = default;
  explicit GbdtRegressor(GbdtConfig config) : config_(config) {}

  Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) override;
  std::vector<double> Predict(const Matrix& x) const override;

  std::string Name() const override { return "XGBRegressor"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<GbdtRegressor>(*this);
  }

  [[nodiscard]] const GbdtConfig& config() const { return config_; }
  [[nodiscard]] size_t n_trees() const { return trees_.size(); }

  /// Full fitted-model encoding (base score + every tree) for FL transfer.
  /// This is NOT averageable (SupportsParameterAveraging stays false); the
  /// server reconstructs per-client models and ensembles them.
  [[nodiscard]] std::vector<double> SerializeModel() const;
  Status DeserializeModel(const std::vector<double>& data);

  /// Weighted federated merge (Algorithm 1, line 27) into a default-
  /// constructed regressor. `Merge` appends one client model's trees with
  /// every node weight scaled by `weight` times the client's learning rate,
  /// and adds `weight` times its base score. `FinishMerge` divides both by
  /// the weight total and sets the learning rate to 1, so the merged model
  /// predicts the weighted mean of the clients' predictions.
  void Merge(double weight, const GbdtRegressor& client);
  void FinishMerge(double total_weight);

  /// A deserialized tree's split features index prediction rows directly;
  /// an index at or past the row width is an out-of-bounds read. Typed
  /// check for the untrusted-model boundaries (see Regressor).
  Status ValidateFeatureWidth(size_t n_cols) const override;

 private:
  GbdtConfig config_;
  double base_score_ = 0.0;
  std::vector<gbdt_internal::GbdtTree> trees_;
};

namespace gbdt_internal {

/// The softmax boosting loop shared by the Table 4 boosters: each round
/// fits one tree per class to the softmax gradients of the running scores.
/// Subclasses differ only in their config and in which GbdtTree grower
/// fills each tree.
class SoftmaxBooster : public Classifier {
 public:
  Status Fit(const Matrix& x, const std::vector<int>& y, int n_classes,
             Rng* rng) final;
  Matrix PredictProba(const Matrix& x) const final;

 protected:
  enum class Grower { kDepthWise, kLeafWise, kOblivious };
  /// A subclass's config mapped onto the shared loop.
  struct Plan {
    Grower grower = Grower::kDepthWise;
    GbdtTreeConfig tree;
    size_t n_estimators = 0;
    double learning_rate = 0.1;
    double subsample = 1.0;   ///< Row fraction per round (1 = all rows).
    bool use_hessian = true;  ///< false: unit hessian (first-order).
    int max_leaves = 0;       ///< Leaf-wise grower only.
    int max_bins = 0;         ///< Histogram growers only.
  };
  [[nodiscard]] virtual Plan plan() const = 0;

 private:
  // trees_[round * n_classes + k].
  std::vector<GbdtTree> trees_;
};

}  // namespace gbdt_internal

/// Multiclass exact-greedy booster. `use_hessian` toggles between the
/// XGBClassifier and classic GradientBoosting candidates of Table 4.
class GbdtClassifier : public gbdt_internal::SoftmaxBooster {
 public:
  GbdtClassifier() = default;
  explicit GbdtClassifier(GbdtConfig config) : config_(config) {}

  std::string Name() const override {
    return config_.use_hessian ? "XGBClassifier" : "GradientBoostingClassifier";
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GbdtClassifier>(*this);
  }

  [[nodiscard]] const GbdtConfig& config() const { return config_; }

 protected:
  Plan plan() const override;

 private:
  GbdtConfig config_;
};

/// LightGBM-style classifier: histogram split finding on quantile bins with
/// leaf-wise (best-first) tree growth bounded by `max_leaves`. One of the
/// Table 4 meta-model candidates.
class HistGbdtClassifier : public gbdt_internal::SoftmaxBooster {
 public:
  struct Config {
    size_t n_estimators = 20;
    int max_leaves = 15;
    int max_bins = 32;
    double learning_rate = 0.1;
    double reg_lambda = 1.0;
    size_t min_samples_leaf = 2;
  };

  HistGbdtClassifier() = default;
  explicit HistGbdtClassifier(Config config) : config_(config) {}

  std::string Name() const override { return "LightGBMClassifier"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<HistGbdtClassifier>(*this);
  }

  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Plan plan() const override;

 private:
  Config config_;
};

/// CatBoost-style classifier on oblivious (symmetric) trees: every level of
/// a tree applies the same (feature, threshold) split to all of its nodes.
/// One of the Table 4 meta-model candidates.
class ObliviousGbdtClassifier : public gbdt_internal::SoftmaxBooster {
 public:
  struct Config {
    size_t n_estimators = 20;
    int depth = 4;
    int max_bins = 32;
    double learning_rate = 0.1;
    double reg_lambda = 1.0;
  };

  ObliviousGbdtClassifier() = default;
  explicit ObliviousGbdtClassifier(Config config) : config_(config) {}

  std::string Name() const override { return "CatBoostClassifier"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<ObliviousGbdtClassifier>(*this);
  }

  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Plan plan() const override;

 private:
  Config config_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_TREE_GBDT_H_
