#ifndef FEDFC_ML_TREE_RANDOM_FOREST_H_
#define FEDFC_ML_TREE_RANDOM_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "ml/tree/decision_tree.h"

namespace fedfc::ml {

/// Shared configuration for bagged tree ensembles.
struct ForestConfig {
  size_t n_trees = 100;
  TreeConfig tree;
  bool bootstrap = true;
  /// Extra-Trees: no bootstrap, random thresholds.
  static ForestConfig ExtraTrees(size_t n_trees = 100) {
    ForestConfig c;
    c.n_trees = n_trees;
    c.bootstrap = false;
    c.tree.random_thresholds = true;
    return c;
  }
};

/// Bagged CART regressor; also provides the normalized impurity-based
/// feature importances the feature-selection stage aggregates (Section 4.2.2).
class RandomForestRegressor : public Regressor {
 public:
  RandomForestRegressor() { config_.tree.max_features_fraction = 0.7; }
  explicit RandomForestRegressor(ForestConfig config) : config_(config) {}

  Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) override;
  std::vector<double> Predict(const Matrix& x) const override;

  std::string Name() const override {
    return config_.tree.random_thresholds ? "ExtraTreesRegressor"
                                          : "RandomForestRegressor";
  }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<RandomForestRegressor>(*this);
  }

  /// Importances normalized to sum to 1 (all-zero when no splits happened).
  [[nodiscard]] const std::vector<double>& feature_importances() const { return importances_; }
  [[nodiscard]] const ForestConfig& config() const { return config_; }

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
};

/// Bagged CART classifier with probability output (vote shares). The
/// meta-model the paper finally selects (Table 4: Random Forest) and the
/// Extra Trees candidate (via ForestConfig::ExtraTrees).
class RandomForestClassifier : public Classifier {
 public:
  RandomForestClassifier() { config_.tree.max_features_fraction = 0.5; }
  explicit RandomForestClassifier(ForestConfig config) : config_(config) {}

  Status Fit(const Matrix& x, const std::vector<int>& y, int n_classes,
             Rng* rng) override;
  Matrix PredictProba(const Matrix& x) const override;

  std::string Name() const override {
    return config_.tree.random_thresholds ? "ExtraTreesClassifier"
                                          : "RandomForestClassifier";
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RandomForestClassifier>(*this);
  }

  [[nodiscard]] const std::vector<double>& feature_importances() const { return importances_; }
  [[nodiscard]] const ForestConfig& config() const { return config_; }

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_TREE_RANDOM_FOREST_H_
