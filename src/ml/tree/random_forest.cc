#include "ml/tree/random_forest.h"

#include "core/vec_math.h"

namespace fedfc::ml {

namespace {

void NormalizeImportances(std::vector<double>* imp) {
  double total = Sum(*imp);
  if (total > 0.0) {
    for (double& v : *imp) v /= total;
  }
}

}  // namespace

Status RandomForestRegressor::Fit(const Matrix& x, const std::vector<double>& y,
                                  Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("RandomForest: rng required");
  if (config_.n_trees == 0) {
    return Status::InvalidArgument("RandomForest: need at least one tree");
  }
  FEDFC_ASSIGN_OR_RETURN(tree_internal::SortedColumns sorted,
                         tree_internal::SortedColumns::Build(x, "RandomForest"));
  trees_.clear();
  importances_.assign(x.cols(), 0.0);
  for (size_t t = 0; t < config_.n_trees; ++t) {
    DecisionTree tree(DecisionTree::Task::kRegression, config_.tree);
    std::vector<size_t> idx;
    if (config_.bootstrap) idx = rng->Bootstrap(x.rows());
    FEDFC_RETURN_IF_ERROR(tree.Fit(sorted, y, {}, 0, idx, rng));
    Axpy(1.0, tree.feature_importances(), &importances_);
    trees_.push_back(std::move(tree));
  }
  NormalizeImportances(&importances_);
  return Status::OK();
}

std::vector<double> RandomForestRegressor::Predict(const Matrix& x) const {
  FEDFC_CHECK(!trees_.empty()) << "Predict before Fit";
  std::vector<double> out(x.rows(), 0.0);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) out[r] += tree.PredictRow(x.Row(r));
  }
  double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& v : out) v *= inv;
  return out;
}

Status RandomForestClassifier::Fit(const Matrix& x, const std::vector<int>& y,
                                   int n_classes, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("RandomForest: rng required");
  if (config_.n_trees == 0) {
    return Status::InvalidArgument("RandomForest: need at least one tree");
  }
  FEDFC_ASSIGN_OR_RETURN(tree_internal::SortedColumns sorted,
                         tree_internal::SortedColumns::Build(x, "RandomForest"));
  n_classes_ = n_classes;
  trees_.clear();
  importances_.assign(x.cols(), 0.0);
  for (size_t t = 0; t < config_.n_trees; ++t) {
    DecisionTree tree(DecisionTree::Task::kClassification, config_.tree);
    std::vector<size_t> idx;
    if (config_.bootstrap) idx = rng->Bootstrap(x.rows());
    FEDFC_RETURN_IF_ERROR(tree.Fit(sorted, {}, y, n_classes, idx, rng));
    Axpy(1.0, tree.feature_importances(), &importances_);
    trees_.push_back(std::move(tree));
  }
  NormalizeImportances(&importances_);
  return Status::OK();
}

Matrix RandomForestClassifier::PredictProba(const Matrix& x) const {
  FEDFC_CHECK(!trees_.empty()) << "PredictProba before Fit";
  const size_t num_classes = static_cast<size_t>(n_classes_);
  Matrix out(x.rows(), num_classes, 0.0);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) {
      const std::vector<double>& dist = tree.PredictDistRow(x.Row(r));
      double* row = out.Row(r);
      for (size_t c = 0; c < num_classes; ++c) row[c] += dist[c];
    }
  }
  double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& v : out.data()) v *= inv;
  return out;
}

}  // namespace fedfc::ml
