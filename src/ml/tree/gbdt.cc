#include "ml/tree/gbdt.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/checked.h"
#include "core/vec_math.h"

namespace fedfc::ml {

namespace {

std::vector<size_t> SubsampleRows(size_t n, double fraction, Rng* rng) {
  if (fraction >= 1.0 || rng == nullptr) return {};
  size_t k = std::max<size_t>(
      2, static_cast<size_t>(fraction * static_cast<double>(n)));
  k = std::min(k, n);
  return rng->Sample(n, k);
}

gbdt_internal::GbdtTreeConfig TreeConfigFrom(const GbdtConfig& c) {
  gbdt_internal::GbdtTreeConfig tc;
  tc.max_depth = c.max_depth;
  tc.reg_lambda = c.reg_lambda;
  tc.min_samples_leaf = c.min_samples_leaf;
  return tc;
}

}  // namespace

Status GbdtRegressor::Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("GbdtRegressor: bad shapes");
  }
  if (config_.n_estimators == 0 || config_.subsample <= 0.0 ||
      config_.subsample > 1.0 || config_.learning_rate <= 0.0) {
    return Status::InvalidArgument("GbdtRegressor: invalid config");
  }
  // Sorted once: x is the same for every round.
  FEDFC_ASSIGN_OR_RETURN(tree_internal::SortedColumns sorted,
                         tree_internal::SortedColumns::Build(x, "GbdtRegressor"));
  trees_.clear();
  base_score_ = Mean(y);
  const size_t n = x.rows();
  std::vector<double> pred(n, base_score_);
  std::vector<double> g(n), h(n, 1.0);
  gbdt_internal::GbdtTreeConfig tc = TreeConfigFrom(config_);

  for (size_t round = 0; round < config_.n_estimators; ++round) {
    for (size_t i = 0; i < n; ++i) g[i] = pred[i] - y[i];
    std::vector<size_t> rows = SubsampleRows(n, config_.subsample, rng);
    gbdt_internal::GbdtTree tree;
    tree.Fit(sorted, g, h, rows, tc);
    for (size_t i = 0; i < n; ++i) {
      pred[i] += config_.learning_rate * tree.PredictRow(x.Row(i));
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> GbdtRegressor::Predict(const Matrix& x) const {
  FEDFC_CHECK(!trees_.empty()) << "Predict before Fit";
  std::vector<double> out(x.rows(), base_score_);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) {
      out[r] += config_.learning_rate * tree.PredictRow(x.Row(r));
    }
  }
  return out;
}

std::vector<double> GbdtRegressor::SerializeModel() const {
  std::vector<double> out;
  out.push_back(base_score_);
  out.push_back(config_.learning_rate);
  out.push_back(static_cast<double>(trees_.size()));
  for (const auto& tree : trees_) tree.AppendTo(&out);
  return out;
}

Status GbdtRegressor::ValidateFeatureWidth(size_t n_cols) const {
  for (const auto& tree : trees_) {
    const int max_feature = tree.MaxFeature();
    if (max_feature >= 0 && static_cast<size_t>(max_feature) >= n_cols) {
      return Status::InvalidArgument(
          "GBDT model splits on feature " + std::to_string(max_feature) +
          " but rows have only " + std::to_string(n_cols) +
          " columns (mismatched or corrupt model)");
    }
  }
  return Status::OK();
}

Status GbdtRegressor::DeserializeModel(const std::vector<double>& data) {
  if (data.size() < 3) return Status::InvalidArgument("GbdtRegressor: short blob");
  if (!std::isfinite(data[0]) || !std::isfinite(data[1])) {
    return Status::InvalidArgument(
        "GbdtRegressor: non-finite base score or learning rate");
  }
  // Each tree is at least 1 double (its node count), so the remaining span
  // bounds the tree count; checked before the cast and before any push_back.
  FEDFC_ASSIGN_OR_RETURN(
      size_t n_trees,
      CheckedCount(data[2], data.size() - 3, "GbdtRegressor tree count"));
  // A fitted model always has at least one tree; accepting an empty one
  // would let a hostile blob through to Predict's !trees_.empty() CHECK —
  // an abort an attacker could trigger remotely.
  if (n_trees == 0) {
    return Status::InvalidArgument("GbdtRegressor: blob encodes no trees");
  }
  size_t offset = 0;
  base_score_ = data[offset++];
  config_.learning_rate = data[offset++];
  ++offset;  // Tree count, decoded above.
  trees_.clear();
  for (size_t t = 0; t < n_trees; ++t) {
    FEDFC_ASSIGN_OR_RETURN(gbdt_internal::GbdtTree tree,
                           gbdt_internal::GbdtTree::FromSpan(data, &offset));
    trees_.push_back(std::move(tree));
  }
  if (offset != data.size()) {
    return Status::InvalidArgument("GbdtRegressor: trailing bytes in blob");
  }
  return Status::OK();
}

void GbdtRegressor::Merge(double weight, const GbdtRegressor& client) {
  base_score_ += weight * client.base_score_;
  const double lr = client.config_.learning_rate;
  for (gbdt_internal::GbdtTree tree : client.trees_) {
    tree.MapWeights([&](double w) { return w * weight * lr; });
    trees_.push_back(std::move(tree));
  }
}

void GbdtRegressor::FinishMerge(double total_weight) {
  base_score_ /= total_weight;
  config_.learning_rate = 1.0;
  for (gbdt_internal::GbdtTree& tree : trees_) {
    tree.MapWeights([&](double w) { return w / total_weight; });
  }
}

namespace gbdt_internal {

Status SoftmaxBooster::Fit(const Matrix& x, const std::vector<int>& y,
                           int n_classes, Rng* rng) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument(Name() + ": bad shapes");
  }
  if (n_classes < 2) {
    return Status::InvalidArgument(Name() + ": need >= 2 classes");
  }
  const Plan cfg = plan();
  if (cfg.n_estimators == 0) {
    return Status::InvalidArgument(Name() + ": n_estimators must be positive");
  }
  // The depth-wise grower scans columns sorted once per fit; the others
  // scan quantile bins. Both order feature values, so both need finite x.
  const std::string who = Name();
  tree_internal::SortedColumns sorted;
  BinnedMatrix binned;
  if (cfg.grower == Grower::kDepthWise) {
    FEDFC_ASSIGN_OR_RETURN(sorted, tree_internal::SortedColumns::Build(x, who.c_str()));
  } else {
    FEDFC_RETURN_IF_ERROR(tree_internal::RequireFinite(x, who.c_str()));
    binned = BinnedMatrix::Build(x, cfg.max_bins);
  }
  n_classes_ = n_classes;
  trees_.clear();
  const size_t n = x.rows();
  const size_t k = static_cast<size_t>(n_classes);
  Matrix scores(n, k, 0.0);
  std::vector<double> g(n), h(n);

  for (size_t round = 0; round < cfg.n_estimators; ++round) {
    std::vector<size_t> rows = SubsampleRows(n, cfg.subsample, rng);
    // Shared softmax per row for this round.
    Matrix proba(n, k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> logits(scores.Row(i), scores.Row(i) + k);
      std::vector<double> p = Softmax(logits);
      for (size_t c = 0; c < k; ++c) proba(i, c) = p[c];
    }
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < n; ++i) {
        double p = proba(i, c);
        g[i] = p - (y[i] == static_cast<int>(c) ? 1.0 : 0.0);
        h[i] = cfg.use_hessian ? std::max(p * (1.0 - p), 1e-6) : 1.0;
      }
      GbdtTree tree;
      switch (cfg.grower) {
        case Grower::kDepthWise:
          tree.Fit(sorted, g, h, rows, cfg.tree);
          break;
        case Grower::kLeafWise:
          tree.FitLeafWise(binned, g, h, cfg.max_leaves, cfg.tree);
          break;
        case Grower::kOblivious:
          tree.FitOblivious(binned, g, h, cfg.tree);
          break;
      }
      for (size_t i = 0; i < n; ++i) {
        scores(i, c) += cfg.learning_rate * tree.PredictRow(x.Row(i));
      }
      trees_.push_back(std::move(tree));
    }
  }
  return Status::OK();
}

Matrix SoftmaxBooster::PredictProba(const Matrix& x) const {
  FEDFC_CHECK(!trees_.empty()) << "PredictProba before Fit";
  const double learning_rate = plan().learning_rate;
  const size_t k = static_cast<size_t>(n_classes_);
  Matrix out(x.rows(), k, 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    std::vector<double> logits(k, 0.0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      logits[t % k] += learning_rate * trees_[t].PredictRow(row);
    }
    std::vector<double> p = Softmax(logits);
    for (size_t c = 0; c < k; ++c) out(r, c) = p[c];
  }
  return out;
}

}  // namespace gbdt_internal

GbdtClassifier::Plan GbdtClassifier::plan() const {
  return {.tree = TreeConfigFrom(config_),
          .n_estimators = config_.n_estimators,
          .learning_rate = config_.learning_rate,
          .subsample = config_.subsample,
          .use_hessian = config_.use_hessian};
}

HistGbdtClassifier::Plan HistGbdtClassifier::plan() const {
  return {.grower = Grower::kLeafWise,
          .tree = {.reg_lambda = config_.reg_lambda,
                   .min_samples_leaf = config_.min_samples_leaf},
          .n_estimators = config_.n_estimators,
          .learning_rate = config_.learning_rate,
          .max_leaves = config_.max_leaves,
          .max_bins = config_.max_bins};
}

ObliviousGbdtClassifier::Plan ObliviousGbdtClassifier::plan() const {
  return {.grower = Grower::kOblivious,
          .tree = {.max_depth = config_.depth, .reg_lambda = config_.reg_lambda},
          .n_estimators = config_.n_estimators,
          .learning_rate = config_.learning_rate,
          .max_bins = config_.max_bins};
}

}  // namespace fedfc::ml
