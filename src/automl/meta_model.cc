#include "automl/meta_model.h"

#include <algorithm>
#include <numeric>

#include "core/vec_math.h"
#include "ml/linear/logistic.h"
#include "ml/metrics.h"
#include "ml/nn/mlp.h"
#include "ml/tree/gbdt.h"
#include "ml/tree/random_forest.h"

namespace fedfc::automl {

namespace {

/// Builds (X, y) from a knowledge base; labels are AlgorithmId indices,
/// which keeps class indices stable even when some algorithm never wins.
Status ToTrainingData(const KnowledgeBase& kb, Matrix* x, std::vector<int>* y) {
  if (kb.size() == 0) return Status::InvalidArgument("empty knowledge base");
  size_t d = kb.records().front().meta_features.size();
  *x = Matrix(kb.size(), d);
  y->resize(kb.size());
  for (size_t i = 0; i < kb.size(); ++i) {
    const KnowledgeBaseRecord& r = kb.records()[i];
    if (r.meta_features.size() != d) {
      return Status::InvalidArgument("inconsistent meta-feature width in kb");
    }
    for (size_t j = 0; j < d; ++j) (*x)(i, j) = r.meta_features[j];
    (*y)[i] = r.best_algorithm;
  }
  return Status::OK();
}

}  // namespace

MetaModel::MetaModel(std::unique_ptr<ml::Classifier> classifier)
    : classifier_(std::move(classifier)) {
  FEDFC_CHECK(classifier_ != nullptr);
}

MetaModel::MetaModel(const MetaModel& other)
    : classifier_(other.classifier_->Clone()),
      trained_(other.trained_),
      n_features_(other.n_features_),
      records_(other.records_),
      feature_means_(other.feature_means_),
      feature_scales_(other.feature_scales_) {}

MetaModel& MetaModel::operator=(const MetaModel& other) {
  if (this == &other) return *this;
  classifier_ = other.classifier_->Clone();
  trained_ = other.trained_;
  n_features_ = other.n_features_;
  records_ = other.records_;
  feature_means_ = other.feature_means_;
  feature_scales_ = other.feature_scales_;
  return *this;
}

Status MetaModel::Train(const KnowledgeBase& kb, Rng* rng) {
  Matrix x;
  std::vector<int> y;
  FEDFC_RETURN_IF_ERROR(ToTrainingData(kb, &x, &y));
  n_features_ = x.cols();
  FEDFC_RETURN_IF_ERROR(
      classifier_->Fit(x, y, static_cast<int>(kNumAlgorithms), rng));
  // Retain the records and their normalization for kNN warm starts.
  records_ = kb.records();
  feature_means_.assign(n_features_, 0.0);
  feature_scales_.assign(n_features_, 1.0);
  for (size_t j = 0; j < n_features_; ++j) {
    std::vector<double> col = x.Column(j);
    feature_means_[j] = Mean(col);
    double sd = StdDev(col);
    feature_scales_[j] = sd > 1e-12 ? sd : 1.0;
  }
  trained_ = true;
  return Status::OK();
}

Result<std::vector<Configuration>> MetaModel::WarmStartConfigurations(
    const std::vector<double>& aggregated_meta_features,
    const std::vector<AlgorithmId>& algorithms, size_t n_configs) const {
  if (!trained_) return Status::FailedPrecondition("meta-model not trained");
  if (aggregated_meta_features.size() != n_features_) {
    return Status::InvalidArgument("meta-feature width mismatch");
  }
  // z-normalized Euclidean distance to every KB dataset.
  std::vector<double> dist(records_.size(), 0.0);
  for (size_t r = 0; r < records_.size(); ++r) {
    double acc = 0.0;
    for (size_t j = 0; j < n_features_; ++j) {
      double a = (aggregated_meta_features[j] - feature_means_[j]) /
                 feature_scales_[j];
      double b = (records_[r].meta_features[j] - feature_means_[j]) /
                 feature_scales_[j];
      acc += (a - b) * (a - b);
    }
    dist[r] = acc;
  }
  std::vector<size_t> order = ArgsortAscending(dist);

  std::vector<Configuration> out;
  std::vector<std::vector<double>> seen;
  for (size_t idx : order) {
    if (out.size() >= n_configs) break;
    const KnowledgeBaseRecord& record = records_[idx];
    // Take the neighbour's winner for its own best algorithm first, then any
    // recommended algorithm it has a config for.
    std::vector<size_t> candidates;
    if (record.best_algorithm >= 0 &&
        static_cast<size_t>(record.best_algorithm) < record.best_configs.size()) {
      candidates.push_back(static_cast<size_t>(record.best_algorithm));
    }
    for (AlgorithmId id : algorithms) {
      candidates.push_back(static_cast<size_t>(id));
    }
    for (size_t ai : candidates) {
      if (out.size() >= n_configs) break;
      if (ai >= record.best_configs.size()) continue;
      const std::vector<double>& tensor = record.best_configs[ai];
      if (tensor.empty()) continue;
      bool allowed = false;
      for (AlgorithmId id : algorithms) {
        if (static_cast<size_t>(id) == ai) allowed = true;
      }
      if (!allowed) continue;
      bool duplicate = false;
      for (const auto& s : seen) {
        if (s == tensor) duplicate = true;
      }
      if (duplicate) continue;
      Result<Configuration> config = Configuration::FromTensor(tensor);
      if (!config.ok()) continue;
      seen.push_back(tensor);
      out.push_back(std::move(*config));
    }
  }
  return out;
}

Result<std::vector<AlgorithmId>> MetaModel::Recommend(
    const std::vector<double>& aggregated_meta_features, int top_k) const {
  if (!trained_) return Status::FailedPrecondition("meta-model not trained");
  if (aggregated_meta_features.size() != n_features_) {
    return Status::InvalidArgument("meta-feature width mismatch");
  }
  Matrix x(1, n_features_);
  for (size_t j = 0; j < n_features_; ++j) x(0, j) = aggregated_meta_features[j];
  Matrix proba = classifier_->PredictProba(x);
  std::vector<double> row(proba.Row(0), proba.Row(0) + proba.cols());
  std::vector<size_t> order = ArgsortDescending(row);
  std::vector<AlgorithmId> out;
  for (size_t i = 0; i < order.size() && static_cast<int>(out.size()) < top_k; ++i) {
    FEDFC_ASSIGN_OR_RETURN(AlgorithmId id,
                           AlgorithmFromIndex(static_cast<int>(order[i])));
    out.push_back(id);
  }
  return out;
}

Result<MetaModelEvaluation> EvaluateMetaModelCandidate(
    const ClassifierFactory& factory, const KnowledgeBase& kb, int top_k,
    Rng* rng) {
  if (kb.size() < 5) {
    return Status::InvalidArgument("knowledge base too small to evaluate");
  }
  Matrix x;
  std::vector<int> y;
  FEDFC_RETURN_IF_ERROR(ToTrainingData(kb, &x, &y));

  // Shuffled 80/20 split (Section 5.3).
  std::vector<size_t> order(kb.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t n_train = kb.size() * 4 / 5;
  const auto split_at = static_cast<std::ptrdiff_t>(n_train);
  std::vector<size_t> train_idx(order.begin(), order.begin() + split_at);
  std::vector<size_t> valid_idx(order.begin() + split_at, order.end());
  if (valid_idx.empty()) return Status::InvalidArgument("empty validation split");

  Matrix x_train = x.SelectRows(train_idx);
  Matrix x_valid = x.SelectRows(valid_idx);
  std::vector<int> y_train, y_valid;
  for (size_t i : train_idx) y_train.push_back(y[i]);
  for (size_t i : valid_idx) y_valid.push_back(y[i]);

  std::unique_ptr<ml::Classifier> clf = factory();
  MetaModelEvaluation eval;
  eval.model_name = clf->Name();
  FEDFC_RETURN_IF_ERROR(
      clf->Fit(x_train, y_train, static_cast<int>(kNumAlgorithms), rng));
  Matrix proba = clf->PredictProba(x_valid);
  eval.mrr_at_k = ml::MeanReciprocalRankAtK(y_valid, proba, top_k);
  std::vector<int> pred = clf->Predict(x_valid);
  eval.f1 = ml::MacroF1(y_valid, pred, static_cast<int>(kNumAlgorithms));
  return eval;
}

std::vector<std::pair<std::string, ClassifierFactory>> MetaModelCandidates() {
  std::vector<std::pair<std::string, ClassifierFactory>> out;
  out.emplace_back("XGBClassifier", [] {
    ml::GbdtConfig c;
    c.n_estimators = 25;
    c.max_depth = 3;
    c.learning_rate = 0.15;
    c.use_hessian = true;
    return std::unique_ptr<ml::Classifier>(std::make_unique<ml::GbdtClassifier>(c));
  });
  out.emplace_back("Logistic Regression", [] {
    return std::unique_ptr<ml::Classifier>(
        std::make_unique<ml::LogisticRegressionClassifier>());
  });
  out.emplace_back("Gradient Boosting", [] {
    ml::GbdtConfig c;
    c.n_estimators = 25;
    c.max_depth = 3;
    c.learning_rate = 0.15;
    c.use_hessian = false;
    return std::unique_ptr<ml::Classifier>(std::make_unique<ml::GbdtClassifier>(c));
  });
  out.emplace_back("Random Forest", [] {
    ml::ForestConfig c;
    c.n_trees = 120;
    c.tree.max_depth = 10;
    c.tree.max_features_fraction = 0.5;
    return std::unique_ptr<ml::Classifier>(
        std::make_unique<ml::RandomForestClassifier>(c));
  });
  out.emplace_back("CatBoost", [] {
    ml::ObliviousGbdtClassifier::Config c;
    c.n_estimators = 25;
    c.depth = 4;
    return std::unique_ptr<ml::Classifier>(
        std::make_unique<ml::ObliviousGbdtClassifier>(c));
  });
  out.emplace_back("LightGBM", [] {
    ml::HistGbdtClassifier::Config c;
    c.n_estimators = 25;
    c.max_leaves = 15;
    return std::unique_ptr<ml::Classifier>(
        std::make_unique<ml::HistGbdtClassifier>(c));
  });
  out.emplace_back("Extra Trees", [] {
    ml::ForestConfig c = ml::ForestConfig::ExtraTrees(120);
    c.tree.max_depth = 10;
    c.tree.max_features_fraction = 0.5;
    return std::unique_ptr<ml::Classifier>(
        std::make_unique<ml::RandomForestClassifier>(c));
  });
  out.emplace_back("MLPClassifier", [] {
    ml::MlpClassifier::Config c;
    c.hidden = {32};
    c.epochs = 80;
    return std::unique_ptr<ml::Classifier>(std::make_unique<ml::MlpClassifier>(c));
  });
  return out;
}

}  // namespace fedfc::automl
