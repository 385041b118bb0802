#include "ml/tree/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/logging.h"

namespace fedfc::ml {

struct DecisionTree::BuildContext {
  tree_internal::ColumnBlocks* blocks = nullptr;
  const std::vector<double>* y_reg = nullptr;
  const std::vector<int>* y_cls = nullptr;
  Rng* rng = nullptr;
  std::vector<size_t> all_features;
  size_t n_features_per_split = 0;
  bool random_thresholds = false;
};

namespace {

/// Extra-Trees split: one uniform threshold between the node's min and max
/// per candidate feature, scored with the node statistic. Sorts nothing;
/// rows are visited in draw order, so every sum keeps its order.
template <typename Stat>
tree_internal::ExactSplit RandomThresholdSplit(const Matrix& x, const uint32_t* rows,
                                               size_t n,
                                               const std::vector<size_t>& features,
                                               size_t min_leaf, Rng* rng, Stat* stat) {
  tree_internal::ExactSplit best;
  best.gain = 1e-12;
  for (size_t f : features) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const double v = x(rows[i], f);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi <= lo) continue;
    const double thr = rng->Uniform(lo, hi);
    stat->ResetLeft();
    size_t n_left = 0;
    for (size_t i = 0; i < n; ++i) {
      if (x(rows[i], f) <= thr) {
        stat->AddLeft(rows[i]);
        ++n_left;
      }
    }
    const size_t n_right = n - n_left;
    if (n_left < min_leaf || n_right < min_leaf) continue;
    const double gain = stat->Gain(n_left, n_right);
    if (gain > best.gain) {
      best.gain = gain;
      best.feature = static_cast<int>(f);
      best.threshold = thr;
    }
  }
  return best;
}

}  // namespace

Status DecisionTree::Fit(const Matrix& x, const std::vector<double>& y_reg,
                         const std::vector<int>& y_cls, int n_classes,
                         const std::vector<size_t>& sample_indices, Rng* rng) {
  FEDFC_ASSIGN_OR_RETURN(tree_internal::SortedColumns sorted,
                         tree_internal::SortedColumns::Build(x, "DecisionTree"));
  return Fit(sorted, y_reg, y_cls, n_classes, sample_indices, rng);
}

Status DecisionTree::Fit(const tree_internal::SortedColumns& sorted,
                         const std::vector<double>& y_reg,
                         const std::vector<int>& y_cls, int n_classes,
                         const std::vector<size_t>& sample_indices, Rng* rng) {
  const Matrix& x = sorted.x();
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("DecisionTree: empty design matrix");
  }
  if (task_ == Task::kRegression && y_reg.size() != x.rows()) {
    return Status::InvalidArgument("DecisionTree: rows(X) != len(y)");
  }
  if (task_ == Task::kClassification) {
    if (y_cls.size() != x.rows() || n_classes < 2) {
      return Status::InvalidArgument("DecisionTree: bad classification labels");
    }
  }
  for (size_t i : sample_indices) {
    if (i >= x.rows()) return Status::InvalidArgument("DecisionTree: sample row out of range");
  }
  nodes_.clear();
  importances_.assign(x.cols(), 0.0);
  n_classes_ = n_classes;

  BuildContext ctx;
  ctx.y_reg = &y_reg;
  ctx.y_cls = &y_cls;
  ctx.rng = rng;
  ctx.all_features.resize(x.cols());
  std::iota(ctx.all_features.begin(), ctx.all_features.end(), 0);
  size_t k = static_cast<size_t>(
      std::ceil(config_.max_features_fraction * static_cast<double>(x.cols())));
  ctx.n_features_per_split = std::max<size_t>(1, std::min(k, x.cols()));
  ctx.random_thresholds = config_.random_thresholds && rng != nullptr;
  tree_internal::ColumnBlocks blocks(sorted, sample_indices, !ctx.random_thresholds);
  ctx.blocks = &blocks;
  if (task_ == Task::kRegression) {
    tree_internal::VarianceStat stat(y_reg);
    Build(&ctx, &stat, 0, blocks.size(), 0);
  } else {
    tree_internal::GiniStat stat(y_cls, static_cast<size_t>(n_classes));
    Build(&ctx, &stat, 0, blocks.size(), 0);
  }
  return Status::OK();
}

int32_t DecisionTree::MakeLeaf(const BuildContext& ctx, size_t lo, size_t n) {
  const uint32_t* rows = ctx.blocks->draw(lo);
  Node leaf;
  if (task_ == Task::kRegression) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += (*ctx.y_reg)[rows[i]];
    leaf.value = n == 0 ? 0.0 : sum / static_cast<double>(n);
  } else {
    leaf.dist.assign(static_cast<size_t>(n_classes_), 0.0);
    for (size_t i = 0; i < n; ++i) {
      leaf.dist[static_cast<size_t>((*ctx.y_cls)[rows[i]])] += 1.0;
    }
    double total = static_cast<double>(n);
    if (total > 0.0) {
      for (double& d : leaf.dist) d /= total;
    } else {
      for (double& d : leaf.dist) d = 1.0 / static_cast<double>(n_classes_);
    }
  }
  nodes_.push_back(std::move(leaf));
  return static_cast<int32_t>(nodes_.size() - 1);
}

template <typename Stat>
int32_t DecisionTree::Build(BuildContext* ctx, Stat* stat, size_t lo, size_t n,
                            int depth) {
  const uint32_t* rows = ctx->blocks->draw(lo);
  const bool stop = n == 0 || depth >= config_.max_depth ||
                    n < config_.min_samples_split ||
                    n < 2 * config_.min_samples_leaf || stat->Pure(rows, n);
  if (stop) return MakeLeaf(*ctx, lo, n);

  // Candidate feature subset.
  std::vector<size_t> sampled;
  if (ctx->n_features_per_split < ctx->all_features.size() && ctx->rng != nullptr) {
    sampled = ctx->rng->Sample(ctx->all_features.size(), ctx->n_features_per_split);
  }
  const std::vector<size_t>& features = sampled.empty() ? ctx->all_features : sampled;

  stat->Begin(rows, n);
  const tree_internal::ExactSplit best =
      ctx->random_thresholds
          ? RandomThresholdSplit(ctx->blocks->x(), rows, n, features,
                                 config_.min_samples_leaf, ctx->rng, stat)
          : tree_internal::FindBestExactSplit(*ctx->blocks, lo, n, features,
                                              config_.min_samples_leaf, 1e-12, stat);
  if (best.feature < 0) return MakeLeaf(*ctx, lo, n);

  importances_[static_cast<size_t>(best.feature)] += best.gain * static_cast<double>(n);
  // A child is split again only below max_depth and at the size limits.
  const size_t min_split_size =
      depth + 1 < config_.max_depth
          ? std::max({config_.min_samples_split, 2 * config_.min_samples_leaf,
                      size_t{1}})
          : std::numeric_limits<size_t>::max();
  const size_t n_left = ctx->blocks->Partition(
      lo, n, static_cast<size_t>(best.feature), best.threshold, min_split_size);

  Node split;
  split.feature = best.feature;
  split.threshold = best.threshold;
  nodes_.push_back(std::move(split));
  int32_t self = static_cast<int32_t>(nodes_.size() - 1);
  int32_t left = Build(ctx, stat, lo, n_left, depth + 1);
  int32_t right = Build(ctx, stat, lo + n_left, n - n_left, depth + 1);
  nodes_[static_cast<size_t>(self)].left = left;
  nodes_[static_cast<size_t>(self)].right = right;
  return self;
}

double DecisionTree::PredictRow(const double* row) const {
  FEDFC_DCHECK(!nodes_.empty());
  const Node* node = nodes_.data();
  while (node->feature >= 0) {
    node = nodes_.data() +
           (row[node->feature] <= node->threshold ? node->left : node->right);
  }
  return node->value;
}

const std::vector<double>& DecisionTree::PredictDistRow(const double* row) const {
  FEDFC_DCHECK(!nodes_.empty());
  const Node* node = nodes_.data();
  while (node->feature >= 0) {
    node = nodes_.data() +
           (row[node->feature] <= node->threshold ? node->left : node->right);
  }
  return node->dist;
}

}  // namespace fedfc::ml
