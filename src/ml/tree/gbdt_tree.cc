#include "ml/tree/gbdt_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/checked.h"
#include "core/logging.h"

namespace fedfc::ml::gbdt_internal {

namespace {

using tree_internal::LeafScore;

double LeafWeight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

struct SplitCandidate {
  double gain = -1.0;
  int feature = -1;
  int bin = -1;  ///< Go left when bin(value) <= bin.
};

/// A leaf of a leaf-wise tree under construction.
struct LeafState {
  std::vector<size_t> rows;
  double g_sum = 0.0;
  double h_sum = 0.0;
  int32_t node_index = -1;
  SplitCandidate best;
};

/// Best histogram split of `leaf` over every binned feature.
SplitCandidate FindBestSplit(const BinnedMatrix& binned,
                             const std::vector<double>& g,
                             const std::vector<double>& h, const LeafState& leaf,
                             double lambda, size_t min_leaf) {
  SplitCandidate best;
  const size_t n = leaf.rows.size();
  if (n < 2 * min_leaf) return best;
  std::vector<double> hist_g, hist_h;
  std::vector<size_t> hist_n;
  for (size_t f = 0; f < binned.cols(); ++f) {
    int nb = binned.n_bins(f);
    if (nb < 2) continue;
    const size_t n_bins = static_cast<size_t>(nb);
    hist_g.assign(n_bins, 0.0);
    hist_h.assign(n_bins, 0.0);
    hist_n.assign(n_bins, 0);
    const uint8_t* bins = binned.bins_data() + f;
    const size_t stride = binned.cols();
    for (size_t r : leaf.rows) {
      const size_t b = bins[r * stride];
      hist_g[b] += g[r];
      hist_h[b] += h[r];
      hist_n[b] += 1;
    }
    double gl = 0.0, hl = 0.0;
    size_t nl = 0;
    double parent = LeafScore(leaf.g_sum, leaf.h_sum, lambda);
    for (size_t b = 0; b + 1 < n_bins; ++b) {
      gl += hist_g[b];
      hl += hist_h[b];
      nl += hist_n[b];
      if (nl < min_leaf || n - nl < min_leaf) continue;
      double gain = 0.5 * (LeafScore(gl, hl, lambda) +
                           LeafScore(leaf.g_sum - gl, leaf.h_sum - hl, lambda) -
                           parent);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.bin = static_cast<int>(b);
      }
    }
  }
  return best;
}

}  // namespace

void GbdtTree::Fit(const tree_internal::SortedColumns& sorted,
                   const std::vector<double>& g, const std::vector<double>& h,
                   const std::vector<size_t>& sample_indices,
                   const GbdtTreeConfig& config) {
  const Matrix& x = sorted.x();
  FEDFC_CHECK(g.size() == x.rows() && h.size() == x.rows());
  nodes_.clear();
  gains_.assign(x.cols(), 0.0);
  tree_internal::ColumnBlocks blocks(sorted, sample_indices, /*with_columns=*/true);
  tree_internal::GradientStat stat(g, h, config.reg_lambda);
  std::vector<size_t> features(x.cols());
  std::iota(features.begin(), features.end(), 0);
  Build(&blocks, &stat, features, 0, blocks.size(), 0, config);
}

int32_t GbdtTree::Build(tree_internal::ColumnBlocks* blocks,
                        tree_internal::GradientStat* stat,
                        const std::vector<size_t>& features, size_t lo, size_t n,
                        int depth, const GbdtTreeConfig& config) {
  stat->Begin(blocks->draw(lo), n);
  const bool stop =
      depth >= config.max_depth || n < 2 * config.min_samples_leaf || n < 2;
  const tree_internal::ExactSplit best =
      stop ? tree_internal::ExactSplit{}
           : tree_internal::FindBestExactSplit(*blocks, lo, n, features,
                                               config.min_samples_leaf,
                                               config.min_gain, stat);
  if (best.feature < 0) {
    nodes_.push_back(
        {.weight = LeafWeight(stat->g_sum(), stat->h_sum(), config.reg_lambda)});
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  gains_[static_cast<size_t>(best.feature)] += best.gain;
  // A child is split again only below max_depth and at the size limits.
  const size_t min_split_size = depth + 1 < config.max_depth
                                    ? std::max<size_t>(2 * config.min_samples_leaf, 2)
                                    : std::numeric_limits<size_t>::max();
  const size_t n_left = blocks->Partition(lo, n, static_cast<size_t>(best.feature),
                                          best.threshold, min_split_size);

  nodes_.push_back({.feature = best.feature, .threshold = best.threshold});
  int32_t self = static_cast<int32_t>(nodes_.size() - 1);
  int32_t left = Build(blocks, stat, features, lo, n_left, depth + 1, config);
  int32_t right = Build(blocks, stat, features, lo + n_left, n - n_left, depth + 1, config);
  nodes_[static_cast<size_t>(self)].left = left;
  nodes_[static_cast<size_t>(self)].right = right;
  return self;
}

void GbdtTree::FitLeafWise(const BinnedMatrix& binned,
                           const std::vector<double>& g,
                           const std::vector<double>& h, int max_leaves,
                           const GbdtTreeConfig& config) {
  FEDFC_CHECK(g.size() == binned.rows() && h.size() == binned.rows());
  nodes_.clear();
  gains_.assign(binned.cols(), 0.0);
  const double lambda = config.reg_lambda;

  LeafState root;
  root.rows.resize(binned.rows());
  std::iota(root.rows.begin(), root.rows.end(), 0);
  for (size_t i : root.rows) {
    root.g_sum += g[i];
    root.h_sum += h[i];
  }
  nodes_.push_back({.weight = LeafWeight(root.g_sum, root.h_sum, lambda)});
  root.node_index = 0;
  root.best = FindBestSplit(binned, g, h, root, lambda, config.min_samples_leaf);

  std::vector<LeafState> leaves;
  leaves.push_back(std::move(root));

  while (static_cast<int>(leaves.size()) < max_leaves) {
    size_t best_leaf = leaves.size();
    double best_gain = config.min_gain;
    for (size_t l = 0; l < leaves.size(); ++l) {
      if (leaves[l].best.gain > best_gain) {
        best_gain = leaves[l].best.gain;
        best_leaf = l;
      }
    }
    if (best_leaf == leaves.size()) break;

    LeafState leaf = std::move(leaves[best_leaf]);
    leaves.erase(leaves.begin() + static_cast<ptrdiff_t>(best_leaf));

    LeafState left, right;
    const size_t split_feature = static_cast<size_t>(leaf.best.feature);
    for (size_t i : leaf.rows) {
      if (binned.bin(i, split_feature) <= leaf.best.bin) {
        left.rows.push_back(i);
        left.g_sum += g[i];
        left.h_sum += h[i];
      } else {
        right.rows.push_back(i);
        right.g_sum += g[i];
        right.h_sum += h[i];
      }
    }
    gains_[split_feature] += leaf.best.gain;

    nodes_.push_back({.weight = LeafWeight(left.g_sum, left.h_sum, lambda)});
    left.node_index = static_cast<int32_t>(nodes_.size() - 1);
    nodes_.push_back({.weight = LeafWeight(right.g_sum, right.h_sum, lambda)});
    right.node_index = static_cast<int32_t>(nodes_.size() - 1);

    Node& parent = nodes_[static_cast<size_t>(leaf.node_index)];
    parent.feature = leaf.best.feature;
    parent.threshold = binned.UpperEdge(split_feature, leaf.best.bin);
    parent.left = left.node_index;
    parent.right = right.node_index;

    left.best = FindBestSplit(binned, g, h, left, lambda, config.min_samples_leaf);
    right.best = FindBestSplit(binned, g, h, right, lambda, config.min_samples_leaf);
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }
}

void GbdtTree::FitOblivious(const BinnedMatrix& binned,
                            const std::vector<double>& g,
                            const std::vector<double>& h,
                            const GbdtTreeConfig& config) {
  FEDFC_CHECK(g.size() == binned.rows() && h.size() == binned.rows());
  nodes_.clear();
  gains_.assign(binned.cols(), 0.0);
  const size_t n = binned.rows();
  const double lambda = config.reg_lambda;
  // leaf_of[i]: current leaf index of row i; bit l is set when row i went
  // right at level l.
  std::vector<size_t> leaf_of(n, 0);
  std::vector<int> level_features;
  std::vector<double> level_thresholds;

  for (int level = 0; level < config.max_depth; ++level) {
    const size_t n_groups = size_t{1} << level;
    double best_gain = config.min_gain;
    int best_feature = -1;
    int best_bin = -1;

    // Current score: sum over groups of G^2/(H+l).
    std::vector<double> group_g(n_groups, 0.0), group_h(n_groups, 0.0);
    for (size_t i = 0; i < n; ++i) {
      group_g[leaf_of[i]] += g[i];
      group_h[leaf_of[i]] += h[i];
    }
    double parent_score = 0.0;
    for (size_t gr = 0; gr < n_groups; ++gr) {
      parent_score += LeafScore(group_g[gr], group_h[gr], lambda);
    }

    std::vector<double> hg, hh;
    for (size_t f = 0; f < binned.cols(); ++f) {
      int nb = binned.n_bins(f);
      if (nb < 2) continue;
      const size_t n_bins = static_cast<size_t>(nb);
      // Histogram per (group, bin).
      hg.assign(n_groups * n_bins, 0.0);
      hh.assign(n_groups * n_bins, 0.0);
      for (size_t i = 0; i < n; ++i) {
        size_t slot = leaf_of[i] * n_bins + binned.bin(i, f);
        hg[slot] += g[i];
        hh[slot] += h[i];
      }
      // Scan candidate bins; the same bin threshold splits every group.
      for (size_t b = 0; b + 1 < n_bins; ++b) {
        double score = 0.0;
        for (size_t gr = 0; gr < n_groups; ++gr) {
          double gl = 0.0, hl = 0.0;
          for (size_t bb = 0; bb <= b; ++bb) {
            gl += hg[gr * n_bins + bb];
            hl += hh[gr * n_bins + bb];
          }
          score += LeafScore(gl, hl, lambda) +
                   LeafScore(group_g[gr] - gl, group_h[gr] - hl, lambda);
        }
        double gain = 0.5 * (score - parent_score);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = static_cast<int>(b);
        }
      }
    }

    if (best_feature < 0) break;  // No useful split at this level.
    const size_t split_feature = static_cast<size_t>(best_feature);
    gains_[split_feature] += best_gain;
    level_features.push_back(best_feature);
    level_thresholds.push_back(binned.UpperEdge(split_feature, best_bin));
    for (size_t i = 0; i < n; ++i) {
      if (binned.bin(i, split_feature) > best_bin) {
        leaf_of[i] |= size_t{1} << level;
      }
    }
  }

  const size_t depth = level_features.size();
  const size_t n_leaves = size_t{1} << depth;
  std::vector<double> leaf_g(n_leaves, 0.0), leaf_h(n_leaves, 0.0);
  for (size_t i = 0; i < n; ++i) {
    leaf_g[leaf_of[i]] += g[i];
    leaf_h[leaf_of[i]] += h[i];
  }
  // Preorder layout: the node at `level` on path `leaf` (bits of the levels
  // above it) splits on that level's feature; its right subtree sets bit
  // `level`.
  auto emit = [&](auto& self, size_t level, size_t leaf) -> int32_t {
    const size_t index = nodes_.size();
    if (level == depth) {
      nodes_.push_back({.weight = LeafWeight(leaf_g[leaf], leaf_h[leaf], lambda)});
    } else {
      nodes_.push_back({.feature = level_features[level],
                        .threshold = level_thresholds[level]});
      const int32_t left = self(self, level + 1, leaf);
      const int32_t right = self(self, level + 1, leaf | (size_t{1} << level));
      nodes_[index].left = left;
      nodes_[index].right = right;
    }
    return static_cast<int32_t>(index);
  };
  emit(emit, 0, 0);
}

void GbdtTree::AppendTo(std::vector<double>* out) const {
  out->push_back(static_cast<double>(nodes_.size()));
  for (const Node& n : nodes_) {
    out->push_back(static_cast<double>(n.feature));
    out->push_back(n.threshold);
    out->push_back(static_cast<double>(n.left));
    out->push_back(static_cast<double>(n.right));
    out->push_back(n.weight);
  }
}

Result<GbdtTree> GbdtTree::FromSpan(const std::vector<double>& data,
                                    size_t* offset) {
  if (*offset >= data.size()) {
    return Status::InvalidArgument("GbdtTree: truncated span");
  }
  // The cap is structural: each node occupies 5 doubles of the remaining
  // span, so any larger count is a truncated or corrupted block. Validated
  // before the cast (and before the resize below allocates anything).
  FEDFC_ASSIGN_OR_RETURN(
      size_t n_nodes,
      CheckedCount(data[*offset], (data.size() - *offset - 1) / 5,
                   "GbdtTree node block"));
  ++*offset;
  // The feature and child-index fields are untrusted doubles: a value that
  // is NaN, fractional, or outside int range makes the narrowing cast
  // undefined behavior, so each one is validated before its cast. -1 is the
  // encoder's leaf marker (Node's default feature/left/right).
  auto checked_field = [](double v, const char* what) -> Result<int32_t> {
    if (!std::isfinite(v) || v != std::floor(v) || v < -1.0 ||
        v > 2147483647.0) {
      return Status::InvalidArgument(
          std::string("GbdtTree: ") + what +
          " field is not an integer in [-1, 2^31) (corrupt or hostile input)");
    }
    return static_cast<int32_t>(v);
  };
  GbdtTree tree;
  tree.nodes_.resize(n_nodes);
  for (size_t i = 0; i < n_nodes; ++i) {
    Node& n = tree.nodes_[i];
    FEDFC_ASSIGN_OR_RETURN(int32_t feature,
                           checked_field(data[(*offset)++], "feature"));
    n.feature = feature;
    n.threshold = data[(*offset)++];
    FEDFC_ASSIGN_OR_RETURN(n.left, checked_field(data[(*offset)++], "left"));
    FEDFC_ASSIGN_OR_RETURN(n.right, checked_field(data[(*offset)++], "right"));
    n.weight = data[(*offset)++];
    // Build() lays nodes out preorder, so both children of a split strictly
    // follow it. Requiring that here does more than match the encoder: it
    // makes every root-to-leaf walk strictly increasing, so a hostile blob
    // cannot smuggle in a cycle that would hang PredictRow forever.
    if (n.feature >= 0 &&
        (n.left <= static_cast<int32_t>(i) || n.right <= static_cast<int32_t>(i) ||
         static_cast<size_t>(n.left) >= n_nodes ||
         static_cast<size_t>(n.right) >= n_nodes)) {
      return Status::InvalidArgument("GbdtTree: invalid child index");
    }
  }
  return tree;
}

int GbdtTree::MaxFeature() const {
  int max_feature = -1;
  for (const Node& n : nodes_) max_feature = std::max(max_feature, n.feature);
  return max_feature;
}

double GbdtTree::PredictRow(const double* row) const {
  FEDFC_DCHECK(!nodes_.empty());
  const Node* node = nodes_.data();
  while (node->feature >= 0) {
    node = nodes_.data() +
           (row[node->feature] <= node->threshold ? node->left : node->right);
  }
  return node->weight;
}

}  // namespace fedfc::ml::gbdt_internal
