/// Covariance-form coordinate descent against its residual-form oracle, and
/// the nested-prefix Gram builder against standalone builds.

#include "ml/linear/coordinate_descent.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/scaler.h"

namespace fedfc::ml {
namespace {

/// The residual-form solver, the oracle for the covariance form: it keeps
/// r = y - X w and walks column j over all n rows for every coordinate, so
/// each update costs O(n).
std::vector<double> ResidualFormCoordinateDescent(const Matrix& x,
                                                  const std::vector<double>& y,
                                                  const CdOptions& options, Rng* rng) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  std::vector<double> w(d, 0.0);
  std::vector<double> residual = y;
  std::vector<double> col_sq(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.Row(r);
    for (size_t j = 0; j < d; ++j) col_sq[j] += row[j] * row[j];
  }
  for (double& v : col_sq) v /= static_cast<double>(n);

  const double l1 = options.alpha * options.l1_ratio;
  const double l2 = options.alpha * (1.0 - options.l1_ratio);
  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  for (size_t iter = 0; iter < options.max_iter; ++iter) {
    if (options.selection == CdSelection::kRandom && rng != nullptr) {
      rng->Shuffle(&order);
    }
    double max_update = 0.0;
    for (size_t j : order) {
      if (col_sq[j] <= 1e-12) continue;
      const double w_old = w[j];
      double rho = 0.0;
      for (size_t r = 0; r < n; ++r) rho += x(r, j) * residual[r];
      rho /= static_cast<double>(n);
      rho += col_sq[j] * w_old;
      const double w_new = SoftThreshold(rho, l1) / (col_sq[j] + l2);
      if (w_new != w_old) {
        const double delta = w_new - w_old;
        for (size_t r = 0; r < n; ++r) residual[r] -= delta * x(r, j);
        w[j] = w_new;
        max_update = std::max(max_update, std::fabs(delta));
      }
    }
    if (max_update < options.tol) break;
  }
  return w;
}

struct Problem {
  std::string name;
  Matrix x;  ///< Standardized, as every library caller passes it.
  std::vector<double> y;
};

/// `n` rows of `d` correlated features (each a noisy mix of the previous
/// one), y a sparse combination plus noise; column `constant_col` (if < d)
/// is constant before standardization, so it standardizes to zero.
Problem MakeProblem(std::string name, size_t n, size_t d, size_t constant_col,
                    uint64_t seed) {
  Rng rng(seed);
  Matrix raw(n, d);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double prev = rng.Normal();
    for (size_t j = 0; j < d; ++j) {
      prev = 0.7 * prev + 0.5 * rng.Normal();
      raw(i, j) = j == constant_col ? 3.0 : prev;
    }
    y[i] = 2.0 * raw(i, 0) - 1.5 * raw(i, d / 2) + 0.3 * rng.Normal();
  }
  StandardScaler x_scaler;
  TargetScaler y_scaler;
  y_scaler.Fit(y);
  return {std::move(name), x_scaler.FitTransform(raw), y_scaler.Transform(y)};
}

TEST(CoordinateDescentTest, GramFormMatchesResidualForm) {
  const std::vector<Problem> problems = {
      MakeProblem("tall", 120, 8, 8, 1),
      MakeProblem("wide (d > n)", 20, 40, 40, 2),
      MakeProblem("constant column", 80, 6, 2, 3),
  };
  struct Case {
    double alpha;
    size_t max_iter;
    double tol;
  };
  // The last case can only stop on max_iter: tol 0 is never undercut.
  const Case cases[] = {{0.05, 200, 1e-5}, {0.01, 1000, 1e-9}, {0.02, 3, 0.0}};
  for (const Problem& p : problems) {
    const Gram gram = PrefixGrams(p.x, p.y, {p.x.rows()}).front();
    for (CdSelection selection : {CdSelection::kCyclic, CdSelection::kRandom}) {
      for (double l1_ratio : {0.0, 0.5, 1.0}) {
        for (const Case& c : cases) {
          SCOPED_TRACE(p.name + ", " + CdSelectionName(selection) +
                       ", l1_ratio " + std::to_string(l1_ratio) + ", alpha " +
                       std::to_string(c.alpha) + ", max_iter " +
                       std::to_string(c.max_iter));
          CdOptions opts;
          opts.alpha = c.alpha;
          opts.l1_ratio = l1_ratio;
          opts.selection = selection;
          opts.max_iter = c.max_iter;
          opts.tol = c.tol;
          Rng oracle_rng(17);
          Rng gram_rng(17);
          const std::vector<double> expected =
              ResidualFormCoordinateDescent(p.x, p.y, opts, &oracle_rng);
          const std::vector<double> actual = CoordinateDescent(gram, opts, &gram_rng);
          ASSERT_EQ(actual.size(), expected.size());
          double scale = 1.0;
          for (double v : expected) scale = std::max(scale, std::fabs(v));
          for (size_t j = 0; j < expected.size(); ++j) {
            EXPECT_NEAR(actual[j], expected[j], 1e-9 * scale) << "coordinate " << j;
          }
          // Same number of passes, hence the same RNG draws.
          EXPECT_EQ(oracle_rng.Uniform(), gram_rng.Uniform());
        }
      }
    }
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(PrefixGramsTest, NestedPrefixEqualsStandaloneBuild) {
  const Problem p = MakeProblem("tall", 90, 7, 7, 4);
  const std::vector<size_t> ends = {1, 23, 23, 60, 90};
  const std::vector<Gram> nested = PrefixGrams(p.x, p.y, ends);
  ASSERT_EQ(nested.size(), ends.size());
  for (size_t i = 0; i < ends.size(); ++i) {
    SCOPED_TRACE("prefix " + std::to_string(ends[i]));
    std::vector<size_t> rows(ends[i]);
    std::iota(rows.begin(), rows.end(), 0);
    const std::vector<double> y_prefix(
        p.y.begin(), p.y.begin() + static_cast<std::ptrdiff_t>(ends[i]));
    const Gram alone = PrefixGrams(p.x.SelectRows(rows), y_prefix, {ends[i]}).front();
    EXPECT_EQ(nested[i].n, ends[i]);
    EXPECT_EQ(nested[i].d, alone.d);
    EXPECT_TRUE(SameBits(nested[i].g, alone.g));
    EXPECT_TRUE(SameBits(nested[i].q, alone.q));
    EXPECT_TRUE(SameBits(nested[i].xty, alone.xty));
  }
}

TEST(PrefixGramsTest, GramIsSymmetricAndScaledByRowCount) {
  const Problem p = MakeProblem("tall", 40, 5, 5, 5);
  const Gram gram = PrefixGrams(p.x, p.y, {p.x.rows()}).front();
  for (size_t j = 0; j < gram.d; ++j) {
    // Standardized columns have unit variance, so G_jj = 1.
    EXPECT_NEAR(gram.g[j * gram.d + j], 1.0, 1e-12);
    EXPECT_EQ(gram.q[j], gram.xty[j] / 40.0);
    for (size_t k = 0; k < gram.d; ++k) {
      EXPECT_EQ(gram.g[j * gram.d + k], gram.g[k * gram.d + j]);
    }
  }
}

}  // namespace
}  // namespace fedfc::ml
