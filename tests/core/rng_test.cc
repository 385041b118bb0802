#include "core/rng.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/vec_math.h"

namespace fedfc {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Int(0, 1000000) == b.Int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, IntInclusiveBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  std::vector<double> v(50000);
  for (double& x : v) x = rng.Normal(2.0, 3.0);
  EXPECT_NEAR(Mean(v), 2.0, 0.1);
  EXPECT_NEAR(StdDev(v), 3.0, 0.1);
}

TEST(RngTest, NormalMatchesStdNormalDistributionBitForBit) {
  // For stddev > 0, Normal gives the bits a fresh
  // std::normal_distribution(mean, stddev) gives, and leaves the engine in
  // the same state, so no seeded stream moves.
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {-1.5, 0.05}, {2.0, 3.0}, {1e3, 1e-3}, {-7.0, 250.0}};
  for (const auto& [mean, stddev] : params) {
    Rng rng(17);
    std::mt19937_64 reference(17);
    for (int i = 0; i < 200; ++i) {
      std::normal_distribution<double> dist(mean, stddev);
      const double expected = dist(reference);
      EXPECT_EQ(std::bit_cast<uint64_t>(rng.Normal(mean, stddev)),
                std::bit_cast<uint64_t>(expected))
          << "mean " << mean << " stddev " << stddev << " draw " << i;
    }
    EXPECT_EQ(rng.engine(), reference) << "stddev " << stddev;
  }
}

TEST(RngTest, NormalWithZeroStddevReturnsMeanAfterTheSameDraws) {
  // Zero noise (e.g. data::GenerateSignal with noise_std = 0) returns the
  // mean and still consumes one standard draw, so later draws do not shift.
  Rng rng(23);
  std::mt19937_64 reference(23);
  for (int i = 0; i < 50; ++i) {
    std::normal_distribution<double> standard;
    standard(reference);
    EXPECT_EQ(rng.Normal(4.25, 0.0), 4.25);
  }
  EXPECT_EQ(rng.engine(), reference);
}

TEST(RngTest, SampleIsDistinctAndInRange) {
  Rng rng(5);
  std::vector<size_t> s = rng.Sample(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(5);
  std::vector<size_t> s = rng.Sample(10, 10);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, BootstrapHasCorrectSizeAndRange) {
  Rng rng(9);
  std::vector<size_t> b = rng.Bootstrap(50);
  EXPECT_EQ(b.size(), 50u);
  for (size_t v : b) EXPECT_LT(v, 50u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The child stream should not replay the parent's continuation.
  Rng b(42);
  b.Uniform();  // Consume what Fork consumed.
  EXPECT_NE(child.Int(0, 1 << 30), b.Int(0, 1 << 30));
}

}  // namespace
}  // namespace fedfc
