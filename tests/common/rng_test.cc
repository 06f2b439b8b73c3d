// Copyright 2026 The dpcube Authors.

#include "common/rng.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace dpcube {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, OsRandomSeedsDiffer) {
  const Result<std::uint64_t> a = OsRandomSeed();
  const Result<std::uint64_t> b = OsRandomSeed();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NE(a.value(), b.value());  // Equal with probability 2^-64.
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  stats::RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.Add(rng.NextDouble());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, NextBoundedRangeAndUniformity) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 100);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  stats::RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.Add(rng.NextGaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(19);
  stats::RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.Add(rng.NextGaussian(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.variance(), 4.0, 0.15);
}

TEST(RngTest, LaplaceMomentsMatchScale) {
  // Laplace with scale b: mean 0, variance 2 b^2, E|X| = b.
  Rng rng(23);
  const double scale = 1.5;
  stats::RunningStats s;
  double abs_sum = 0.0;
  const int draws = 200'000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.NextLaplace(scale);
    s.Add(x);
    abs_sum += std::fabs(x);
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 2.0 * scale * scale, 0.1);
  EXPECT_NEAR(abs_sum / draws, scale, 0.02);
}

TEST(RngTest, LaplaceSymmetric) {
  Rng rng(29);
  int positive = 0;
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    if (rng.NextLaplace(1.0) > 0.0) ++positive;
  }
  EXPECT_NEAR(positive, draws / 2, draws / 50);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits, 0.3 * draws, draws / 100);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(37);
  const double weights[3] = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextCategorical(weights, 3)];
  EXPECT_NEAR(counts[0], 0.1 * draws, draws / 50);
  EXPECT_NEAR(counts[1], 0.2 * draws, draws / 50);
  EXPECT_NEAR(counts[2], 0.7 * draws, draws / 50);
}

TEST(RngTest, CategoricalZeroWeightsFallsBack) {
  Rng rng(41);
  const double weights[2] = {0.0, 0.0};
  EXPECT_EQ(rng.NextCategorical(weights, 2), 1);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(43);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace dpcube
