// Copyright 2026 The dpcube Authors.

#include "transform/walsh_hadamard.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace dpcube {
namespace transform {
namespace {

TEST(WalshHadamardTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(Log2OfPowerOfTwo(1), 0);
  EXPECT_EQ(Log2OfPowerOfTwo(1024), 10);
}

TEST(WalshHadamardTest, SizeTwoKnownValues) {
  std::vector<double> x = {1.0, 3.0};
  WalshHadamard(&x);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(x[0], 4.0 * s, 1e-12);
  EXPECT_NEAR(x[1], -2.0 * s, 1e-12);
}

TEST(WalshHadamardTest, Involution) {
  Rng rng(1);
  for (int d : {0, 1, 3, 6, 10}) {
    std::vector<double> x(std::size_t{1} << d);
    for (double& v : x) v = rng.NextGaussian();
    const std::vector<double> original = x;
    WalshHadamard(&x);
    WalshHadamard(&x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], original[i], 1e-10) << "d=" << d << " i=" << i;
    }
  }
}

TEST(WalshHadamardTest, PreservesL2NormOrthonormality) {
  Rng rng(2);
  std::vector<double> x(256);
  for (double& v : x) v = rng.NextGaussian();
  double before = 0.0;
  for (double v : x) before += v * v;
  WalshHadamard(&x);
  double after = 0.0;
  for (double v : x) after += v * v;
  EXPECT_NEAR(before, after, 1e-8);
}

TEST(WalshHadamardTest, MatchesDirectCoefficient) {
  Rng rng(3);
  std::vector<double> x(64);
  for (double& v : x) v = rng.NextGaussian();
  const std::vector<double> transformed = WalshHadamardCopy(x);
  for (bits::Mask alpha = 0; alpha < 64; ++alpha) {
    EXPECT_NEAR(transformed[alpha], FourierCoefficient(x, alpha), 1e-10);
  }
}

// The butterfly stages alone only add and subtract, so an integer vector
// transforms exactly (every partial sum is an integer far below 2^53) and
// a second application returns 2^d x exactly — on both the sequential and
// the blocked parallel path.
TEST(WalshHadamardTest, UnscaledIsExactOnIntegers) {
  Rng rng(6);
  for (int d : {0, 1, 4, 9, 15}) {
    for (int threads : {1, 8}) {
      ThreadPool::ResetSharedPoolForTests(threads);
      const std::size_t n = std::size_t{1} << d;
      std::vector<double> x(n);
      for (double& v : x) {
        v = static_cast<double>(rng.NextUint64() % 2001) - 1000.0;
      }
      std::vector<double> y = x;
      WalshHadamardUnscaled(&y);
      for (bits::Mask alpha = 0; alpha < n; alpha += 1 + n / 64) {
        double exact = 0.0;  // Integer sum in any order is exact.
        for (std::size_t b = 0; b < n; ++b) {
          exact += bits::FourierSign(alpha, b) * x[b];
        }
        ASSERT_EQ(y[alpha], exact) << "d=" << d << " alpha=" << alpha;
      }
      WalshHadamardUnscaled(&y);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y[i], std::ldexp(x[i], d)) << "d=" << d << " i=" << i;
      }
    }
  }
  ThreadPool::ResetSharedPoolForTests(2);
}

TEST(WalshHadamardTest, MatchesDenseMatrix) {
  Rng rng(4);
  const int d = 5;
  std::vector<double> x(1 << d);
  for (double& v : x) v = rng.NextGaussian();
  const linalg::Matrix h = HadamardMatrix(d);
  const linalg::Vector via_matrix = h.MultiplyVec(x);
  const std::vector<double> via_fwht = WalshHadamardCopy(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(via_matrix[i], via_fwht[i], 1e-10);
  }
}

TEST(WalshHadamardTest, HadamardMatrixIsSymmetricOrthonormal) {
  const linalg::Matrix h = HadamardMatrix(4);
  EXPECT_TRUE(h.ApproxEquals(h.Transpose(), 1e-12));
  EXPECT_TRUE(
      h.Multiply(h).ApproxEquals(linalg::Matrix::Identity(16), 1e-10));
}

TEST(WalshHadamardTest, ConstantVectorHasSingleCoefficient) {
  std::vector<double> x(32, 1.0);
  WalshHadamard(&x);
  EXPECT_NEAR(x[0], std::sqrt(32.0), 1e-10);
  for (std::size_t i = 1; i < 32; ++i) EXPECT_NEAR(x[i], 0.0, 1e-12);
}

// Property: coefficient of a point mass at cell c is sign(alpha, c)/sqrt(N).
class PointMassProperty : public ::testing::TestWithParam<int> {};

TEST_P(PointMassProperty, CoefficientSigns) {
  const int d = 4;
  const std::size_t n = 1 << d;
  const std::size_t cell = GetParam();
  std::vector<double> x(n, 0.0);
  x[cell] = 1.0;
  WalshHadamard(&x);
  for (bits::Mask alpha = 0; alpha < n; ++alpha) {
    EXPECT_NEAR(x[alpha], bits::FourierSign(alpha, cell) / std::sqrt(16.0),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, PointMassProperty, ::testing::Range(0, 16));

// Above the blocking cutoff (2^14) the butterflies fan out over the
// shared pool; the result must be bitwise identical to the sequential
// sweep and still an involution.
TEST(WalshHadamardTest, BlockedParallelPathMatchesSequentialBitExact) {
  const std::size_t n = std::size_t{1} << 16;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i)) * 3.25 + (i % 11);
  }
  ThreadPool::ResetSharedPoolForTests(1);
  std::vector<double> sequential = x;
  WalshHadamard(&sequential);
  ThreadPool::ResetSharedPoolForTests(8);
  std::vector<double> parallel = x;
  WalshHadamard(&parallel);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(&sequential[i], &parallel[i], sizeof(double)), 0)
        << "index " << i;
  }
  WalshHadamard(&parallel);  // Involution, still on the parallel path.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(parallel[i], x[i], 1e-9);
  }
  ThreadPool::ResetSharedPoolForTests(2);
}

}  // namespace
}  // namespace transform
}  // namespace dpcube
