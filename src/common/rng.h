// Copyright 2026 The dpcube Authors.
//
// Deterministic random number generation. All randomized components in the
// library (mechanisms, synthetic data generators, strategies) take an
// explicit Rng so experiments are reproducible from a single seed. A
// release whose noise must stay secret seeds it from OsRandomSeed().
//
// The engine is xoshiro256++ seeded through SplitMix64, a standard choice
// for simulation workloads: fast, high quality, and stable across platforms
// (unlike std::normal_distribution, whose output is implementation-defined).

#ifndef DPCUBE_COMMON_RNG_H_
#define DPCUBE_COMMON_RNG_H_

#include <cstdint>

#include "common/status.h"

namespace dpcube {

/// 64 bits from the kernel's entropy source (getrandom(2)): the seed for
/// noise nobody must be able to regenerate. Fails closed (an error, not a
/// weak seed) if the kernel cannot supply them.
Result<std::uint64_t> OsRandomSeed();

/// xoshiro256++ pseudo-random generator with distribution samplers.
class Rng {
 public:
  /// Seeds the four 64-bit state words via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0xd1b54a32d192ed03ULL);

  /// Next raw 64-bit output.
  std::uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in (0, 1) — never returns exactly 0 (safe for logs).
  double NextDoubleOpen();

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Standard normal via Box–Muller (cached second value).
  double NextGaussian();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double NextGaussian(double mean, double sigma);

  /// Zero-mean Laplace with scale b (variance 2 b^2), via inverse CDF.
  double NextLaplace(double scale);

  /// Bernoulli with success probability p.
  bool NextBernoulli(double p);

  /// Samples an index from an unnormalised non-negative weight vector of
  /// length n. Returns n-1 if weights sum to zero.
  int NextCategorical(const double* weights, int n);

  /// Forks an independent generator (jumps are emulated by reseeding from
  /// the parent stream, which is sufficient for our simulation use).
  Rng Fork();

  /// Child stream `index` of the stream family rooted at `base`. This is
  /// the library's seed-derivation rule for parallel fan-out: a randomized
  /// parallel stage draws `base` from its master Rng exactly once (one
  /// NextUint64, regardless of thread count), then work unit i samples
  /// from Stream(base, i). Unit outputs therefore depend only on the
  /// master seed and the unit index — never on the thread count or the
  /// schedule — which makes parallel releases bit-identical to sequential
  /// ones. Seeds are decorrelated by the constructor's SplitMix64 pass.
  static Rng Stream(std::uint64_t base, std::uint64_t index);

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace dpcube

#endif  // DPCUBE_COMMON_RNG_H_
