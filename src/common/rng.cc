// Copyright 2026 The dpcube Authors.

#include "common/rng.h"

#include <errno.h>
#include <sys/random.h>

#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

namespace dpcube {
namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

inline std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Result<std::uint64_t> OsRandomSeed() {
  std::uint64_t seed = 0;
  ssize_t n = 0;
  do {
    n = ::getrandom(&seed, sizeof(seed), 0);
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(sizeof(seed))) {
    return Status::Unavailable(std::string("getrandom: ") +
                               (n < 0 ? std::strerror(errno) : "short read"));
  }
  return seed;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return u;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method with rejection.
  std::uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller.
  const double u1 = NextDoubleOpen();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double sigma) {
  assert(sigma >= 0.0);
  return mean + sigma * NextGaussian();
}

double Rng::NextLaplace(double scale) {
  assert(scale >= 0.0);
  // Inverse CDF: u uniform in (-1/2, 1/2), x = -b * sgn(u) * ln(1 - 2|u|).
  const double u = NextDouble() - 0.5;
  const double sign = (u < 0.0) ? -1.0 : 1.0;
  double mag = 2.0 * std::fabs(u);
  if (mag >= 1.0) mag = std::nextafter(1.0, 0.0);  // Avoid log(0).
  return -scale * sign * std::log1p(-mag);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

int Rng::NextCategorical(const double* weights, int n) {
  assert(n > 0);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    assert(weights[i] >= 0.0);
    total += weights[i];
  }
  if (total <= 0.0) return n - 1;
  double target = NextDouble() * total;
  for (int i = 0; i < n; ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return n - 1;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

Rng Rng::Stream(std::uint64_t base, std::uint64_t index) {
  // One extra SplitMix64 round over (base, index) so children of adjacent
  // indices land in unrelated regions of the seed space; the constructor
  // then expands the result into the four state words.
  std::uint64_t s = base ^ (index + 1) * 0x9e3779b97f4a7c15ULL;
  return Rng(SplitMix64(&s));
}

}  // namespace dpcube
