// Copyright 2026 The dpcube Authors.
//
// Fast Walsh–Hadamard transform (WHT) — the 2^d-dimensional discrete Fourier
// transform over the Boolean hypercube used throughout Section 4 of the
// paper. With the orthonormal scaling used here the basis vectors are
//   f^alpha_beta = 2^{-d/2} (-1)^{<alpha, beta>},
// the transform is an involution (applying it twice is the identity), and
// coefficient alpha of a contingency table x equals <f^alpha, x>.

#ifndef DPCUBE_TRANSFORM_WALSH_HADAMARD_H_
#define DPCUBE_TRANSFORM_WALSH_HADAMARD_H_

#include <cstddef>
#include <vector>

#include "common/bits.h"
#include "linalg/matrix.h"

namespace dpcube {
namespace transform {

/// In-place unscaled WHT of a length-2^d vector (size must be a power of
/// two): the butterfly stages alone, x_alpha <- sum_beta (-1)^{<alpha,beta>}
/// x_beta. O(N log N). Every stage only adds and subtracts, so on an
/// integer vector whose partial sums stay below 2^53 the result is exact.
/// Applying it twice gives 2^d x.
void WalshHadamardUnscaled(std::vector<double>* x);

/// In-place orthonormal WHT: the unscaled transform, then the 2^{-d/2}
/// scale. Involution: WHT(WHT(x)) == x.
void WalshHadamard(std::vector<double>* x);

/// Out-of-place convenience wrapper.
std::vector<double> WalshHadamardCopy(std::vector<double> x);

/// Single Fourier coefficient <f^alpha, x> computed directly in O(N)
/// (useful when only a few coefficients are needed and N is large).
double FourierCoefficient(const std::vector<double>& x, bits::Mask alpha);

/// The dense orthonormal Hadamard matrix H with H(alpha, beta) =
/// 2^{-d/2} (-1)^{<alpha,beta>}; row alpha is the basis vector f^alpha.
/// Only practical for small d (tests, worked examples).
linalg::Matrix HadamardMatrix(int d);

/// True iff n is a power of two (and > 0).
bool IsPowerOfTwo(std::size_t n);

/// log2 of a power of two.
int Log2OfPowerOfTwo(std::size_t n);

}  // namespace transform
}  // namespace dpcube

#endif  // DPCUBE_TRANSFORM_WALSH_HADAMARD_H_
