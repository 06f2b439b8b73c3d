// Copyright 2026 The dpcube Authors.
//
// The exact answers a marginal workload's strategies perturb, measured
// from one shared projection of the data rather than one occupied-cell
// scan per answer. A WorkloadProjection holds the true marginal C^alpha x
// of every workload mask and yields the Fourier coefficient <f^beta, x>
// of every beta ⪯ some mask. It is built by one of two routes, picked by
// a fixed cost rule on the shape of the data (there is no knob):
//
//  * Dense: one pass over the occupied cells projects them onto a dense
//    table over the workload's union mask U, and one unscaled
//    Walsh-Hadamard transform of that table gives every sum
//    S_beta = sum_cells (-1)^{<beta, cell>} x_cell with beta ⪯ U.
//    Coefficient beta is S_beta 2^{-d/2}; marginal alpha is the unscaled
//    2^k-point transform of its S_beta, divided by 2^k (Theorem 4.1(2)).
//    Taken when 2^|U| is at most kDenseSlack times the occupied-cell
//    count and |U| 2^|U| is below #masks x #occupied — the shared build
//    is then cheaper than the per-mask scans and its table is no larger
//    than a small multiple of the input.
//  * Sparse: one ComputeMarginal scan per workload mask. Coefficient
//    beta is read off the unscaled transform of the first workload
//    marginal that covers it.
//
// Cuboids are computed from one shared aggregate as in Agarwal et al.,
// "On the Computation of Multidimensional Aggregates" (VLDB 1996), and
// the low-order coefficients from one transform as in Barak et al.,
// "Privacy, Accuracy, and Consistency Too" (PODS 2007).
//
// Both routes only add and subtract counts and scale by powers of two.
// On integer counts (every dataset) all partial sums are exact integers
// below 2^53, so each value is bit-identical to ComputeMarginal and
// SparseCounts::FourierCoefficient, whatever the route or thread count.
// On fractional tables the routes agree with those to rounding.

#ifndef DPCUBE_MARGINAL_PROJECTION_H_
#define DPCUBE_MARGINAL_PROJECTION_H_

#include <vector>

#include "common/bits.h"
#include "data/contingency_table.h"
#include "linalg/matrix.h"
#include "marginal/fourier_index.h"
#include "marginal/marginal_table.h"
#include "marginal/workload.h"

namespace dpcube {
namespace marginal {

class WorkloadProjection {
 public:
  WorkloadProjection(const data::SparseCounts& counts,
                     const Workload& workload);

  /// True iff the dense route was taken.
  bool dense() const { return !sums_.empty(); }

  /// The exact marginal of every workload mask, in workload order.
  const std::vector<MarginalTable>& marginals() const { return marginals_; }

  /// The exact coefficients <f^beta, x> in `index` order. `index` must
  /// be the FourierIndex of this projection's workload.
  linalg::Vector FourierCoefficients(const FourierIndex& index) const;

 private:
  int d_;
  std::vector<bits::Mask> masks_;
  bits::Mask union_ = 0;
  // Dense route only: S_beta at CompressFromMask(beta, union_).
  std::vector<double> sums_;
  std::vector<MarginalTable> marginals_;
};

}  // namespace marginal
}  // namespace dpcube

#endif  // DPCUBE_MARGINAL_PROJECTION_H_
