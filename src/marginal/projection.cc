// Copyright 2026 The dpcube Authors.

#include "marginal/projection.h"

#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/thread_pool.h"
#include "transform/walsh_hadamard.h"

namespace dpcube {
namespace marginal {
namespace {

// The dense table over U may hold at most this many cells per occupied
// cell, which bounds its memory by a small multiple of the input.
constexpr std::uint64_t kDenseSlack = 8;

bool TakesDenseRoute(int union_bits, std::size_t num_masks,
                     std::size_t occupied) {
  // A 2^48-cell table is never within kDenseSlack of an in-memory entry
  // list; the guard also keeps the shifts below in range.
  if (union_bits >= 48) return false;
  const std::uint64_t cells = std::uint64_t{1} << union_bits;
  return cells <= kDenseSlack * occupied &&
         static_cast<std::uint64_t>(union_bits) * cells <
             static_cast<std::uint64_t>(num_masks) * occupied;
}

}  // namespace

WorkloadProjection::WorkloadProjection(const data::SparseCounts& counts,
                                       const Workload& workload)
    : d_(workload.d()), masks_(workload.masks()) {
  assert(counts.d() == d_);
  for (const bits::Mask alpha : masks_) union_ |= alpha;
  // 1-cell placeholders; every slot is move-assigned by its worker
  // before the join returns.
  marginals_.assign(masks_.size(), MarginalTable(0, 0));
  ThreadPool& pool = ThreadPool::Shared();
  if (!TakesDenseRoute(bits::Popcount(union_), masks_.size(),
                       counts.num_occupied())) {
    pool.ParallelFor(0, masks_.size(), 1, [&](std::size_t i) {
      marginals_[i] = ComputeMarginal(counts, masks_[i]);
    });
    return;
  }
  sums_.assign(std::size_t{1} << bits::Popcount(union_), 0.0);
  for (const data::SparseCounts::Entry& e : counts.entries()) {
    sums_[bits::CompressFromMask(e.cell, union_)] += e.count;
  }
  transform::WalshHadamardUnscaled(&sums_);
  // Marginal alpha: gather its S_beta in local order, transform back,
  // divide by 2^k (exact: the transform yields 2^k times the counts).
  pool.ParallelFor(0, masks_.size(), 1, [&](std::size_t i) {
    MarginalTable table(masks_[i], d_);
    std::vector<double>& values = table.mutable_values();
    for (std::size_t l = 0; l < values.size(); ++l) {
      values[l] =
          sums_[bits::CompressFromMask(bits::ExpandIntoMask(l, masks_[i]),
                                       union_)];
    }
    transform::WalshHadamardUnscaled(&values);
    const int k = table.k();
    for (double& v : values) v = std::ldexp(v, -k);
    marginals_[i] = std::move(table);
  });
}

linalg::Vector WorkloadProjection::FourierCoefficients(
    const FourierIndex& index) const {
  assert(index.d() == d_);
  const double scale = std::pow(2.0, -0.5 * d_);
  linalg::Vector out(index.size());
  ThreadPool& pool = ThreadPool::Shared();
  if (dense()) {
    pool.ParallelFor(0, index.size(), 4096, [&](std::size_t i) {
      out[i] = sums_[bits::CompressFromMask(index.mask(i), union_)] * scale;
    });
    return out;
  }
  // Coefficient beta belongs to the first workload marginal covering it,
  // so a fractional table reads every coefficient from one fixed place.
  const std::size_t unowned = masks_.size();
  std::vector<std::size_t> owner(index.size(), unowned);
  for (std::size_t j = 0; j < masks_.size(); ++j) {
    for (bits::SubmaskIterator it(masks_[j]); !it.done(); it.Next()) {
      std::size_t& o = owner[index.IndexOf(it.mask())];
      if (o == unowned) o = j;
    }
  }
  // Local index l of marginal alpha is beta = ExpandIntoMask(l, alpha),
  // and the local sign (-1)^{<l, g>} equals the global one, so entry l
  // of the unscaled local transform is S_beta.
  pool.ParallelFor(0, masks_.size(), 1, [&](std::size_t j) {
    std::vector<double> local = marginals_[j].values();
    transform::WalshHadamardUnscaled(&local);
    for (std::size_t l = 0; l < local.size(); ++l) {
      const std::size_t i = index.IndexOf(bits::ExpandIntoMask(l, masks_[j]));
      if (owner[i] == j) out[i] = local[l] * scale;
    }
  });
  return out;
}

}  // namespace marginal
}  // namespace dpcube
