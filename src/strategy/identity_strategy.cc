// Copyright 2026 The dpcube Authors.

#include "strategy/identity_strategy.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "common/thread_pool.h"
#include "dp/mechanisms.h"
#include "marginal/projection.h"

namespace dpcube {
namespace strategy {

IdentityStrategy::IdentityStrategy(marginal::Workload workload,
                                   linalg::Vector query_weights)
    : workload_(std::move(workload)) {
  assert(query_weights.empty() ||
         query_weights.size() == workload_.num_marginals());
  const auto start = std::chrono::steady_clock::now();
  // One group covering all N rows. Recovery R = Q: base cell j is used by
  // exactly one cell of every workload marginal with coefficient 1, so
  // b_j = 2 * sum_i a_i and s_1 = 2 * (sum_i a_i) * N.
  //
  // Unit weights sum to the (integer) marginal count exactly; weighted
  // workloads reduce over fixed-size blocks merged in block order, so the
  // sum is a pure function of the weights, never of the thread count.
  double weight_total = 0.0;
  const std::size_t num_marginals = workload_.num_marginals();
  if (query_weights.empty()) {
    weight_total = static_cast<double>(num_marginals);
  } else {
    weight_total = ThreadPool::Shared().ParallelSumBlocks(
        0, num_marginals, 1024, [&](std::size_t lo, std::size_t hi) {
          double sum = 0.0;
          for (std::size_t i = lo; i < hi; ++i) sum += query_weights[i];
          return sum;
        });
  }
  budget::GroupSummary g;
  g.column_norm = 1.0;
  const double n = std::pow(2.0, workload_.d());
  g.weight_sum = 2.0 * weight_total * n;
  g.num_rows = std::uint64_t{1} << workload_.d();
  groups_ = {g};
  construction_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

Result<Release> IdentityStrategy::Run(const data::SparseCounts& data,
                                      const linalg::Vector& group_budgets,
                                      const dp::PrivacyParams& params,
                                      Rng* rng) const {
  if (group_budgets.size() != 1) {
    return Status::InvalidArgument("IdentityStrategy expects 1 group budget");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  const double eta = group_budgets[0];
  if (!(eta > 0.0)) {
    return Status::InvalidArgument("group budget must be positive");
  }
  // The true marginals come from one shared projection of the data;
  // marginal i is then perturbed independently using child noise stream
  // i of one master draw (Rng::Stream rule), so the release is
  // bit-identical for every thread count.
  const marginal::WorkloadProjection truth(data, workload_);
  const std::uint64_t noise_base = rng->NextUint64();
  const std::size_t num_marginals = workload_.num_marginals();
  Release release;
  release.consistent = false;
  release.cell_variances.assign(num_marginals, 0.0);
  // 1-cell placeholders; every slot is move-assigned by its worker
  // before the join returns.
  release.marginals.assign(num_marginals, marginal::MarginalTable(0, 0));
  ThreadPool::Shared().ParallelFor(0, num_marginals, 1, [&](std::size_t i) {
    const bits::Mask alpha = workload_.mask(i);
    Rng child = Rng::Stream(noise_base, i);
    marginal::MarginalTable table = truth.marginals()[i];
    const std::uint64_t base_cells_per_output =
        std::uint64_t{1} << (workload_.d() - bits::Popcount(alpha));
    for (std::size_t g = 0; g < table.num_cells(); ++g) {
      table.value(g) +=
          dp::SampleNoiseSum(base_cells_per_output, eta, params, &child);
    }
    release.cell_variances[i] = static_cast<double>(base_cells_per_output) *
                                dp::MeasurementVariance(eta, params);
    release.marginals[i] = std::move(table);
  });
  return release;
}

Result<linalg::Matrix> IdentityStrategy::DenseStrategyMatrix() const {
  if (workload_.d() > 14) {
    return Status::InvalidArgument("domain too large to materialise I");
  }
  return linalg::Matrix::Identity(std::size_t{1} << workload_.d());
}

Result<int> IdentityStrategy::RowGroupOfDenseRow(std::size_t row) const {
  (void)row;
  return 0;
}


Result<linalg::Vector> IdentityStrategy::PredictCellVariances(
    const linalg::Vector& group_budgets,
    const dp::PrivacyParams& params) const {
  if (group_budgets.size() != 1 || !(group_budgets[0] > 0.0)) {
    return Status::InvalidArgument("IdentityStrategy: bad group budgets");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  linalg::Vector out;
  out.reserve(workload_.num_marginals());
  for (std::size_t i = 0; i < workload_.num_marginals(); ++i) {
    const std::uint64_t base_cells =
        std::uint64_t{1} << (workload_.d() - bits::Popcount(workload_.mask(i)));
    out.push_back(static_cast<double>(base_cells) *
                  dp::MeasurementVariance(group_budgets[0], params));
  }
  return out;
}

}  // namespace strategy
}  // namespace dpcube
