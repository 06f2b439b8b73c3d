// Copyright 2026 The dpcube Authors.

#include "strategy/query_strategy.h"

#include <cassert>
#include <chrono>

#include "common/thread_pool.h"
#include "dp/mechanisms.h"
#include "marginal/projection.h"
#include "marginal/query_matrix.h"

namespace dpcube {
namespace strategy {

QueryStrategy::QueryStrategy(marginal::Workload workload,
                             linalg::Vector query_weights)
    : workload_(std::move(workload)) {
  assert(query_weights.empty() ||
         query_weights.size() == workload_.num_marginals());
  const auto start = std::chrono::steady_clock::now();
  // Per-marginal scoring writes only its own pre-sized slot, so the
  // fan-out is schedule- and thread-count-invariant. The body is a few
  // ns of arithmetic, so the grain keeps everything below ~4k marginals
  // inline (single chunk) and forks only for genuinely large workloads.
  const std::size_t num_marginals = workload_.num_marginals();
  groups_.assign(num_marginals, budget::GroupSummary{});
  ThreadPool::Shared().ParallelFor(0, num_marginals, 4096, [&](std::size_t i) {
    budget::GroupSummary g;
    g.column_norm = 1.0;
    g.num_rows = std::uint64_t{1} << bits::Popcount(workload_.mask(i));
    // R = I: b_row = 2 a_i for each of the marginal's cells.
    const double a = query_weights.empty() ? 1.0 : query_weights[i];
    g.weight_sum = 2.0 * a * static_cast<double>(g.num_rows);
    groups_[i] = g;
  });
  construction_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

Result<Release> QueryStrategy::Run(const data::SparseCounts& data,
                                   const linalg::Vector& group_budgets,
                                   const dp::PrivacyParams& params,
                                   Rng* rng) const {
  if (group_budgets.size() != groups_.size()) {
    return Status::InvalidArgument("QueryStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  for (const double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }
  // The true marginals come from one shared projection of the data; the
  // per-cuboid noise fan-out draws one child stream per marginal
  // (Rng::Stream rule): bit-identical for every thread count.
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
    const double eta = group_budgets[i];
    Rng child = Rng::Stream(noise_base, i);
    marginal::MarginalTable table = truth.marginals()[i];
    for (std::size_t g = 0; g < table.num_cells(); ++g) {
      table.value(g) += dp::SampleNoise(eta, params, &child);
    }
    release.cell_variances[i] = dp::MeasurementVariance(eta, params);
    release.marginals[i] = std::move(table);
  });
  return release;
}

Result<linalg::Matrix> QueryStrategy::DenseStrategyMatrix() const {
  if (workload_.d() > 14) {
    return Status::InvalidArgument("domain too large to materialise Q");
  }
  return marginal::BuildQueryMatrix(workload_);
}

Result<int> QueryStrategy::RowGroupOfDenseRow(std::size_t row) const {
  marginal::RowLayout layout(workload_);
  if (row >= layout.total_rows()) {
    return Status::OutOfRange("dense row out of range");
  }
  return static_cast<int>(layout.Locate(row).first);
}


Result<linalg::Vector> QueryStrategy::PredictCellVariances(
    const linalg::Vector& group_budgets,
    const dp::PrivacyParams& params) const {
  if (group_budgets.size() != groups_.size()) {
    return Status::InvalidArgument("QueryStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  linalg::Vector out;
  out.reserve(groups_.size());
  for (double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
    out.push_back(dp::MeasurementVariance(eta, params));
  }
  return out;
}

}  // namespace strategy
}  // namespace dpcube
