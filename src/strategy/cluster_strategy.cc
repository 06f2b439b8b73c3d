// Copyright 2026 The dpcube Authors.

#include "strategy/cluster_strategy.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "dp/mechanisms.h"
#include "marginal/projection.h"
#include "marginal/query_matrix.h"

namespace dpcube {
namespace strategy {

ClusterStrategy::ClusterStrategy(marginal::Workload workload,
                                 linalg::Vector query_weights)
    : workload_(std::move(workload)) {
  assert(query_weights.empty() ||
         query_weights.size() == workload_.num_marginals());
  const auto start = std::chrono::steady_clock::now();
  RunClustering();
  // Group summaries: one group per materialised marginal.
  std::vector<double> assigned_weight(materialized_.size(), 0.0);
  for (std::size_t q = 0; q < cover_of_.size(); ++q) {
    assigned_weight[cover_of_[q]] +=
        query_weights.empty() ? 1.0 : query_weights[q];
  }
  groups_.reserve(materialized_.size());
  for (std::size_t m = 0; m < materialized_.size(); ++m) {
    budget::GroupSummary g;
    g.column_norm = 1.0;
    g.num_rows = std::uint64_t{1} << bits::Popcount(materialized_[m]);
    // Each cell of the centroid feeds exactly one cell of every assigned
    // query: b_cell = 2 * sum of assigned query weights.
    g.weight_sum = 2.0 * assigned_weight[m] *
                   static_cast<double>(g.num_rows);
    groups_.push_back(g);
  }
  construction_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void ClusterStrategy::AssignCovers(const std::vector<bits::Mask>& centroids,
                                   std::vector<std::size_t>* cover_of) const {
  cover_of->assign(workload_.num_marginals(), 0);
  for (std::size_t q = 0; q < workload_.num_marginals(); ++q) {
    const bits::Mask alpha = workload_.mask(q);
    std::size_t best = centroids.size();
    int best_width = std::numeric_limits<int>::max();
    for (std::size_t m = 0; m < centroids.size(); ++m) {
      if (!bits::IsSubset(alpha, centroids[m])) continue;
      const int width = bits::Popcount(centroids[m]);
      if (width < best_width) {
        best_width = width;
        best = m;
      }
    }
    // Every query is dominated by at least one centroid by construction.
    (*cover_of)[q] = best;
  }
}

double ClusterStrategy::PredictedCost(
    const std::vector<bits::Mask>& centroids,
    const std::vector<std::size_t>& cover_of) const {
  // Uniform-budget epsilon-DP cost model: with |M| unit-column-norm groups,
  // each row budget is eps' / |M|, so a query covered by beta accumulates
  // per-cell variance 2^{||beta|| - ||alpha||} * 2 (|M| / eps')^2 over its
  // 2^{||alpha||} cells. Dropping constants: |M|^2 * sum_q 2^{||cover(q)||}.
  double spread = 0.0;
  for (std::size_t q = 0; q < cover_of.size(); ++q) {
    spread += std::pow(2.0, bits::Popcount(centroids[cover_of[q]]));
  }
  const double m = static_cast<double>(centroids.size());
  return m * m * spread;
}

double ClusterStrategy::EvaluateMerge(
    const std::vector<bits::Mask>& centroids, std::size_t i, std::size_t j,
    std::vector<bits::Mask>* candidate_out,
    std::vector<std::size_t>* cover_out) const {
  std::set<bits::Mask> merged_set(centroids.begin(), centroids.end());
  merged_set.erase(centroids[i]);
  merged_set.erase(centroids[j]);
  merged_set.insert(centroids[i] | centroids[j]);
  std::vector<bits::Mask> candidate(merged_set.begin(), merged_set.end());
  std::vector<std::size_t> candidate_cover;
  AssignCovers(candidate, &candidate_cover);
  // Drop centroids no query uses (a merge can strand them).
  std::vector<bool> used(candidate.size(), false);
  for (std::size_t c : candidate_cover) used[c] = true;
  std::vector<bits::Mask> pruned;
  for (std::size_t m = 0; m < candidate.size(); ++m) {
    if (used[m]) pruned.push_back(candidate[m]);
  }
  if (pruned.size() != candidate.size()) {
    AssignCovers(pruned, &candidate_cover);
    candidate = std::move(pruned);
  }
  const double cost = PredictedCost(candidate, candidate_cover);
  if (candidate_out != nullptr) *candidate_out = std::move(candidate);
  if (cover_out != nullptr) *cover_out = std::move(candidate_cover);
  return cost;
}

void ClusterStrategy::RunClustering() {
  // Start from the distinct query masks.
  std::set<bits::Mask> unique(workload_.masks().begin(),
                              workload_.masks().end());
  std::vector<bits::Mask> centroids(unique.begin(), unique.end());
  std::vector<std::size_t> cover_of;
  AssignCovers(centroids, &cover_of);
  double cost = PredictedCost(centroids, cover_of);

  // Greedy descent; each round evaluates every pair merge in parallel.
  // Candidate costs vary wildly (pruning changes |M|, cover search is
  // O(Q * |M|)), which is exactly the heterogeneous profile the
  // work-stealing schedule exists for. Each pair writes only its own
  // cost slot; the winner is the argmin in pair-enumeration order
  // (i outer, j inner) with ties to the lowest pair index — the same
  // merge the sequential scan's strict `<` would have kept — so the
  // clustering is bit-identical for every thread count and schedule.
  ThreadPool& pool = ThreadPool::Shared();
  bool improved = true;
  while (improved && centroids.size() > 1) {
    improved = false;
    const std::size_t k = centroids.size();
    const std::size_t num_pairs = k * (k - 1) / 2;
    // pair_first[i] = flat index of pair (i, i+1); pairs of a given i are
    // contiguous, matching the sequential enumeration order.
    std::vector<std::size_t> pair_first(k, 0);
    for (std::size_t i = 1; i < k; ++i) {
      pair_first[i] = pair_first[i - 1] + (k - i);  // k-1-(i-1) pairs at i-1.
    }
    auto pair_of = [&](std::size_t p) {
      const std::size_t i =
          static_cast<std::size_t>(
              std::upper_bound(pair_first.begin(), pair_first.end(), p) -
              pair_first.begin()) -
          1;
      return std::pair<std::size_t, std::size_t>(i, i + 1 + (p - pair_first[i]));
    };
    std::vector<double> pair_cost(num_pairs, 0.0);
    pool.ParallelFor(
        0, num_pairs, 1,
        [&](std::size_t p) {
          const auto [i, j] = pair_of(p);
          pair_cost[p] = EvaluateMerge(centroids, i, j, nullptr, nullptr);
        },
        ThreadPool::Schedule::kWorkStealing);
    std::size_t best_pair = num_pairs;
    double best_cost = cost;
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (pair_cost[p] < best_cost) {
        best_cost = pair_cost[p];
        best_pair = p;
      }
    }
    if (best_pair != num_pairs) {
      const auto [i, j] = pair_of(best_pair);
      std::vector<bits::Mask> best_centroids;
      std::vector<std::size_t> best_cover;
      EvaluateMerge(centroids, i, j, &best_centroids, &best_cover);
      centroids = std::move(best_centroids);
      cover_of = std::move(best_cover);
      cost = best_cost;
      improved = true;
    }
  }
  materialized_ = std::move(centroids);
  cover_of_ = std::move(cover_of);
}

Result<Release> ClusterStrategy::Run(const data::SparseCounts& data,
                                     const linalg::Vector& group_budgets,
                                     const dp::PrivacyParams& params,
                                     Rng* rng) const {
  if (group_budgets.size() != materialized_.size()) {
    return Status::InvalidArgument("ClusterStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());

  for (const double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }

  // Measure the centroid marginals, all from one shared projection of
  // the data: per-centroid fan-out, centroid m drawing its noise from
  // child stream m of one master draw (Rng::Stream rule), so the release
  // is bit-identical for every thread count.
  ThreadPool& pool = ThreadPool::Shared();
  const marginal::WorkloadProjection truth(
      data, marginal::Workload(workload_.d(), materialized_));
  const std::uint64_t noise_base = rng->NextUint64();
  // 1-cell placeholders; every slot is move-assigned by its worker
  // before the join returns.
  std::vector<marginal::MarginalTable> noisy(materialized_.size(),
                                             marginal::MarginalTable(0, 0));
  pool.ParallelFor(0, materialized_.size(), 1, [&](std::size_t m) {
    Rng child = Rng::Stream(noise_base, m);
    marginal::MarginalTable table = truth.marginals()[m];
    for (std::size_t g = 0; g < table.num_cells(); ++g) {
      table.value(g) += dp::SampleNoise(group_budgets[m], params, &child);
    }
    noisy[m] = std::move(table);
  });

  // Aggregate each query marginal from its cover (pure post-processing of
  // the noisy centroids; queries are independent of each other).
  const std::size_t num_queries = workload_.num_marginals();
  Release release;
  release.consistent = false;
  release.cell_variances.assign(num_queries, 0.0);
  release.marginals.assign(num_queries, marginal::MarginalTable(0, 0));
  pool.ParallelFor(0, num_queries, 1, [&](std::size_t q) {
    const bits::Mask alpha = workload_.mask(q);
    const marginal::MarginalTable& cover = noisy[cover_of_[q]];
    marginal::MarginalTable out(alpha, workload_.d());
    for (std::size_t g = 0; g < cover.num_cells(); ++g) {
      const bits::Mask cell = cover.GlobalCell(g);
      out.value(bits::CompressFromMask(cell, alpha)) += cover.value(g);
    }
    const int spread = bits::Popcount(materialized_[cover_of_[q]]) -
                       bits::Popcount(alpha);
    release.cell_variances[q] =
        std::pow(2.0, spread) *
        dp::MeasurementVariance(group_budgets[cover_of_[q]], params);
    release.marginals[q] = std::move(out);
  });
  return release;
}

Result<linalg::Matrix> ClusterStrategy::DenseStrategyMatrix() const {
  if (workload_.d() > 14) {
    return Status::InvalidArgument("domain too large to materialise C");
  }
  marginal::Workload strategy_workload(workload_.d(), materialized_);
  return marginal::BuildQueryMatrix(strategy_workload);
}

Result<int> ClusterStrategy::RowGroupOfDenseRow(std::size_t row) const {
  marginal::Workload strategy_workload(workload_.d(), materialized_);
  marginal::RowLayout layout(strategy_workload);
  if (row >= layout.total_rows()) {
    return Status::OutOfRange("dense row out of range");
  }
  return static_cast<int>(layout.Locate(row).first);
}


Result<linalg::Vector> ClusterStrategy::PredictCellVariances(
    const linalg::Vector& group_budgets,
    const dp::PrivacyParams& params) const {
  if (group_budgets.size() != materialized_.size()) {
    return Status::InvalidArgument("ClusterStrategy: budget count mismatch");
  }
  DPCUBE_RETURN_NOT_OK(params.Validate());
  for (double eta : group_budgets) {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument("group budgets must be positive");
    }
  }
  linalg::Vector out;
  out.reserve(workload_.num_marginals());
  for (std::size_t q = 0; q < workload_.num_marginals(); ++q) {
    const int spread = bits::Popcount(materialized_[cover_of_[q]]) -
                       bits::Popcount(workload_.mask(q));
    out.push_back(
        std::pow(2.0, spread) *
        dp::MeasurementVariance(group_budgets[cover_of_[q]], params));
  }
  return out;
}

}  // namespace strategy
}  // namespace dpcube
