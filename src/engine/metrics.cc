// Copyright 2026 The dpcube Authors.

#include "engine/metrics.h"

#include <algorithm>
#include <cmath>

#include "marginal/projection.h"

namespace dpcube {
namespace engine {

Result<ErrorReport> EvaluateRelease(
    const marginal::Workload& workload, const data::SparseCounts& data,
    const std::vector<marginal::MarginalTable>& released) {
  if (released.size() != workload.num_marginals()) {
    return Status::InvalidArgument("released marginal count mismatch");
  }
  const marginal::WorkloadProjection projection(data, workload);
  ErrorReport report;
  double abs_sum = 0.0;
  std::size_t cell_count = 0;
  double rel_sum = 0.0;
  std::size_t rel_count = 0;

  for (std::size_t i = 0; i < released.size(); ++i) {
    if (released[i].alpha() != workload.mask(i)) {
      return Status::InvalidArgument("released marginals out of order");
    }
    const marginal::MarginalTable& truth = projection.marginals()[i];
    double marginal_abs = 0.0;
    for (std::size_t g = 0; g < truth.num_cells(); ++g) {
      const double err = std::fabs(released[i].value(g) - truth.value(g));
      marginal_abs += err;
      report.max_absolute_error = std::max(report.max_absolute_error, err);
    }
    abs_sum += marginal_abs;
    cell_count += truth.num_cells();

    const double mean_true = truth.MeanCellValue();
    const double mean_abs =
        marginal_abs / static_cast<double>(truth.num_cells());
    if (mean_true > 0.0) {
      const double rel = mean_abs / mean_true;
      report.per_marginal_relative.push_back(rel);
      rel_sum += rel;
      ++rel_count;
    } else {
      report.per_marginal_relative.push_back(0.0);
    }
  }
  report.absolute_error =
      cell_count > 0 ? abs_sum / static_cast<double>(cell_count) : 0.0;
  report.relative_error =
      rel_count > 0 ? rel_sum / static_cast<double>(rel_count) : 0.0;
  return report;
}

}  // namespace engine
}  // namespace dpcube
