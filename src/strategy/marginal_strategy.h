// Copyright 2026 The dpcube Authors.
//
// The strategy abstraction for marginal workloads. A strategy knows its
// grouping summary (what the budget optimizer needs), and can execute the
// measurement + default recovery given per-group budgets, producing noisy
// workload marginals. This deliberately avoids materialising the m x N
// strategy matrix: the Adult-scale domain has N = 2^23 columns. Every
// strategy takes the exact answers it perturbs (marginals or Fourier
// coefficients) from one marginal::WorkloadProjection of the occupied
// cells: a single pass plus one transform when the workload's union
// domain is small next to the data, else one scan per measured marginal
// — never one scan per coefficient. A dense materialisation is still
// available for small domains (tests, worked examples).

#ifndef DPCUBE_STRATEGY_MARGINAL_STRATEGY_H_
#define DPCUBE_STRATEGY_MARGINAL_STRATEGY_H_

#include <string>
#include <vector>

#include "budget/grouping.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/contingency_table.h"
#include "dp/privacy.h"
#include "linalg/matrix.h"
#include "marginal/marginal_table.h"
#include "marginal/workload.h"

namespace dpcube {
namespace strategy {

/// A private release produced by one strategy execution.
struct Release {
  /// Noisy workload marginals, in workload order.
  std::vector<marginal::MarginalTable> marginals;
  /// Per-marginal cell variance (every cell of marginal i has variance
  /// cell_variances[i] under this strategy's default recovery).
  linalg::Vector cell_variances;
  /// True iff the output is already consistent (Definition 2.3), in which
  /// case the engine skips the consistency projection.
  bool consistent = false;
};

/// Interface implemented by the paper's strategies (I, Q, F, C).
class MarginalStrategy {
 public:
  virtual ~MarginalStrategy() = default;

  /// Short display name ("I", "Q", "F", "C").
  virtual const std::string& name() const = 0;

  virtual const marginal::Workload& workload() const = 0;

  /// Group summaries (column norm C_r and recovery weight sum s_r under the
  /// strategy's default recovery with unit query weights a = 1). One entry
  /// per budget group; the privacy constraint is sum_r C_r eta_r <= eps'.
  virtual const std::vector<budget::GroupSummary>& groups() const = 0;

  /// Executes measurement and default recovery. `group_budgets` has one
  /// entry per group (every row in group r uses eta_r).
  virtual Result<Release> Run(const data::SparseCounts& data,
                              const linalg::Vector& group_budgets,
                              const dp::PrivacyParams& params,
                              Rng* rng) const = 0;

  /// Predicts the per-marginal cell variance this strategy's default
  /// recovery would produce under the given budgets — the same numbers
  /// Run() reports, but without touching any data. Lets a data owner
  /// dry-run accuracy before spending budget (engine/variance_report.h).
  virtual Result<linalg::Vector> PredictCellVariances(
      const linalg::Vector& group_budgets,
      const dp::PrivacyParams& params) const = 0;

  /// Dense strategy matrix over the 2^d domain (small d only; tests).
  /// Row order must match the grouping exposed by RowGroupOfDenseRow.
  virtual Result<linalg::Matrix> DenseStrategyMatrix() const {
    return Status::Unimplemented("no dense materialisation for strategy '" +
                                 name() + "'");
  }

  /// Group index of dense-matrix row i (only meaningful alongside
  /// DenseStrategyMatrix).
  virtual Result<int> RowGroupOfDenseRow(std::size_t row) const {
    (void)row;
    return Status::Unimplemented("no dense materialisation");
  }

  /// Wall-clock seconds the constructor spent building the strategy
  /// (clustering search, Fourier support scoring, group summaries).
  /// Construction runs on the shared pool, so this is the number the
  /// construction-scaling benches track; engine::ReleaseWorkload copies
  /// it into PhaseTimings for per-phase attribution.
  double construction_seconds() const { return construction_seconds_; }

 protected:
  double construction_seconds_ = 0.0;  // Set once at the end of each ctor.
};

}  // namespace strategy
}  // namespace dpcube

#endif  // DPCUBE_STRATEGY_MARGINAL_STRATEGY_H_
