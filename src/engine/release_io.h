// Copyright 2026 The dpcube Authors.
//
// Serialisation of private releases. A released workload is written as a
// CSV of (marginal mask, local cell index, value) rows with a header
// carrying the domain dimensionality, so a release can be archived,
// diffed, or consumed by downstream tooling without this library.

#ifndef DPCUBE_ENGINE_RELEASE_IO_H_
#define DPCUBE_ENGINE_RELEASE_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/metrics.h"
#include "linalg/matrix.h"
#include "marginal/marginal_table.h"
#include "marginal/workload.h"

namespace dpcube {
namespace engine {

/// Writes released marginals as CSV:
///   # dpcube-release d=<d>
///   # dpcube-cell-variances <v1> <v2> ...        (optional)
///   # dpcube-build-seconds construction=<s> budget=<s> measure=<s>
///       consistency=<s> total=<s>                (optional, one line)
///   mask,cell,value
///   5,0,123.4
///   ...
/// `cell_variances` (one per marginal, the release mechanism's predicted
/// per-cell noise variance) is archived so downstream serving can report
/// true accuracy; empty omits the line, preserving the legacy format.
/// `build_timings` (the pipeline's per-phase wall-clock) is likewise
/// opt-in: nullptr omits the line, so goldens against the legacy format
/// keep passing byte-for-byte.
Status WriteReleaseCsv(const std::string& path,
                       const std::vector<marginal::MarginalTable>& marginals,
                       const linalg::Vector& cell_variances = {},
                       const PhaseTimings* build_timings = nullptr);

/// Reads a release written by WriteReleaseCsv. The reconstructed workload
/// preserves the file's marginal order. `cell_variances` is empty when
/// the file predates the variance header; `has_build_timings` is false
/// when it predates the build-seconds header. The file is rejected, with
/// its path and the record's line, unless 0 <= d <= 63, every mask lies
/// inside the d-bit domain, each mask's records are contiguous, each of
/// its cells appears exactly once (in any order), and every variance
/// token parses, one per marginal.
struct LoadedRelease {
  marginal::Workload workload{0, {}};
  std::vector<marginal::MarginalTable> marginals;
  linalg::Vector cell_variances;
  bool has_build_timings = false;
  PhaseTimings build_timings;
};
Result<LoadedRelease> ReadReleaseCsv(const std::string& path);

}  // namespace engine
}  // namespace dpcube

#endif  // DPCUBE_ENGINE_RELEASE_IO_H_
