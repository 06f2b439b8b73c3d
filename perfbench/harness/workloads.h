// Copyright 2026 The dpcube Authors.
//
// The benchmark workloads and the in-process per-layer probes.
// Each workload fills one Report: the end-to-end metrics when untraced,
// the per-layer metrics (plus the tracing overhead) when traced.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/report.h"
#include "service/query_service.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< Scratch directory inside the checkout.
  std::string dpcube_bin;  ///< The `dpcube` CLI built from this checkout.
  int threads = 1;         ///< Hardware threads of the host.
};

Report RunReleaseWorkload(const RunOptions& options);
// serve_hit: warm cache, open-loop text cell queries.
Report RunServeWorkload(const RunOptions& options);

// Every per-layer metric with its unit, so each traced run reports the
// full set; a layer a workload does not exercise reads 0.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& PerLayerMetrics();
// Fills any per-layer metric the workload left unset with 0.
void FillUnexercisedLayers(Report* report);

// Kernel probes shared by every traced run: WalshHadamard at 2^16 and
// 2^22 points (time and computed bytes moved) and the Laplace sampler.
// `laplace_draws` is the workload's draw count.
void ProbeKernels(std::uint64_t seed, std::uint64_t laplace_draws,
                  Report* report);

// Service probes on a workload's own queries, in process: cache hit vs
// miss answer time, batch execution at 1 and `threads` threads, codec
// encode time and bytes (each binary encoding decoded again and checked
// bit for bit), the store's load-and-fit time for the first release,
// and (given a state dir) the durable layer: concurrent quota charges
// through DurableState::Apply, then a replaying reopen.
struct ServiceProbeInput {
  std::string state_dir;  ///< Empty: skip the durable probe.
  std::vector<std::pair<std::string, std::string>> releases;  ///< name, CSV.
  std::vector<dpcube::service::Query> queries;     ///< The workload's mix.
  std::vector<std::vector<dpcube::service::Query>> batches;
  int threads = 1;
};
void ProbeService(const ServiceProbeInput& input, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
