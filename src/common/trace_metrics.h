// Copyright 2026 The dpcube Authors.
//
// The registry-facing half of request tracing, and the only place
// serving latency is recorded. Record(trace) turns one published
// RequestTrace into its samples:
//   * dpcube_span_microseconds{span=...} — every span the frame passed
//     through;
//   * dpcube_request_latency_microseconds{verb=...} — the frame's
//     total_micros (decode to last byte flushed) under its first verb;
//   * dpcube_release_query_latency_microseconds{release=...} — the
//     compute span of a query frame its release answered.
// The frame counters (dpcube_frames_received_total, ..._executed_total,
// dpcube_responses_total) live here too, bumped by the connection.
// Per-release series (the latency above and
// dpcube_release_queries_total, which the session counts) resolve
// lazily as releases are first queried — with a hard cardinality cap,
// because release names arrive on the wire and a hostile client must
// not be able to mint unbounded label sets. Past the cap, every new
// name lands on release="__other__".

#ifndef DPCUBE_COMMON_TRACE_METRICS_H_
#define DPCUBE_COMMON_TRACE_METRICS_H_

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"

namespace dpcube {
namespace trace {

/// Escapes a value for use inside a Prometheus label ("a\"b" etc.).
std::string EscapeLabelValue(const std::string& value);

class ServingTraceMetrics {
 public:
  /// Resolves the span, per-verb (one series per name in `verbs`) and
  /// frame-counter series against `registry`, which must outlive this
  /// object (the serving stack pins it via shared_ptr).
  ServingTraceMetrics(metrics::Registry* registry,
                      const std::vector<std::string>& verbs,
                      std::size_t max_releases = 64);

  ServingTraceMetrics(const ServingTraceMetrics&) = delete;
  ServingTraceMetrics& operator=(const ServingTraceMetrics&) = delete;

  metrics::LatencyHistogram* span_histogram(Span span) const {
    return spans_[static_cast<std::size_t>(span)];
  }

  /// Records one published trace: its spans, its per-verb latency (a
  /// verb outside the constructor's list, such as "(shed)", records
  /// none) and, for a query frame its release answered, the release's
  /// compute latency.
  void Record(const RequestTrace& trace) const;

  /// Bucket-wise sum of every per-verb latency histogram: the latency
  /// distribution of all executed frames.
  std::array<std::uint64_t, metrics::LatencyHistogram::kBuckets>
  RequestLatencyBuckets() const;

  /// The frame counters, bumped by the connection.
  metrics::Counter* const frames_received;
  metrics::Counter* const frames_executed;
  metrics::Counter* const responses;

  struct PerRelease {
    metrics::Counter* queries = nullptr;
    metrics::LatencyHistogram* latency = nullptr;
  };
  /// The per-release series for `release`, creating them on first use.
  /// Thread-safe; past `max_releases` distinct names, returns the
  /// shared "__other__" series.
  PerRelease Release(const std::string& release) const;

 private:
  /// Mints the registry series for one release label. Only touches
  /// registry_ (which locks itself), but is called exclusively from the
  /// insert path, so it inherits the writer hold.
  PerRelease ResolveLocked(const std::string& release) const REQUIRES(mu_);

  metrics::Registry* const registry_;
  std::array<metrics::LatencyHistogram*, kNumSpans> spans_{};
  std::vector<std::pair<std::string, metrics::LatencyHistogram*>> verbs_;
  const std::size_t max_releases_;
  mutable sync::SharedMutex mu_;
  mutable std::map<std::string, PerRelease> releases_ GUARDED_BY(mu_);
};

}  // namespace trace
}  // namespace dpcube

#endif  // DPCUBE_COMMON_TRACE_METRICS_H_
