// Copyright 2026 The dpcube Authors.
//
// Per-verb serving telemetry: the resolved metric pointers a
// ServeSession bumps on its hot path. Resolution (name -> pointer)
// happens ONCE, at server startup, against the listener's registry;
// every session then shares the same immutable pointer table, so a
// request costs one relaxed atomic add — no lock, no map lookup, no
// string. The session only counts; latency is timed by the connection
// and recorded from the published trace (common/trace_metrics.h).

#ifndef DPCUBE_SERVICE_SERVICE_METRICS_H_
#define DPCUBE_SERVICE_SERVICE_METRICS_H_

#include <array>
#include <memory>

#include "common/metrics.h"
#include "service/request.h"

namespace dpcube {
namespace service {

/// Stable lowercase verb label for a request kind ("load", "query",
/// "batch", ... — "invalid" for unparseable lines), used both as the
/// Prometheus `verb` label and as the STATS verb's key names.
const char* VerbName(RequestKind kind);

/// The pointer table. All pointers refer to registry-owned objects and
/// stay valid as long as the registry; sessions hold the table through
/// a shared_ptr<const SessionMetrics> so ownership is explicit.
struct SessionMetrics {
  static constexpr int kKinds = 10;   // RequestKind::kInvalid..kQuit.
  static constexpr int kCodes = 6;    // ErrorCode::kOk..kInternal.

  std::array<metrics::Counter*, kKinds> requests{};
  std::array<metrics::Counter*, kCodes> errors{};

  metrics::Counter* request_count(RequestKind kind) const {
    return requests[static_cast<std::size_t>(kind)];
  }
  metrics::Counter* error_count(ErrorCode code) const {
    return errors[static_cast<std::size_t>(code)];
  }

  /// Resolves the table against `registry`: dpcube_requests_total{verb=}
  /// and dpcube_errors_total{code=} (kOk excluded — only failures count
  /// as errors; errors[0] stays null and callers branch on the code).
  static std::shared_ptr<const SessionMetrics> Create(
      metrics::Registry* registry);
};

}  // namespace service
}  // namespace dpcube

#endif  // DPCUBE_SERVICE_SERVICE_METRICS_H_
