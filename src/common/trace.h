// Copyright 2026 The dpcube Authors.
//
// The request-tracing spine of the serving path. Every request frame
// that enters the TCP front end carries a RequestTrace through its
// lifetime — decode, admission, pool queue, compute, encode, flush —
// and, once the last response byte reaches the socket, the completed
// trace is the request's one clock: it alone feeds the span, per-verb
// and per-release latency histograms of the metrics registry, the
// optional structured access log, and — unless its capacity is 0 — a
// fixed-capacity ring (every request) with a keep-slowest reservoir
// (the worst offenders survive ring wrap). The /tracez page renders the
// ring.
//
// Concurrency contract (this is what the TSan matrix holds us to):
//   * one trace is only ever written by one thread at a time — the
//     pool worker's session adds up the encode span and the frame's
//     identity, the network thread turns the frame's clock readings
//     into spans once the last byte is flushed, and the hand-off rides
//     the connection's existing slot mutex, so the struct itself needs
//     no atomics;
//   * TraceRing::Record is called concurrently from every poller
//     thread. Slots are claimed by an atomic ticket and the payload
//     copy is guarded by a per-slot mutex (traces carry strings, so a
//     lock-free seqlock over the payload would be bytes-racy under
//     TSan; the ticket keeps claiming lock-free, the per-slot lock is
//     only contended when the ring wraps onto an in-progress reader);
//   * readers (the /tracez handler) snapshot newest-first under the
//     same per-slot locks and use the stored ticket to discard slots
//     that were overwritten mid-walk.
//
// TraceContext is the forward-looking seam: it is the minimal identity
// a sharding coordinator (ROADMAP item 3) must propagate across the
// wire so one user request can be stitched together from per-shard
// traces.

#ifndef DPCUBE_COMMON_TRACE_H_
#define DPCUBE_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace dpcube {
namespace trace {

/// The span timeline of one request frame, in pipeline order.
enum class Span : std::uint8_t {
  kDecode = 0,  ///< Socket readable to frame decoded.
  kAdmit,       ///< Admission-control decision.
  kQueue,       ///< Admitted to first worker instruction.
  kCompute,     ///< Verb execution (per-verb work, batch fan-out).
  kEncode,      ///< Response encoding under the negotiated codec.
  kFlush,       ///< Response ready to last byte written.
};
inline constexpr int kNumSpans = 6;

/// Stable lowercase span label ("decode", ..., "flush") — the
/// Prometheus `span` label and the /tracez column names.
const char* SpanName(Span span);

/// The identity a request trace carries across component (and, later,
/// shard) boundaries. Deliberately tiny and trivially serialisable:
/// ROADMAP item 3's coordinator forwards exactly this to the owning
/// shards so per-shard traces can be joined into one timeline.
struct TraceContext {
  std::uint64_t trace_id = 0;       ///< Process-unique, never 0 once set.
  std::uint64_t connection_id = 0;  ///< Originating connection.
};

/// One completed request frame's timeline, as recorded into the ring.
struct RequestTrace {
  TraceContext context;

  std::string verb;     ///< First verb of the frame ("query", "batch");
                        ///< empty for frames shed before parsing.
  std::string release;  ///< First release touched; empty if none.
  std::string codec;    ///< Response codec at completion ("text", ...).
  std::string outcome;  ///< "Ok" or the first error code's name.

  std::uint64_t request_bytes = 0;   ///< Decoded frame payload bytes.
  std::uint64_t response_bytes = 0;  ///< Encoded response payload bytes.

  std::array<std::uint64_t, kNumSpans> span_micros{};
  /// Bit s is set iff the frame passed through span s (set_span marks
  /// it): a shed frame never queues or computes, and a 0 us span the
  /// frame did pass through is still a sample.
  std::uint8_t span_mask = 0;
  std::uint64_t total_micros = 0;  ///< Decode start to flush complete.

  std::uint32_t batch_queries = 0;  ///< Sub-queries (batch frames).
  std::uint64_t batch_max_group_micros = 0;  ///< Slowest batch group.

  bool slow = false;  ///< total_micros crossed --slow-query-ms.

  std::uint64_t span(Span s) const {
    return span_micros[static_cast<std::size_t>(s)];
  }
  bool has_span(Span s) const {
    return (span_mask & (1u << static_cast<unsigned>(s))) != 0;
  }
  void set_span(Span s, std::uint64_t micros) {
    span_micros[static_cast<std::size_t>(s)] = micros;
    span_mask = static_cast<std::uint8_t>(
        span_mask | (1u << static_cast<unsigned>(s)));
  }
};

/// Process-unique trace id (monotonic, starts at 1; never returns 0 so
/// "0" can mean "untraced" everywhere).
std::uint64_t NextTraceId();

/// Fixed-capacity ring of completed traces plus a keep-slowest
/// reservoir. Thread-safe; see the header comment for the contract.
class TraceRing {
 public:
  /// `capacity` slots of recent traces (>= 1) and `slowest_capacity`
  /// reservoir entries (0 disables the reservoir).
  explicit TraceRing(std::size_t capacity, std::size_t slowest_capacity = 16);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one completed trace (any thread).
  void Record(const RequestTrace& trace);

  /// Newest-first snapshot of up to `max` recent traces. Slots
  /// overwritten while the walk runs are skipped, so the result is
  /// always a set of internally-consistent traces (possibly fewer than
  /// the ring holds under heavy concurrent writes).
  std::vector<RequestTrace> Recent(std::size_t max) const;

  /// Slowest-first snapshot of the keep-slowest reservoir.
  std::vector<RequestTrace> Slowest() const;

  std::size_t capacity() const { return slots_.size(); }
  std::size_t slowest_capacity() const { return slowest_capacity_; }
  /// Traces ever recorded (monotonic).
  std::uint64_t recorded_total() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable sync::Mutex mu;
    std::uint64_t ticket GUARDED_BY(mu) = 0;  ///< 1-based ticket held.
    RequestTrace trace GUARDED_BY(mu);
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_ticket_{0};

  // Keep-slowest reservoir: a relaxed threshold read rejects the common
  // fast request without touching the mutex; candidates at or above the
  // current minimum take the lock and re-check.
  const std::size_t slowest_capacity_;
  std::atomic<std::uint64_t> slow_threshold_{0};
  mutable sync::Mutex slow_mu_;
  /// Sorted slowest-first.
  std::vector<RequestTrace> slowest_ GUARDED_BY(slow_mu_);
};

}  // namespace trace
}  // namespace dpcube

#endif  // DPCUBE_COMMON_TRACE_H_
