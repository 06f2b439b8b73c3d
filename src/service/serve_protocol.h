// Copyright 2026 The dpcube Authors.
//
// The `dpcube serve` session: one conversation over a request/response
// stream pair, factored out of the CLI so the request loop can be driven
// in-process (stream in, stream out) by tests — in particular the seeded
// fuzz harness in tests/service/serve_protocol_fuzz_test.cc.
//
// Requests are text lines in every protocol version (one response per
// request line):
//   HELLO v1|v2 [text|binary]  negotiate protocol version and response
//                             codec (v2; see service/request.h)
//   load NAME PATH            load a release CSV under NAME
//   unload NAME               drop a release (and its cached tables)
//   list                      enumerate loaded releases
//   query NAME marginal MASK  full derived marginal over MASK
//   query NAME cell MASK C    one cell of that marginal
//   query NAME range MASK L H sum of local cells [L, H]
//   batch N                   read next N query lines, run them
//                             concurrently on the executor
//   stats                     cache hit/miss/eviction counters
//   STATS                     server-level counters + latency quantiles
//                             (network mode only; see SetServerStatsHandler)
//   quit                      exit
//
// Responses are typed (service::Response) and leave through the
// negotiated codec: under text (the default, bit-compatible with v1)
// they are "OK ..." / "ERR <message>" lines; under the v2 binary codec
// they are the records of service/wire_codec.h. "BUSY <reason>"
// additionally exists at the network layer when admission control sheds
// a request before it ever reaches a session, and "ERR QuotaExceeded:
// ..." when a per-release query quota (SetQueryQuotaGate) runs out.

#ifndef DPCUBE_SERVICE_SERVE_PROTOCOL_H_
#define DPCUBE_SERVICE_SERVE_PROTOCOL_H_

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/trace_metrics.h"
#include "service/batch_executor.h"
#include "service/marginal_cache.h"
#include "service/mutation.h"
#include "service/query_service.h"
#include "service/release_store.h"
#include "service/request.h"
#include "service/service_metrics.h"
#include "service/wire_codec.h"

namespace dpcube {
namespace service {

/// One serve conversation over a request/response stream pair. The
/// session borrows its collaborators; the executor (and therefore its
/// pool) must outlive it.
class ServeSession {
 public:
  ServeSession(std::shared_ptr<ReleaseStore> store,
               std::shared_ptr<MarginalCache> cache,
               std::shared_ptr<const QueryService> service,
               const BatchExecutor* executor);

  /// Reads request lines from `in` until quit/EOF, writing responses to
  /// `out` (flushed after every response, suitable for pipes).
  void Run(std::istream& in, std::ostream& out);

  /// Processes every complete request line in `in`, appending one
  /// encoded response per request to `out`. This is Run without the
  /// per-response flushing: the network server calls it once per decoded
  /// frame (a frame payload is a self-contained chunk of protocol
  /// conversation — possibly several pipelined lines, possibly a batch
  /// header plus its sub-lines). Returns false iff a quit/exit request
  /// was processed (remaining payload lines are not read, matching Run).
  /// A "batch N" whose sub-lines are cut off by the end of `in` answers
  /// "ERR unexpected EOF inside batch", bounding the error to the frame.
  ///
  /// `frame_trace`, when non-null, accumulates the frame's encode span
  /// plus verb/release/outcome/batch identity (the network connection
  /// owns the trace, times the frame, and derives the other spans). The
  /// session never shares a trace across threads: one frame executes on
  /// one worker.
  bool ProcessStream(std::istream& in, std::ostream& out,
                     bool flush_each = false,
                     trace::RequestTrace* frame_trace = nullptr);

  /// The response codec currently in effect (mutated by HELLO requests
  /// on whatever thread drives the session; readable from any thread —
  /// the network thread uses it to encode shed/goodbye responses it
  /// flushes AFTER all earlier requests completed, which is exactly when
  /// this value reflects every preceding HELLO).
  Codec codec() const { return codec_.load(std::memory_order_acquire); }

  /// Installs a handler for the extended "STATS" verb (server-level
  /// counters, as opposed to lowercase "stats" which reports the cache).
  /// The callback returns one full response line without the trailing
  /// newline; it runs on whatever thread drives the session, so it must
  /// be thread-safe. Unset (the stdin/stdout CLI mode and tests), the
  /// verb falls through to the unknown-request error.
  void SetServerStatsHandler(std::function<std::string()> handler) {
    server_stats_handler_ = std::move(handler);
  }

  /// Installs the per-release query-quota gate. Called once per query
  /// (batch sub-queries included) with the release name BEFORE any work
  /// happens; returning false denies the query, and `*denial` supplies
  /// the human text of the resulting kQuotaExceeded error. Runs on
  /// whatever thread drives the session, so it must be thread-safe.
  /// Unset, queries are unmetered (the v1 behavior).
  void SetQueryQuotaGate(
      std::function<bool(const std::string& release, std::string* denial)>
          gate) {
    quota_gate_ = std::move(gate);
  }

  /// Installs the per-verb telemetry table (resolved once against the
  /// server's registry; see service/service_metrics.h). Every processed
  /// request bumps its verb's counter, and every non-kOk response bumps
  /// its error-code counter. Unset (CLI mode and most tests), the
  /// session counts nothing.
  void SetMetrics(std::shared_ptr<const SessionMetrics> metrics) {
    metrics_ = std::move(metrics);
  }

  /// Installs the tracing-side metric table (see common/trace_metrics.h).
  /// With it set, every answered query bumps its release's labelled
  /// counter, and every batch group records its release's latency; the
  /// per-query latency comes from the published trace. Unset, nothing
  /// is recorded.
  void SetTraceMetrics(
      std::shared_ptr<const trace::ServingTraceMetrics> trace_metrics) {
    trace_metrics_ = std::move(trace_metrics);
  }

  /// Called after every successful `load NAME PATH` with the release
  /// name, on the thread driving the session (must be thread-safe).
  /// The listener uses it to register the release's build-phase gauges
  /// the moment a release appears at runtime.
  void SetReleaseLoadedHook(std::function<void(const std::string&)> hook) {
    release_loaded_hook_ = std::move(hook);
  }

  /// Routes the mutating verbs (load/unload) through an external state
  /// machine instead of the in-memory store. With `serve --state-dir`
  /// the listener installs DurableState::Apply here, so a wire-driven
  /// load is changelog-appended and fsync'd before it takes effect.
  /// Runs on whatever thread drives the session (must be thread-safe).
  /// Unset, mutations apply directly to the store/service (the
  /// volatile behavior).
  void SetMutationHandler(std::function<Status(const Mutation&)> handler) {
    mutation_handler_ = std::move(handler);
  }

 private:
  /// Executes one non-batch, non-HELLO typed request.
  Response ExecuteRequest(const Request& request);
  /// Applies a mutating verb: through the installed handler (durable
  /// path) or directly to the in-memory structures.
  Status ApplyMutation(const Mutation& mutation);
  /// Handles "HELLO ...": returns the ack and, on success, switches the
  /// codec AFTER the ack was encoded in the previous one.
  void HandleHello(const Request& request, std::ostream& out);
  /// Handles "batch N": consumes the sub-lines from `in` and responds.
  void HandleBatch(const Request& request, std::istream& in,
                   std::ostream& out);
  /// Quota check for one query; fills `*denied` when the gate refuses.
  bool CheckQuota(const Query& query, Response* denied) const;
  /// Encodes `response` under the current codec, counting any non-kOk
  /// code in the error telemetry first. Every response leaves through
  /// here so the error counters can never miss a path.
  void Emit(const Response& response, std::ostream& out);
  /// Encodes `response` under the current codec; with a frame trace,
  /// adds the time taken to its encode span.
  void Encode(const Response& response, std::ostream& out);

  std::shared_ptr<ReleaseStore> store_;
  std::shared_ptr<MarginalCache> cache_;
  std::shared_ptr<const QueryService> service_;
  const BatchExecutor* executor_;
  std::function<std::string()> server_stats_handler_;
  std::function<bool(const std::string&, std::string*)> quota_gate_;
  std::shared_ptr<const SessionMetrics> metrics_;
  std::shared_ptr<const trace::ServingTraceMetrics> trace_metrics_;
  std::function<void(const std::string&)> release_loaded_hook_;
  std::function<Status(const Mutation&)> mutation_handler_;
  /// The frame trace currently being filled (only while ProcessStream
  /// runs; a session executes one frame at a time, so no sharing).
  trace::RequestTrace* active_trace_ = nullptr;
  std::atomic<Codec> codec_{Codec::kText};
};

}  // namespace service
}  // namespace dpcube

#endif  // DPCUBE_SERVICE_SERVE_PROTOCOL_H_
