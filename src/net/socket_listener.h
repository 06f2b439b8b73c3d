// Copyright 2026 The dpcube Authors.
//
// The TCP front end of `dpcube serve`: one acceptor and N pollers, each
// a thread running its own EventLoop (see event_loop.h).
//
//   * Serve()'s thread is the ACCEPTOR: its loop owns the listen fd,
//     runs admission (refused peers get a one-frame BUSY goodbye and a
//     lingering close), and hands each admitted socket to one of N
//     POLLER threads chosen round-robin (`net_threads`, default
//     min(4, hardware threads)).
//   * Each Connection is pinned to its poller for life: the poller owns
//     its loop, its connections map, and its linger set (see
//     poller.h), so no connection state is ever shared between network
//     threads. All query execution still happens on the ServeContext's
//     ThreadPool; no network thread ever computes.
//
// The listener also owns the observability surface: a metrics::Registry
// every collaborator registers into (per-verb counters from the
// sessions, span/per-verb/per-release latency from each connection's
// published request traces, callback gauges over admission/cache/pool
// state and the per-poller connection counts, a /proc resource tracker)
// and — when http_listen_address is set — an HttpEndpoint on the
// acceptor's loop serving /metrics, /healthz, /statusz, and /tracez.
//
// Shutdown is graceful: stop accepting, broadcast BeginDrain to every
// poller, let every admitted request finish and flush (bounded by
// drain_timeout_ms). Each poller posts its exit back to the acceptor's
// loop, which keeps serving HTTP until the last one has — so /healthz
// answers 503 for the whole drain window instead of refusing the
// connection — and then runs until its own lingering closes resolve.
// Serve() returns only after every poller thread has exited.

#ifndef DPCUBE_NET_SOCKET_LISTENER_H_
#define DPCUBE_NET_SOCKET_LISTENER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fd.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/admission.h"
#include "net/address.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/http_endpoint.h"
#include "net/linger.h"
#include "net/poller.h"
#include "service/serve_config.h"
#include "service/service_metrics.h"

namespace dpcube {
namespace net {

struct ServerOptions {
  /// "host:port"; port 0 binds an ephemeral port (see bound_port()).
  std::string listen_address = "127.0.0.1:0";
  /// "host:port" for the HTTP observability endpoint (/metrics,
  /// /healthz, /statusz, /tracez); empty disables HTTP entirely.
  std::string http_listen_address;
  /// When non-empty, /metrics, /statusz, and /tracez require
  /// "Authorization: Bearer <token>" (401 otherwise). /healthz stays
  /// open so load balancers need no secret.
  std::string http_token;
  /// Completed-request traces kept for /tracez (the "recent" view);
  /// 0 drops only the ring — spans, latency metrics and access-log
  /// records are recorded either way.
  std::size_t trace_ring_capacity = 256;
  /// Keep-slowest reservoir size for /tracez's "slowest" view.
  std::size_t trace_slowest_capacity = 16;
  /// When non-empty, every completed request appends one JSONL record
  /// here (opened in Start(); open failure fails Start()).
  std::string access_log_path;
  /// Traces at or above this total latency are flagged slow (WARN log
  /// level, slow=1 in /tracez). 0 flags nothing.
  int slow_query_ms = 0;
  AdmissionConfig admission;
  /// Per-frame payload cap handed to each connection's decoder.
  std::size_t max_frame_payload = std::size_t{1} << 20;
  /// When set (>= 0), Serve() also exits once this fd becomes readable
  /// (watched until that first edge; never read or closed).
  int shutdown_fd = -1;
  /// Grace period for in-flight work at shutdown.
  int drain_timeout_ms = 10000;
  /// Event-loop poller threads. Each accepted connection is pinned to
  /// one for its lifetime; 0 resolves to min(4, hardware threads),
  /// clamped to [1, 64].
  int net_threads = 0;
};

/// The poller count `net_threads` resolves to (exposed for the CLI's
/// startup banner and tests).
int ResolveNetThreads(int net_threads);

/// The one translation from the validated serve configuration to the
/// listener's options. Every knob a ServeConfig carries for the network
/// layer is consumed here, so the CLI cannot drift from the server: a
/// new flag either lands in this function or it does nothing.
ServerOptions ServerOptionsFromConfig(const service::ServeConfig& config);

class SocketListener {
 public:
  SocketListener(ServerOptions options, ServeContext context);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens (the protocol port, and the HTTP port when
  /// configured). After OK, bound_port()/http_bound_address() are real.
  Status Start();

  /// Spawns the poller threads and runs the accept loop until
  /// Shutdown()/shutdown_fd, then drains and joins them. Returns the
  /// count of connections served over the loop's lifetime. Call from
  /// exactly one thread, after Start().
  Result<std::uint64_t> Serve();

  /// Thread-safe graceful-shutdown request; one made before Serve()
  /// takes effect as soon as it starts.
  void Shutdown();

  std::uint16_t bound_port() const { return bound_port_; }
  std::string bound_address() const;
  /// "" when HTTP is disabled; the real host:port after Start().
  std::string http_bound_address() const;

  const AdmissionController& admission() const { return *admission_; }
  /// Protocol frames received so far, shed ones included.
  std::uint64_t frames_received() const;
  /// The registry every server metric lives in (valid for the
  /// listener's lifetime; sessions keep it alive past that).
  const metrics::Registry& registry() const { return *registry_; }

  /// The resolved poller count.
  int net_threads() const { return static_cast<int>(pollers_.size()); }
  /// Connections currently pinned to poller `i` (tests/metrics).
  std::size_t poller_connections(int i) const {
    return pollers_[static_cast<std::size_t>(i)]->connection_count();
  }

  /// The "OK STATS ..." line the per-connection sessions serve for the
  /// STATS verb (public so the CLI/tests can print the same snapshot).
  std::string FormatStatsLine() const;

  /// The completed-request trace ring (null when trace_ring_capacity
  /// was 0). Thread-safe to read while serving.
  std::shared_ptr<const trace::TraceRing> trace_ring() const {
    return trace_ring_;
  }

 private:
  /// Each accepted socket passes admission (and is handed to the next
  /// poller round-robin) or gets a one-frame BUSY goodbye and a
  /// lingering close. Acceptor loop.
  void OnAccepted(UniqueFd fd);
  /// Stops accepting and broadcasts the drain. Acceptor loop;
  /// idempotent.
  void BeginShutdown();
  /// A poller's exit, posted to the acceptor loop. After the last one,
  /// HTTP stops and the loop ends once the BUSY lingers resolve.
  void OnPollerExited();
  /// Registers every listener-level metric family (the trace-fed
  /// latency families and frame counters, admission gauges,
  /// cache/pool/store stats, per-poller connection gauges, resource
  /// tracker) into registry_ and resolves the sessions' per-verb table.
  void RegisterServerMetrics();
  /// Installs the /metrics, /healthz, /statusz, and /tracez routes on
  /// http_ (the first and last two behind the bearer token, when set).
  void InstallHttpRoutes();

  const ServerOptions options_;
  /// Mutable (unlike before the tracing spine): the constructor and
  /// Start() splice the trace ring, trace metrics, and access log into
  /// the context BEFORE any connection copies it.
  ServeContext context_;
  std::shared_ptr<trace::TraceRing> trace_ring_;
  std::shared_ptr<AdmissionController> admission_;
  std::shared_ptr<metrics::Registry> registry_;
  /// Per-verb pointer table shared by every session; its control block
  /// keeps registry_ alive, so a pool task finishing after teardown can
  /// still bump its counters safely.
  std::shared_ptr<const service::SessionMetrics> session_metrics_;
  std::shared_ptr<metrics::ResourceTracker> resource_tracker_;
  /// The acceptor's loop (created by Start(), run by Serve()). Declared
  /// before everything attached to it, so it is destroyed last.
  std::shared_ptr<EventLoop> loop_;
  std::unique_ptr<HttpEndpoint> http_;
  /// Set when drain begins; /healthz flips to 503 on it. shared_ptr so
  /// the health handler outlives nothing it doesn't own.
  std::shared_ptr<std::atomic<bool>> draining_flag_;
  std::chrono::steady_clock::time_point started_at_;
  /// The event-loop fleet; constructed with the listener (so metrics
  /// can register over them), threads spawned by Serve().
  std::vector<std::unique_ptr<Poller>> pollers_;
  std::size_t next_poller_ = 0;  ///< Round-robin cursor.
  /// Lingering closes for refused (BUSY) accepts and answered HTTP
  /// requests, on the acceptor's loop — these sockets never become
  /// Connections.
  std::shared_ptr<LingerSet> busy_linger_;
  UniqueFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  std::string host_;
  std::atomic<bool> shutdown_requested_{false};
  // Acceptor-loop state.
  std::unique_ptr<Acceptor> acceptor_;
  std::size_t live_pollers_ = 0;
  std::uint64_t next_connection_id_ = 1;
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_SOCKET_LISTENER_H_
