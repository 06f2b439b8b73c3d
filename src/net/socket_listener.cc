// Copyright 2026 The dpcube Authors.

#include "net/socket_listener.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/trace.h"
#include "common/trace_metrics.h"
#include "engine/metrics.h"
#include "net/address.h"
#include "net/framing.h"
#include "service/durable_state.h"
#include "service/marginal_cache.h"
#include "service/release_store.h"

namespace dpcube {
namespace net {

// serve_config.cc restates the frame-size ceiling as a local constant
// (the service layer must not include net/); this pins the two values
// together so they cannot drift.
static_assert(kMaxFramePayload == (std::size_t{1} << 24),
              "net::kMaxFramePayload moved; update the ceiling in "
              "service/serve_config.cc to match");

namespace {

// One snapshot line, shaped like every other protocol response. Takes
// its collaborators as shared_ptrs so the closure installed into
// sessions can outlive the listener (a pool task may answer STATS while
// the server is tearing down). Every field reads the SAME registry-owned
// series /metrics exports, so the two views can never disagree:
// queue_us from span="queue", exec_us from span="compute", total_us
// from the bucket-wise sum of the per-verb request latencies.
std::string FormatStats(
    const std::shared_ptr<AdmissionController>& admission,
    const std::shared_ptr<const trace::ServingTraceMetrics>& frames,
    const std::shared_ptr<service::MarginalCache>& cache,
    const std::shared_ptr<service::ReleaseStore>& store,
    const std::shared_ptr<const service::SessionMetrics>& verbs) {
  using metrics::LatencyHistogram;
  const service::CacheStats cs = cache->stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  const LatencyHistogram& queue = *frames->span_histogram(trace::Span::kQueue);
  const LatencyHistogram& exec =
      *frames->span_histogram(trace::Span::kCompute);
  const auto total = frames->RequestLatencyBuckets();
  char line[1024];
  int len = std::snprintf(
      line, sizeof(line),
      "OK STATS conns=%d accepted=%llu rejected=%llu inflight=%d "
      "requests=%llu executed=%llu responses=%llu shed=%llu "
      "quota_denied=%llu releases=%zu cache_hits=%llu cache_misses=%llu "
      "queue_us_p50=%.0f queue_us_p99=%.0f exec_us_p50=%.0f "
      "exec_us_p99=%.0f total_us_p50=%.0f total_us_p99=%.0f "
      "rate_denied=%llu cache_hit_rate=%.3f",
      admission->active_connections(),
      static_cast<unsigned long long>(admission->accepted_total()),
      static_cast<unsigned long long>(admission->rejected_connections()),
      admission->queued_requests(),
      static_cast<unsigned long long>(frames->frames_received->value()),
      static_cast<unsigned long long>(frames->frames_executed->value()),
      static_cast<unsigned long long>(frames->responses->value()),
      static_cast<unsigned long long>(admission->shed_requests()),
      static_cast<unsigned long long>(admission->quota_denied()),
      store->size(), static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      queue.QuantileMicros(0.5), queue.QuantileMicros(0.99),
      exec.QuantileMicros(0.5), exec.QuantileMicros(0.99),
      LatencyHistogram::BucketQuantileMicros(total, 0.5),
      LatencyHistogram::BucketQuantileMicros(total, 0.99),
      static_cast<unsigned long long>(admission->rate_denied()),
      lookups > 0.0 ? static_cast<double>(cs.hits) / lookups : 0.0);
  if (verbs && len > 0 && static_cast<std::size_t>(len) < sizeof(line)) {
    using service::RequestKind;
    for (const RequestKind kind :
         {RequestKind::kLoad, RequestKind::kUnload, RequestKind::kList,
          RequestKind::kQuery, RequestKind::kBatch,
          RequestKind::kCacheStats}) {
      len += std::snprintf(
          line + len, sizeof(line) - static_cast<std::size_t>(len),
          " verb_%s=%llu", service::VerbName(kind),
          static_cast<unsigned long long>(
              verbs->request_count(kind)->value()));
      if (len <= 0 || static_cast<std::size_t>(len) >= sizeof(line)) break;
    }
  }
  return line;
}

/// Registers the five dpcube_release_build_seconds{phase=,release=}
/// gauges for one release. Each gauge reads the store at render time, so
/// an unloaded release reports 0 and a reloaded one its fresh timings
/// (Registry::RegisterGauge overwrites the callback on re-registration).
void RegisterReleaseBuildGauges(
    metrics::Registry* registry,
    const std::shared_ptr<service::ReleaseStore>& store,
    const std::string& name) {
  struct Phase {
    const char* label;
    double engine::PhaseTimings::*field;
  };
  const Phase phases[] = {
      {"construction", &engine::PhaseTimings::construction_seconds},
      {"budget", &engine::PhaseTimings::budget_seconds},
      {"measure", &engine::PhaseTimings::measure_seconds},
      {"consistency", &engine::PhaseTimings::consistency_seconds},
      {"total", &engine::PhaseTimings::total_seconds},
  };
  for (const Phase& phase : phases) {
    registry->RegisterGauge(
        "dpcube_release_build_seconds",
        std::string("phase=\"") + phase.label + "\",release=\"" +
            trace::EscapeLabelValue(name) + "\"",
        "Release build wall-clock by pipeline phase, from the release "
        "CSV's build metadata (or the load-time consistency fit when the "
        "CSV predates it).",
        [store, name, field = phase.field] {
          const auto release = store->Get(name);
          if (!release.ok()) return 0.0;
          return release.value()->build_timings().*field;
        });
  }
}

const char* OrDash(const std::string& value) {
  return value.empty() ? "-" : value.c_str();
}

/// One grep-able /tracez row per completed request.
std::string FormatTraceRow(const trace::RequestTrace& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "trace id=%llu conn=%llu verb=%s release=%s codec=%s outcome=%s "
      "bytes_in=%llu bytes_out=%llu total_us=%llu decode_us=%llu "
      "admit_us=%llu queue_us=%llu compute_us=%llu encode_us=%llu "
      "flush_us=%llu batch_n=%u batch_max_group_us=%llu slow=%d",
      static_cast<unsigned long long>(t.context.trace_id),
      static_cast<unsigned long long>(t.context.connection_id),
      OrDash(t.verb), OrDash(t.release), OrDash(t.codec), OrDash(t.outcome),
      static_cast<unsigned long long>(t.request_bytes),
      static_cast<unsigned long long>(t.response_bytes),
      static_cast<unsigned long long>(t.total_micros),
      static_cast<unsigned long long>(t.span(trace::Span::kDecode)),
      static_cast<unsigned long long>(t.span(trace::Span::kAdmit)),
      static_cast<unsigned long long>(t.span(trace::Span::kQueue)),
      static_cast<unsigned long long>(t.span(trace::Span::kCompute)),
      static_cast<unsigned long long>(t.span(trace::Span::kEncode)),
      static_cast<unsigned long long>(t.span(trace::Span::kFlush)),
      t.batch_queries,
      static_cast<unsigned long long>(t.batch_max_group_micros),
      t.slow ? 1 : 0);
  return buf;
}

/// The value of `key` in an (un-decoded) "a=b&c=d" query string.
std::string QueryParam(const std::string& query, const std::string& key) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    if (amp >= query.size()) break;
    pos = amp + 1;
  }
  return "";
}

}  // namespace

int ResolveNetThreads(int net_threads) {
  int resolved = net_threads;
  if (resolved <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    resolved = static_cast<int>(hw < 1 ? 1 : (hw > 4 ? 4 : hw));
  }
  if (resolved > 64) resolved = 64;
  return resolved;
}

ServerOptions ServerOptionsFromConfig(const service::ServeConfig& config) {
  ServerOptions options;
  options.listen_address = config.listen_address;
  options.http_listen_address = config.http_listen_address;
  options.http_token = config.http_token;
  options.trace_ring_capacity = config.trace_ring_capacity;
  options.access_log_path = config.access_log_path;
  options.slow_query_ms = config.slow_query_ms;
  options.admission.max_connections = config.max_connections;
  options.admission.max_inflight = config.max_inflight;
  options.admission.max_queue_depth = config.max_queue_depth;
  options.admission.max_queries_per_release = config.query_quota;
  options.admission.query_rate_limit = config.query_rate_limit;
  options.admission.query_rate_window_seconds =
      config.query_rate_window_seconds;
  options.max_frame_payload = config.max_frame_payload;
  options.drain_timeout_ms = config.drain_timeout_ms;
  options.net_threads = config.net_threads;
  return options;
}

SocketListener::SocketListener(ServerOptions options, ServeContext context)
    : options_(std::move(options)),
      context_(std::move(context)),
      admission_(std::make_shared<AdmissionController>(options_.admission)),
      registry_(std::make_shared<metrics::Registry>()),
      draining_flag_(std::make_shared<std::atomic<bool>>(false)),
      started_at_(std::chrono::steady_clock::now()) {
  const int pollers = ResolveNetThreads(options_.net_threads);
  pollers_.reserve(static_cast<std::size_t>(pollers));
  for (int i = 0; i < pollers; ++i) {
    pollers_.push_back(std::make_unique<Poller>(i));
  }
  // With a durable state machine attached, the admission controller's
  // quota ledger and denial counters start from the replayed state, so
  // STATS/metrics/quota enforcement all pick up exactly where the
  // previous process stopped.
  if (context_.durable) {
    for (const auto& row : context_.durable->QuotaLedger()) {
      admission_->RestoreQuota(row.first, row.second);
    }
    admission_->RestoreDenials(context_.durable->quota_denied(),
                               context_.durable->rate_denied());
  }
  RegisterServerMetrics();
  // Every request is traced and recorded; a ring capacity of 0 only
  // drops the /tracez ring.
  if (options_.trace_ring_capacity > 0) {
    trace_ring_ = std::make_shared<trace::TraceRing>(
        options_.trace_ring_capacity, options_.trace_slowest_capacity);
    context_.trace_ring = trace_ring_;
  }
  context_.slow_query_micros =
      options_.slow_query_ms > 0
          ? static_cast<std::uint64_t>(options_.slow_query_ms) * 1000
          : 0;
  // Build-phase gauges for everything loaded before the server started;
  // the release-loaded hook covers runtime loads.
  for (const auto& info : context_.store->List()) {
    RegisterReleaseBuildGauges(registry_.get(), context_.store, info.name);
  }
}

SocketListener::~SocketListener() = default;

void SocketListener::RegisterServerMetrics() {
  auto table = service::SessionMetrics::Create(registry_.get());
  // The no-op deleter's captures pin the registry (and the table's own
  // control block) for as long as any session holds the pointer table.
  session_metrics_ = std::shared_ptr<const service::SessionMetrics>(
      table.get(),
      [registry = registry_, table](const service::SessionMetrics*) {});

  // The trace-fed latency families and the frame counters. The deleter
  // pins the registry: a connection (and its pool tasks) can outlive
  // the listener, and Record dereferences registry-owned histograms.
  std::vector<std::string> verbs;
  verbs.reserve(service::SessionMetrics::kKinds);
  for (int k = 0; k < service::SessionMetrics::kKinds; ++k) {
    verbs.push_back(service::VerbName(static_cast<service::RequestKind>(k)));
  }
  context_.trace_metrics = std::shared_ptr<const trace::ServingTraceMetrics>(
      new trace::ServingTraceMetrics(registry_.get(), verbs),
      [registry = registry_](const trace::ServingTraceMetrics* p) {
        delete p;
      });

  // Admission state and spill counters.
  auto admission = admission_;
  registry_->RegisterGauge(
      "dpcube_connections_active", "", "Currently admitted connections.",
      [admission] {
        return static_cast<double>(admission->active_connections());
      });
  registry_->RegisterCallbackCounter(
      "dpcube_connections_accepted_total", "",
      "Connections admitted over the server's lifetime.", [admission] {
        return static_cast<double>(admission->accepted_total());
      });
  registry_->RegisterCallbackCounter(
      "dpcube_connections_rejected_total", "",
      "Connections refused at the admission gate.", [admission] {
        return static_cast<double>(admission->rejected_connections());
      });
  registry_->RegisterCallbackCounter(
      "dpcube_requests_shed_total", "",
      "Requests shed by in-flight or queue-depth limits.", [admission] {
        return static_cast<double>(admission->shed_requests());
      });
  registry_->RegisterGauge(
      "dpcube_queue_depth", "",
      "Admitted-but-unanswered requests across all connections.",
      [admission] {
        return static_cast<double>(admission->queued_requests());
      });
  registry_->RegisterCallbackCounter(
      "dpcube_quota_denied_total", "kind=\"lifetime\"",
      "Query denials by quota kind: lifetime ledger vs sliding-window "
      "rate.",
      [admission] { return static_cast<double>(admission->quota_denied()); });
  registry_->RegisterCallbackCounter(
      "dpcube_quota_denied_total", "kind=\"rate\"", "",
      [admission] { return static_cast<double>(admission->rate_denied()); });

  // Cache and store state (the cache's own counters stay authoritative).
  auto cache = context_.cache;
  registry_->RegisterCallbackCounter(
      "dpcube_cache_hits_total", "", "Marginal-cache hits.",
      [cache] { return static_cast<double>(cache->stats().hits); });
  registry_->RegisterCallbackCounter(
      "dpcube_cache_misses_total", "", "Marginal-cache misses.",
      [cache] { return static_cast<double>(cache->stats().misses); });
  registry_->RegisterCallbackCounter(
      "dpcube_cache_evictions_total", "", "Marginal-cache evictions.",
      [cache] { return static_cast<double>(cache->stats().evictions); });
  registry_->RegisterGauge(
      "dpcube_cache_entries", "", "Marginals currently cached.",
      [cache] { return static_cast<double>(cache->stats().entries); });
  registry_->RegisterGauge(
      "dpcube_cache_resident_cells", "",
      "Cells resident in the marginal cache.",
      [cache] { return static_cast<double>(cache->stats().cells); });
  auto store = context_.store;
  registry_->RegisterGauge(
      "dpcube_releases_loaded", "", "Releases currently loaded.",
      [store] { return static_cast<double>(store->size()); });

  // Compute-pool state. The pool outlives the listener (the CLI owns
  // the process-wide pool), so a raw pointer capture is safe here.
  if (ThreadPool* pool = context_.pool) {
    registry_->RegisterGauge(
        "dpcube_pool_queue_depth", "",
        "Tasks queued in the compute pool, not yet claimed by a worker.",
        [pool] { return static_cast<double>(pool->queue_depth()); });
    registry_->RegisterGauge(
        "dpcube_pool_busy_workers", "",
        "Pool workers currently inside a task.",
        [pool] { return static_cast<double>(pool->busy_workers()); });
    registry_->RegisterGauge(
        "dpcube_pool_threads", "",
        "Total compute threads (workers plus the caller slot).",
        [pool] { return static_cast<double>(pool->parallelism()); });
  }

  // Per-poller connection gauges. The counting atomics are shared with
  // the pollers, so a registry outliving the listener (sessions pin it)
  // still reads from live memory.
  registry_->RegisterGauge(
      "dpcube_net_pollers", "", "Event-loop poller threads serving "
      "protocol connections (--net-threads).",
      [n = pollers_.size()] { return static_cast<double>(n); });
  for (const auto& poller : pollers_) {
    const std::string label =
        "poller=\"" + std::to_string(poller->id()) + "\"";
    registry_->RegisterGauge(
        "dpcube_poller_connections", label,
        poller->id() == 0
            ? "Connections currently pinned to each poller thread."
            : "",
        [count = poller->connection_gauge()] {
          return static_cast<double>(
              count->load(std::memory_order_relaxed));
        });
    registry_->RegisterCallbackCounter(
        "dpcube_poller_connections_adopted_total", label,
        poller->id() == 0
            ? "Connections ever handed to each poller (round-robin)."
            : "",
        [total = poller->adopted_counter()] {
          return static_cast<double>(
              total->load(std::memory_order_relaxed));
        });
  }

  // The dpcube_wal_* families. The durable state outlives the registry
  // (the CLI holds it past the listener's destruction), so the raw
  // `this` captures inside RegisterMetrics stay valid.
  if (context_.durable) {
    context_.durable->RegisterMetrics(registry_.get());
  }

  resource_tracker_ = metrics::RegisterResourceTracker(registry_.get());
}

void SocketListener::InstallHttpRoutes() {
  auto registry = registry_;
  auto http_hits = [registry](const char* path) {
    return registry->GetCounter("dpcube_http_requests_total",
                                std::string("path=\"") + path + "\"",
                                "HTTP observability requests, by path.");
  };
  metrics::Counter* metrics_hits = http_hits("/metrics");
  metrics::Counter* healthz_hits = http_hits("/healthz");
  metrics::Counter* statusz_hits = http_hits("/statusz");
  metrics::Counter* tracez_hits = http_hits("/tracez");

  // Everything except the health probe sits behind the bearer token
  // when one is configured (an empty token leaves every route open).
  http_->set_bearer_token(options_.http_token);

  http_->AddRoute("/metrics",
                  [registry, metrics_hits](const HttpRequest&) {
                    metrics_hits->Increment();
                    HttpResponse response;
                    // The exposition-format content type Prometheus
                    // scrapers expect.
                    response.content_type =
                        "text/plain; version=0.0.4; charset=utf-8";
                    response.body = registry->RenderPrometheus();
                    return response;
                  },
                  /*requires_auth=*/true);

  auto ring = trace_ring_;
  http_->AddRoute(
      "/tracez",
      [ring, tracez_hits](const HttpRequest& request) {
        tracez_hits->Increment();
        HttpResponse response;
        if (!ring) {
          response.body = "tracing disabled (trace ring capacity 0)\n";
          return response;
        }
        // ?verb=query&release=census filter both views (exact match).
        const std::string verb = QueryParam(request.query, "verb");
        const std::string release = QueryParam(request.query, "release");
        const auto matches = [&verb, &release](const trace::RequestTrace& t) {
          if (!verb.empty() && t.verb != verb) return false;
          if (!release.empty() && t.release != release) return false;
          return true;
        };
        std::string body = "dpcube request traces\n";
        char line[160];
        std::snprintf(line, sizeof(line),
                      "ring: capacity=%zu slowest_capacity=%zu "
                      "recorded_total=%llu\n",
                      ring->capacity(), ring->slowest_capacity(),
                      static_cast<unsigned long long>(ring->recorded_total()));
        body += line;
        body +=
            "spans: decode -> admit -> queue -> compute -> encode -> "
            "flush (microseconds)\n";
        body += "\nslowest:\n";
        for (const auto& t : ring->Slowest()) {
          if (matches(t)) body += FormatTraceRow(t) + "\n";
        }
        body += "\nrecent:\n";
        for (const auto& t : ring->Recent(64)) {
          if (matches(t)) body += FormatTraceRow(t) + "\n";
        }
        response.body = std::move(body);
        return response;
      },
      /*requires_auth=*/true);

  auto draining = draining_flag_;
  auto admission = admission_;
  http_->AddRoute(
      "/healthz",
      [draining, admission, healthz_hits](const HttpRequest&) {
        healthz_hits->Increment();
        HttpResponse response;
        if (draining->load(std::memory_order_relaxed)) {
          response.status = 503;
          response.body = "draining\n";
        } else if (admission->queued_requests() >=
                   admission->config().max_queue_depth) {
          response.status = 503;
          response.body = "overloaded\n";
        } else {
          response.body = "ok\n";
        }
        return response;
      });

  auto store = context_.store;
  auto durable = context_.durable;
  const auto started = started_at_;
  const std::string protocol_address = bound_address();
  http_->AddRoute(
      "/statusz",
      [store, admission, durable, started, protocol_address,
       statusz_hits](const HttpRequest&) {
        statusz_hits->Increment();
        std::string body = "dpcube serve\n";
        body += "compiler: " __VERSION__ "\n";
        body += "protocol: " + protocol_address + "\n";
        const double uptime =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "uptime_seconds: %.1f\n", uptime);
        body += buf;
        body += "releases:\n";
        for (const auto& info : store->List()) {
          std::snprintf(buf, sizeof(buf), " d=%d cells=%llu\n", info.d,
                        static_cast<unsigned long long>(info.total_cells));
          body += "  " + info.name + buf;
        }
        body += "quota_ledger:\n";
        for (const auto& row : admission->QuotaLedger()) {
          std::snprintf(buf, sizeof(buf), " lifetime=%llu window=%llu\n",
                        static_cast<unsigned long long>(row.lifetime_used),
                        static_cast<unsigned long long>(row.window_used));
          body += "  " + row.release + buf;
        }
        // The durable "durability:" + "recovery:" blocks come LAST so a
        // crash-recovery check can byte-diff everything up to the
        // volatile "recovery:" delimiter.
        if (durable) body += durable->FormatStatusz();
        return HttpResponse{200, "text/plain; charset=utf-8",
                            std::move(body)};
      },
      /*requires_auth=*/true);
}

Status SocketListener::Start() {
  DPCUBE_RETURN_NOT_OK(
      ParseHostPort(options_.listen_address, &host_, &bound_port_));
  auto loop = EventLoop::Create();
  if (!loop.ok()) return loop.status();
  loop_ = std::move(loop).value();
  busy_linger_ = std::make_shared<LingerSet>(loop_);
  auto fd = ListenTcp(host_, bound_port_, /*backlog=*/128, &bound_port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = std::move(fd).value();
  if (!options_.access_log_path.empty()) {
    auto logger = logging::Logger::Open(options_.access_log_path,
                                        logging::Logger::Format::kJson);
    if (!logger.ok()) return logger.status();
    context_.access_log = std::move(logger).value();
  }
  if (!options_.http_listen_address.empty()) {
    http_ = std::make_unique<HttpEndpoint>(options_.http_listen_address);
    DPCUBE_RETURN_NOT_OK(http_->Start());
    InstallHttpRoutes();  // After both binds so /statusz knows the port.
  }
  return Status::OK();
}

std::string SocketListener::bound_address() const {
  return host_ + ":" + std::to_string(bound_port_);
}

std::string SocketListener::http_bound_address() const {
  return http_ ? http_->bound_address() : std::string();
}

std::string SocketListener::FormatStatsLine() const {
  return FormatStats(admission_, context_.trace_metrics, context_.cache,
                     context_.store, session_metrics_);
}

std::uint64_t SocketListener::frames_received() const {
  return context_.trace_metrics->frames_received->value();
}

void SocketListener::Shutdown() {
  shutdown_requested_.store(true);
  if (loop_) loop_->Post([this] { BeginShutdown(); });
}

void SocketListener::OnAccepted(UniqueFd fd) {
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string busy_reason;
  if (!admission_->TryAdmitConnection(&busy_reason)) {
    // One structured goodbye, then a lingering close. The socket is
    // fresh, so the tiny frame always fits the empty send buffer even
    // non-blocking (a failed send still linger-closes; there is
    // nothing more to say to a peer we cannot write). The linger set
    // holds the FIN-before-close contract a pipelining client needs:
    // close() with unread inbound bytes would turn into an RST that
    // could destroy the goodbye before the client reads it.
    const std::string frame = EncodeFrame("BUSY " + busy_reason + "\n");
    (void)::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL);
    busy_linger_->Add(std::move(fd));
    return;
  }

  // Pin the connection to the next poller round-robin: its loop gets
  // the worker completions, its linger set the eventual close.
  Poller& poller = *pollers_[next_poller_++ % pollers_.size()];
  const std::uint64_t id = next_connection_id_++;
  auto connection = std::make_shared<Connection>(
      std::move(fd), id, context_, admission_, poller.MakeWakeup(id),
      options_.max_frame_payload, poller.linger());
  connection->session().SetServerStatsHandler(
      [admission = admission_, frames = context_.trace_metrics,
       cache = context_.cache, store = context_.store,
       verbs = session_metrics_] {
        return FormatStats(admission, frames, cache, store, verbs);
      });
  connection->session().SetMetrics(session_metrics_);
  // Runtime `load` requests register their release's build-phase
  // gauges too. Captures shared_ptrs only: the hook runs on pool
  // workers and may fire after the listener is gone.
  connection->session().SetReleaseLoadedHook(
      [registry = registry_, store = context_.store](
          const std::string& name) {
        RegisterReleaseBuildGauges(registry.get(), store, name);
      });
  // With --state-dir, the mutating verbs (load/unload) route through
  // the durable state machine: changelog-appended and fsync'd before
  // they take effect. Captures shared_ptrs only (pool workers may run
  // the handler after the listener is gone).
  if (context_.durable) {
    connection->session().SetMutationHandler(
        [durable = context_.durable](const service::Mutation& mutation) {
          return durable->Apply(mutation);
        });
  }
  if (admission_->config().max_queries_per_release > 0 ||
      admission_->config().query_rate_limit > 0) {
    connection->session().SetQueryQuotaGate(
        [admission = admission_, store = context_.store,
         durable = context_.durable](const std::string& release,
                                     std::string* denial) {
          // Only loaded releases are metered: a query for an unknown
          // name answers NotFound without charging quota, so hostile
          // made-up names can never grow the quota ledger.
          if (!store->Get(release).ok()) return true;
          using QuotaDecision = AdmissionController::QuotaDecision;
          const QuotaDecision decision =
              admission->ChargeQuery(release, denial);
          if (durable) {
            // Charges AND denials are logged: quota_used and the
            // denial counters both survive kill -9. If the append or
            // fsync fails, a charge must fail the query — answering
            // from a ledger that cannot persist would let a crash
            // refund spent privacy budget.
            const Status logged = durable->Apply(
                service::Mutation::QuotaCharge(
                    release,
                    decision == QuotaDecision::kCharged ? 1 : 0,
                    decision == QuotaDecision::kDeniedLifetime ? 1 : 0,
                    decision == QuotaDecision::kDeniedRate ? 1 : 0));
            if (!logged.ok() && decision == QuotaDecision::kCharged) {
              *denial =
                  "durable quota ledger append failed: " +
                  logged.ToString();
              return false;
            }
          }
          return decision == QuotaDecision::kCharged;
        });
  }
  poller.Adopt(std::move(connection));
}
void SocketListener::BeginShutdown() {
  if (draining_flag_->exchange(true)) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  acceptor_.reset();
  listen_fd_.reset();  // Stop accepting; refuse new peers at the OS.
  for (auto& poller : pollers_) poller->BeginDrain(deadline);
}

void SocketListener::OnPollerExited() {
  if (--live_pollers_ > 0) return;
  if (http_) http_->Detach();
  busy_linger_->WhenEmpty([this] { loop_->Stop(); });
}

Result<std::uint64_t> SocketListener::Serve() {
  if (!listen_fd_.valid()) {
    return Status::FailedPrecondition("Serve() before Start()");
  }
  if (options_.shutdown_fd >= 0) {
    // Level-triggered and deliberately never drained: unwatched after
    // its first edge so it cannot spin the loop.
    const int fd = options_.shutdown_fd;
    DPCUBE_RETURN_NOT_OK(loop_->Watch(fd, EPOLLIN, [this, fd](std::uint32_t) {
      loop_->Unwatch(fd);
      BeginShutdown();
    }));
  }
  acceptor_ = std::make_unique<Acceptor>(
      loop_.get(), listen_fd_.get(),
      [this](UniqueFd fd) { OnAccepted(std::move(fd)); });
  if (http_) http_->Attach(loop_.get(), busy_linger_);

  live_pollers_ = pollers_.size();
  for (auto& poller : pollers_) {
    const Status started = poller->Start(
        [this] { loop_->Post([this] { OnPollerExited(); }); });
    if (!started.ok()) {
      // Unwind whatever did start so no thread outlives Serve().
      for (auto& p : pollers_) {
        p->BeginDrain(std::chrono::steady_clock::now());
        p->Join();
      }
      return started;
    }
  }
  if (shutdown_requested_.load()) BeginShutdown();

  const Status ran = loop_->Run();
  if (!ran.ok()) {
    // The acceptor loop died: drain the fleet with an immediate
    // deadline so no poller thread outlives the error return.
    draining_flag_->store(true, std::memory_order_relaxed);
    for (auto& poller : pollers_) {
      poller->BeginDrain(std::chrono::steady_clock::now());
    }
  }
  for (auto& poller : pollers_) poller->Join();
  acceptor_.reset();
  if (http_) http_->Detach();
  if (!ran.ok()) return ran;
  return next_connection_id_ - 1;
}

}  // namespace net
}  // namespace dpcube
