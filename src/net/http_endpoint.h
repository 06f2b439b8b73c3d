// Copyright 2026 The dpcube Authors.
//
// A deliberately minimal HTTP/1.0 observability endpoint — just enough
// protocol for `curl`, a Prometheus scraper, or a load balancer's
// health probe, and nothing more. GET only, exact-path routes,
// Connection: close on every response; no keep-alive, chunking, TLS, or
// content negotiation.
//
// It owns no thread: Attach() puts it on an existing event loop — in the
// server, the acceptor's, where it shares the linger set of the BUSY
// goodbyes — so HTTP is served by a network thread and NEVER touches
// the compute pool: a scrape can observe an overloaded server precisely
// because it does not queue behind the overload. Handlers therefore
// must be cheap and non-blocking (render a string, read atomics).
//
// Hostility budget: at most kMaxConnections sockets (the listener is
// unwatched while at the cap), kMaxRequestBytes of buffered request,
// and kRequestTimeout of wall time per connection (one loop timer
// each); a peer exceeding any of these is answered (where possible) and
// closed, without ever stalling the loop.

#ifndef DPCUBE_NET_HTTP_ENDPOINT_H_
#define DPCUBE_NET_HTTP_ENDPOINT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/fd.h"
#include "common/status.h"
#include "net/address.h"
#include "net/event_loop.h"
#include "net/linger.h"

namespace dpcube {
namespace net {

struct HttpRequest {
  std::string method;  ///< Uppercase as sent ("GET").
  std::string path;    ///< Absolute path with any "?query" stripped.
  std::string query;   ///< The raw "?query" remainder, without the "?".
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpEndpoint {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  static constexpr int kMaxConnections = 32;
  static constexpr std::size_t kMaxRequestBytes = 8192;
  static constexpr std::chrono::milliseconds kRequestTimeout{5000};

  /// `listen_address` is "host:port" (port 0 = ephemeral).
  explicit HttpEndpoint(std::string listen_address);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for exact path `path` ("/metrics"). Handlers
  /// run on the loop thread; register everything before Attach().
  /// With `requires_auth` and a bearer token configured, requests must
  /// carry "Authorization: Bearer <token>" or are answered 401 without
  /// reaching the handler (no token configured = route stays open).
  void AddRoute(const std::string& path, Handler handler,
                bool requires_auth = false);

  /// Sets the bearer token that guards requires_auth routes. Empty
  /// (the default) disables the check. Call before Start().
  void set_bearer_token(std::string token) {
    bearer_token_ = std::move(token);
  }

  /// Binds and listens. After OK, bound_port() is the real port.
  Status Start();

  std::uint16_t bound_port() const { return bound_port_; }
  std::string bound_address() const;

  /// Serves on `loop` from now on, parking answered sockets in
  /// `linger` (a set on the same loop). Call on the loop thread, after
  /// Start(); `loop` must outlive the endpoint or its Detach().
  void Attach(EventLoop* loop, std::shared_ptr<LingerSet> linger);

  /// Stops accepting and drops every live connection. Loop thread;
  /// idempotent (the destructor calls it).
  void Detach();

  /// Live connection count. Loop thread.
  std::size_t connection_count() const { return connections_.size(); }
  /// Whether the listener is in the loop's watch set. Loop thread.
  bool accepting() const { return acceptor_ && acceptor_->watched(); }

  /// Forces the accept-backoff window (tests exercise the EMFILE path
  /// without exhausting real fds). Loop thread, while attached.
  void BackOffAcceptForTests(std::chrono::milliseconds window) {
    acceptor_->BackOff(window);
  }

 private:
  struct Conn {
    UniqueFd fd;
    std::string in;        ///< Bytes read so far (until CRLFCRLF).
    std::string out;       ///< Encoded response being flushed.
    std::size_t written = 0;
    bool responding = false;  ///< Response built; now write-and-close.
    EventLoop::TimerId timeout;  ///< kRequestTimeout after accept.
  };

  void OnAccept(UniqueFd fd);
  void OnEvents(Conn* conn, std::uint32_t events);
  /// Unwatches and forgets `conn`; its fd lingers when `linger`.
  void Close(Conn* conn, bool linger);
  /// Reads what is available; on a complete (or hopeless) request,
  /// builds the response and flips the connection to writing.
  void OnReadable(Conn* conn);
  void OnWritable(Conn* conn);
  /// Parses `conn->in` and routes it; any parse failure becomes 400/404/
  /// 405 — every syntactically complete request gets SOME response.
  HttpResponse RouteRequest(const Conn& conn) const;
  void BeginResponse(Conn* conn, const HttpResponse& response);

  struct Route {
    Handler handler;
    bool requires_auth = false;
  };

  const std::string listen_address_;
  std::string host_;
  std::uint16_t bound_port_ = 0;
  UniqueFd listen_fd_;
  std::map<std::string, Route> routes_;
  std::string bearer_token_;
  std::map<int, std::unique_ptr<Conn>> connections_;  ///< By fd.
  EventLoop* loop_ = nullptr;  ///< Set while attached.
  /// Fully-responded sockets waiting out their FIN-before-close grace
  /// (see linger.h).
  std::shared_ptr<LingerSet> linger_;
  std::unique_ptr<Acceptor> acceptor_;
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_HTTP_ENDPOINT_H_
