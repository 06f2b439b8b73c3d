// Copyright 2026 The dpcube Authors.

#include "net/http_endpoint.h"

#include <errno.h>
#include <stdio.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>

#include <cctype>
#include <utility>

#include "net/address.h"

namespace dpcube {
namespace net {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

// IMF-fixdate (RFC 9110), e.g. "Thu, 07 Aug 2026 12:00:00 GMT".
std::string HttpDateNow() {
  const time_t now = ::time(nullptr);
  struct tm parts;
  if (::gmtime_r(&now, &parts) == nullptr) return "";
  char buf[64];
  if (::strftime(buf, sizeof(buf), "%a, %d %b %Y %H:%M:%S GMT", &parts) == 0) {
    return "";
  }
  return buf;
}

std::string EncodeHttpResponse(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 192);
  out += "HTTP/1.0 " + std::to_string(response.status) + " " +
         ReasonPhrase(response.status) + "\r\n";
  const std::string date = HttpDateNow();
  if (!date.empty()) out += "Date: " + date + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

// The value of header `name` (case-insensitive) in the raw request
// bytes, leading/trailing whitespace trimmed; "" when absent.
std::string HeaderValue(const std::string& raw, const std::string& name) {
  std::size_t pos = raw.find('\n');  // Skip the request line.
  while (pos != std::string::npos && pos + 1 < raw.size()) {
    const std::size_t start = pos + 1;
    std::size_t eol = raw.find('\n', start);
    if (eol == std::string::npos) eol = raw.size();
    std::string line = raw.substr(start, eol - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;  // End of headers.
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t v = colon + 1;
        while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
        std::size_t e = line.size();
        while (e > v && (line[e - 1] == ' ' || line[e - 1] == '\t')) --e;
        return line.substr(v, e - v);
      }
    }
    pos = eol;
  }
  return "";
}

}  // namespace

HttpEndpoint::HttpEndpoint(std::string listen_address)
    : listen_address_(std::move(listen_address)) {}

HttpEndpoint::~HttpEndpoint() { Detach(); }

void HttpEndpoint::AddRoute(const std::string& path, Handler handler,
                            bool requires_auth) {
  routes_[path] = Route{std::move(handler), requires_auth};
}

Status HttpEndpoint::Start() {
  DPCUBE_RETURN_NOT_OK(ParseHostPort(listen_address_, &host_, &bound_port_));
  auto fd = ListenTcp(host_, bound_port_, /*backlog=*/16, &bound_port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = std::move(fd).value();
  return Status::OK();
}

std::string HttpEndpoint::bound_address() const {
  return host_ + ":" + std::to_string(bound_port_);
}

void HttpEndpoint::Attach(EventLoop* loop, std::shared_ptr<LingerSet> linger) {
  loop_ = loop;
  linger_ = std::move(linger);
  acceptor_ = std::make_unique<Acceptor>(
      loop_, listen_fd_.get(),
      [this](UniqueFd fd) { OnAccept(std::move(fd)); });
}

void HttpEndpoint::Detach() {
  if (loop_ == nullptr) return;
  acceptor_.reset();
  for (auto& [fd, conn] : connections_) {
    loop_->Unwatch(fd);
    loop_->CancelTimer(&conn->timeout);
  }
  connections_.clear();
  loop_ = nullptr;
}

void HttpEndpoint::OnAccept(UniqueFd fd) {
  auto conn = std::make_unique<Conn>();
  Conn* raw = conn.get();
  const int key = fd.get();
  conn->fd = std::move(fd);
  const Status watched =
      loop_->Watch(key, EPOLLIN, [this, raw](std::uint32_t events) {
        OnEvents(raw, events);
      });
  if (!watched.ok()) return;  // Closes via RAII.
  // Too slow, whether mid-request or mid-response: close without
  // ceremony. A half-open peer cannot hold a slot past the budget.
  conn->timeout = loop_->AddTimer(
      EventLoop::Clock::now() + kRequestTimeout,
      [this, raw] { Close(raw, /*linger=*/false); });
  connections_.emplace(key, std::move(conn));
  if (connections_.size() >= static_cast<std::size_t>(kMaxConnections)) {
    acceptor_->Pause();
  }
}

void HttpEndpoint::OnEvents(Conn* conn, std::uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) && !(events & EPOLLIN)) {
    Close(conn, /*linger=*/false);  // Dead with nothing left to read.
    return;
  }
  if (!conn->responding && (events & EPOLLIN)) OnReadable(conn);
  if (conn->responding && (events & EPOLLOUT)) OnWritable(conn);
  if (!conn->responding) return;
  if (conn->written >= conn->out.size()) {
    // Lingering close: FIN first and wait (bounded, on the loop) for the
    // peer's FIN before closing, so an early answer to a request the
    // peer is still sending (431, bare request line) is never
    // destroyed by the RST a close-with-unread-bytes would send.
    Close(conn, /*linger=*/!conn->out.empty());
    return;
  }
  loop_->Modify(conn->fd.get(), EPOLLOUT);
}

void HttpEndpoint::Close(Conn* conn, bool linger) {
  const int fd = conn->fd.get();
  loop_->Unwatch(fd);
  loop_->CancelTimer(&conn->timeout);
  if (linger) linger_->Add(std::move(conn->fd));
  connections_.erase(fd);  // Destroys *conn.
  acceptor_->Resume();     // Below the cap again.
}

void HttpEndpoint::OnReadable(Conn* conn) {
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<std::size_t>(n));
      if (conn->in.size() > kMaxRequestBytes) {
        BeginResponse(conn, HttpResponse{431, "text/plain; charset=utf-8",
                                         "request too large\n"});
        return;
      }
      if (conn->in.find("\r\n\r\n") != std::string::npos ||
          conn->in.find("\n\n") != std::string::npos) {
        BeginResponse(conn, RouteRequest(*conn));
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer half-closed before completing the request. If a full
      // request line is there anyway (bare "GET /x HTTP/1.0\n" without
      // the blank line), answer it; otherwise just drop the socket.
      if (conn->in.find('\n') != std::string::npos) {
        BeginResponse(conn, RouteRequest(*conn));
      } else {
        conn->responding = true;  // Empty out => erased by the caller.
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->responding = true;  // Read error: drop.
    return;
  }
}

HttpResponse HttpEndpoint::RouteRequest(const Conn& conn) const {
  // Request line: METHOD SP TARGET SP VERSION. Tolerate a bare LF line
  // ending and a missing version (HTTP/0.9-style "GET /path").
  const std::size_t eol = conn.in.find('\n');
  std::string line = conn.in.substr(0, eol == std::string::npos
                                           ? conn.in.size()
                                           : eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) {
    return HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  }
  const std::string method = line.substr(0, sp1);
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) sp2 = line.size();
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    return HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  }
  if (method != "GET") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET is supported\n"};
  }
  HttpRequest request;
  request.method = method;
  const std::size_t query = target.find('?');
  if (query != std::string::npos) {
    request.query = target.substr(query + 1);
    target.resize(query);
  }
  request.path = std::move(target);
  const auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    return HttpResponse{404, "text/plain; charset=utf-8",
                        "no such endpoint\n"};
  }
  if (it->second.requires_auth && !bearer_token_.empty() &&
      HeaderValue(conn.in, "Authorization") != "Bearer " + bearer_token_) {
    return HttpResponse{401, "text/plain; charset=utf-8", "unauthorized\n"};
  }
  return it->second.handler(request);
}

void HttpEndpoint::BeginResponse(Conn* conn, const HttpResponse& response) {
  conn->out = EncodeHttpResponse(response);
  conn->written = 0;
  conn->responding = true;
  OnWritable(conn);  // Opportunistic first flush; EPOLLOUT covers the rest.
}

void HttpEndpoint::OnWritable(Conn* conn) {
  while (conn->written < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->out.data() + conn->written,
               conn->out.size() - conn->written, MSG_NOSIGNAL);
    if (n > 0) {
      conn->written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn->written = conn->out.size();  // Peer gone: count as flushed.
    return;
  }
}

}  // namespace net
}  // namespace dpcube
