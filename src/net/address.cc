// Copyright 2026 The dpcube Authors.

#include "net/address.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace dpcube {
namespace net {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + ::strerror(errno));
}

Result<struct sockaddr_in> ResolveV4(const std::string& host,
                                     std::uint16_t port) {
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host '" + host +
                                   "' (want a dotted quad or localhost)");
  }
  return addr;
}

}  // namespace

Status ParseHostPort(const std::string& address, std::string* host,
                     std::uint16_t* port) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("address '" + address +
                                   "' is not HOST:PORT");
  }
  const std::string port_text = address.substr(colon + 1);
  unsigned long parsed = 0;
  std::size_t pos = 0;
  try {
    parsed = std::stoul(port_text, &pos, 10);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != port_text.size() || parsed > 65535) {
    return Status::InvalidArgument("bad port '" + port_text + "' in '" +
                                   address + "'");
  }
  *host = address.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return Status::OK();
}

Result<UniqueFd> ListenTcp(const std::string& host, std::uint16_t port,
                           int backlog, std::uint16_t* bound_port) {
  auto addr = ResolveV4(host, port);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr.value()),
             sizeof(addr.value())) != 0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) return ErrnoStatus("listen");
  if (bound_port != nullptr) {
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  DPCUBE_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  return fd;
}

Result<UniqueFd> ConnectTcp(const std::string& host, std::uint16_t port) {
  auto addr = ResolveV4(host, port);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  // Request/response framing means Nagle would add 40ms stalls to every
  // pipelined burst; the frames are already maximally coalesced.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr.value()),
                sizeof(addr.value())) == 0) {
    return fd;
  }
  if (errno != EINTR) {
    return ErrnoStatus("connect " + host + ":" + std::to_string(port));
  }
  // POSIX: an EINTR'd connect keeps establishing asynchronously, and
  // calling connect() again would just fail with EALREADY. Wait for
  // writability and read the real outcome from SO_ERROR.
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  while (::poll(&pfd, 1, /*timeout_ms=*/-1) < 0) {
    if (errno != EINTR) return ErrnoStatus("poll(connect)");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    errno = err;
    return ErrnoStatus("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Acceptor::Acceptor(EventLoop* loop, int listen_fd,
                   std::function<void(UniqueFd)> on_accept)
    : loop_(loop), fd_(listen_fd), on_accept_(std::move(on_accept)) {
  Sync();
}

Acceptor::~Acceptor() {
  loop_->CancelTimer(&backoff_);
  loop_->Unwatch(fd_);
}

void Acceptor::BackOff(std::chrono::milliseconds window) {
  loop_->CancelTimer(&backoff_);
  backoff_ = loop_->AddTimer(EventLoop::Clock::now() + window, [this] {
    backoff_ = EventLoop::TimerId{};
    Sync();
  });
  Sync();
}

void Acceptor::Sync() {
  if (wanted() == watched()) return;
  if (!wanted()) {
    loop_->Unwatch(fd_);
    return;
  }
  const Status ok = loop_->Watch(fd_, EPOLLIN, [this](std::uint32_t) {
    while (wanted()) {  // `on_accept` may Pause.
      const int fd =
          ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        on_accept_(UniqueFd(fd));
      } else if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                 errno == ENOMEM) {
        BackOff(kBackoff);
        return;
      } else if (errno != EINTR) {
        return;  // EAGAIN (drained) or a transient error.
      }
    }
  });
  if (!ok.ok()) BackOff(kBackoff);  // No kernel memory for the watch.
}

}  // namespace net
}  // namespace dpcube
