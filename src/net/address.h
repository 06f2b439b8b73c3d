// Copyright 2026 The dpcube Authors.
//
// "host:port" parsing, the two blocking socket setup operations the
// subsystem needs (IPv4 listen, IPv4 connect), and the one accept path
// both listeners (protocol and HTTP) run on their event loop.

#ifndef DPCUBE_NET_ADDRESS_H_
#define DPCUBE_NET_ADDRESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "common/fd.h"
#include "common/status.h"
#include "net/event_loop.h"

namespace dpcube {
namespace net {

/// Splits "host:port" (e.g. "127.0.0.1:8000"; port 0 = ephemeral).
/// `host` must be a dotted-quad IPv4 literal or "localhost".
Status ParseHostPort(const std::string& address, std::string* host,
                     std::uint16_t* port);

/// Creates a non-blocking listening TCP socket bound to host:port with
/// SO_REUSEADDR. On success fills `*bound_port` with the actual port
/// (meaningful when asked for port 0).
Result<UniqueFd> ListenTcp(const std::string& host, std::uint16_t port,
                           int backlog, std::uint16_t* bound_port);

/// Blocking TCP connect to host:port (the client library's transport).
Result<UniqueFd> ConnectTcp(const std::string& host, std::uint16_t port);

/// The accept path both listeners share: watches `listen_fd` on `loop`
/// and accepts until EAGAIN, handing each (non-blocking) socket to
/// `on_accept`; admission, socket options and connection building stay
/// with the caller. When accept(2) fails on fd or memory exhaustion the
/// peer stays in the backlog and the level-triggered listener stays
/// readable, so it is unwatched for kBackoff and a loop timer re-watches
/// it. Loop thread only.
class Acceptor {
 public:
  static constexpr std::chrono::milliseconds kBackoff{100};

  Acceptor(EventLoop* loop, int listen_fd,
           std::function<void(UniqueFd)> on_accept);
  ~Acceptor();  ///< Unwatches.

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Unwatched until Resume (the caller is at capacity); may be called
  /// from `on_accept`.
  void Pause() {
    paused_ = true;
    Sync();
  }
  void Resume() {
    paused_ = false;
    Sync();
  }
  /// Unwatched for `window` from now; 0 ends a running backoff.
  void BackOff(std::chrono::milliseconds window);
  bool watched() const { return loop_->watched(fd_); }

 private:
  bool wanted() const { return !paused_ && backoff_ == EventLoop::TimerId{}; }
  void Sync();

  EventLoop* const loop_;
  const int fd_;
  const std::function<void(UniqueFd)> on_accept_;
  bool paused_ = false;
  EventLoop::TimerId backoff_{};
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_ADDRESS_H_
