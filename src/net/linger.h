// Copyright 2026 The dpcube Authors.
//
// Bounded lingering close for sockets that owe the peer already-flushed
// bytes. Calling close() on a TCP socket whose receive buffer still
// holds unread data makes the kernel send an RST — and an RST can
// destroy data the peer has not read yet, including the final response
// or BUSY goodbye this server just flushed. The historical "fix" was
//
//   ::shutdown(fd, SHUT_WR);
//   while (::recv(fd, buf, sizeof(buf), 0) > 0) {}
//   ::close(fd);
//
// which is a no-op on the non-blocking sockets this server uses: recv
// returns EAGAIN immediately, the loop exits, and the close-with-unread
// -data RST happens anyway whenever the peer pipelined past the goodbye.
//
// A LingerSet upholds the contract for real, without blocking its event
// loop: Add() sends the FIN (SHUT_WR) and parks the fd on the loop as a
// level-triggered read handler plus one timer for its deadline; inbound
// bytes are read and discarded until the peer FINs in turn (recv
// returns 0) — only then is the socket closed, with an empty receive
// buffer and no RST. A peer that never FINs is cut off when its timer
// fires (default 1s after Add), so a hostile client can hold at most one
// fd for one linger window.
//
// Threading: Add() is safe from any thread (a Connection's destructor
// may run on a pool worker holding the last reference): it posts the
// registration to the loop, which watches the fd at once. Everything
// else runs on the loop thread. A loop that must not exit while
// sockets still linger (a poller, the acceptor) asks WhenEmpty() to
// stop it; the set must outlive every Run of its loop.

#ifndef DPCUBE_NET_LINGER_H_
#define DPCUBE_NET_LINGER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>

#include "common/fd.h"
#include "net/event_loop.h"

namespace dpcube {
namespace net {

/// How long a lingering socket may wait for the peer's FIN.
inline constexpr std::chrono::milliseconds kLingerTimeout{1000};

class LingerSet {
 public:
  explicit LingerSet(std::shared_ptr<EventLoop> loop,
                     std::chrono::milliseconds timeout = kLingerTimeout)
      : loop_(std::move(loop)), timeout_(timeout) {}
  /// Closes every still-lingering fd (giving up the no-RST guarantee
  /// for them; owners let WhenEmpty stop their loop first).
  ~LingerSet() = default;

  LingerSet(const LingerSet&) = delete;
  LingerSet& operator=(const LingerSet&) = delete;

  /// Half-closes `fd` (FIN after everything already written) and parks
  /// it until the peer FINs or the deadline passes. Closes at once when
  /// the peer's FIN already arrived. Thread-safe; once the loop has
  /// stopped, the fd is simply closed.
  void Add(UniqueFd fd);

  /// Calls `done` once nothing lingers and no Add is still on its way
  /// to the loop: now, or when the last entry resolves. Loop thread.
  void WhenEmpty(std::function<void()> done);

  /// Lingering fds, counting registrations not yet on the loop. Loop
  /// thread (or while no Run is in progress).
  std::size_t size() const {
    return entries_.size() + pending_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }

 private:
  struct Entry {
    UniqueFd fd;
    EventLoop::TimerId deadline;
  };

  /// Loop side of Add: watch `fd` and arm its deadline timer.
  void Register(UniqueFd fd, EventLoop::Clock::time_point deadline);
  /// Unwatches and closes `fd`, then runs the WhenEmpty callback if due.
  void Close(int fd);
  void MaybeDone();

  /// Reads-and-discards until EAGAIN. True when the fd is finished
  /// (peer FIN or error) and should be closed.
  static bool DrainToEof(int fd);

  const std::shared_ptr<EventLoop> loop_;
  const std::chrono::milliseconds timeout_;
  /// Adds posted to the loop and not yet registered there.
  std::atomic<std::size_t> pending_{0};
  // Loop-thread state.
  std::map<int, Entry> entries_;  ///< By fd.
  std::function<void()> when_empty_;
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_LINGER_H_
