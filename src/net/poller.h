// Copyright 2026 The dpcube Authors.
//
// One event-loop poller thread of the multi-poller front end. The
// SocketListener's acceptor admits sockets and hands each resulting
// Connection to one Poller chosen round-robin; from that moment the
// connection is PINNED to that poller for its whole life — the poller's
// thread is the only "network thread" that ever touches its read/decode
// /dispatch/flush state, so the single-threaded discipline connection.h
// documents still holds, just per poller instead of per process.
//
// Each poller owns one EventLoop (see event_loop.h) and runs it on its
// thread. On that loop live:
//   * one persistent registration per pinned connection, re-registered
//     only when the connection's interest changes;
//   * every cross-thread handoff, as a posted closure: an adopted
//     connection, the drain broadcast, and a pool worker's wakeup —
//     which posts that one connection, never a sweep of all of them;
//   * a LingerSet, shared with its connections, so a closing
//     connection parks its fd on this loop until the peer's FIN (see
//     linger.h).
//
// Compute still never runs here: sessions execute on the ServeContext's
// ThreadPool, and a poller with nothing to do blocks in epoll_wait with
// no timeout — it has no tick.
//
// Drain: the acceptor broadcasts BeginDrain(deadline) to every poller;
// each drains its own connections (stop reading, finish admitted work,
// flush, linger-close), drops what is left at the deadline, runs until
// its linger set is empty, and then calls the `on_exit` hook it was
// started with (the acceptor counts those down; see socket_listener.h).

#ifndef DPCUBE_NET_POLLER_H_
#define DPCUBE_NET_POLLER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/linger.h"

namespace dpcube {
namespace net {

class Poller {
 public:
  explicit Poller(int id);
  /// Joins the thread if the owner never drained it (posts an immediate
  /// deadline first, so destruction is bounded).
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  int id() const { return id_; }

  /// Creates the loop and linger set and spawns the loop thread, which
  /// calls `on_exit` once the loop has stopped. Call once.
  Status Start(std::function<void()> on_exit);

  /// Hands a freshly admitted connection to this poller (any thread).
  /// The connection must have been built with this poller's
  /// MakeWakeup(its id) closure and linger().
  void Adopt(std::shared_ptr<Connection> connection);

  /// Thread-safe: stop reading, finish admitted work, flush, exit by
  /// `deadline` plus one linger window at the latest. Idempotent.
  void BeginDrain(std::chrono::steady_clock::time_point deadline);

  void Join();

  /// The closure a pool worker calls when connection `connection_id`
  /// has a response ready: it posts that connection's pump to this
  /// poller's loop. Valid after Start(); safe to call from any thread
  /// for as long as the copy lives, even past the poller itself (a
  /// stopped loop drops the post).
  std::function<void()> MakeWakeup(std::uint64_t connection_id);

  /// The linger set on this poller's loop; connections park closing
  /// fds here. Shared so a connection destroyed after the poller (a
  /// pool task holding the last reference) still has somewhere safe to
  /// put its fd — with the loop stopped, the fd is simply closed.
  const std::shared_ptr<LingerSet>& linger() const { return linger_; }

  /// Connections currently pinned here (relaxed; exported as the
  /// dpcube_poller_connections{poller=} gauge). The counting atomic is
  /// shared so the metrics registry can outlive the poller.
  const std::shared_ptr<std::atomic<std::size_t>>& connection_gauge()
      const {
    return connection_count_;
  }
  std::size_t connection_count() const {
    return connection_count_->load(std::memory_order_relaxed);
  }

  /// Connections ever handed to this poller (round-robin visibility).
  const std::shared_ptr<std::atomic<std::uint64_t>>& adopted_counter()
      const {
    return adopted_total_;
  }
  std::uint64_t adopted_total() const {
    return adopted_total_->load(std::memory_order_relaxed);
  }

 private:
  // Loop thread only.
  void Register(std::shared_ptr<Connection> connection);
  /// After any event on `connection`: retires it when finished, else
  /// brings its registered interest up to date.
  void Service(Connection* connection);
  void Retire(std::uint64_t connection_id);
  void StartDrain(std::chrono::steady_clock::time_point deadline);
  /// Drained (or past the deadline) and nothing pinned: stop the loop
  /// once the linger set is empty.
  void MaybeExit();

  const int id_;
  std::shared_ptr<EventLoop> loop_;
  std::shared_ptr<LingerSet> linger_;
  std::thread thread_;

  // Loop-thread state.
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>>
      connections_;  ///< By connection id.
  bool draining_ = false;
  EventLoop::TimerId drain_deadline_;

  std::shared_ptr<std::atomic<std::size_t>> connection_count_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::shared_ptr<std::atomic<std::uint64_t>> adopted_total_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_POLLER_H_
