// Copyright 2026 The dpcube Authors.
//
// The one event loop of the network layer: an epoll reactor, one per
// network thread (the acceptor and each poller). Four jobs:
//
//   * Watch / Modify / Unwatch an fd with a handler. Registration is
//     persistent and level-triggered, so nothing is rebuilt per round,
//     dispatch is O(ready fds), and a handler that stops before EAGAIN
//     is simply called again.
//   * One-shot timers. The wait timeout is the nearest deadline; with no
//     timer the loop blocks until an fd event or a Post (no tick).
//   * Post(closure), from any thread, through an eventfd; posts that
//     arrive while one is pending share its wakeup.
//   * Run until Stop.
//
// Guarantees:
//   * An event for an fd unwatched earlier in the same batch never
//     reaches a handler, even if the fd number was reused since: each
//     registration's epoll cookie carries a generation that must match.
//   * A handler may unwatch itself; its closure lives until the batch
//     is done.
//   * Interest 0 keeps the handler but takes the fd out of the kernel
//     set, since epoll reports EPOLLERR/EPOLLHUP even unasked.
//   * Run is one-shot. Once it returns, Post drops its closure uncalled
//     and queued closures are destroyed uncalled — so a closure over
//     raw pointers to the loop's owner is safe to post from any thread
//     while the (shared_ptr-held) loop object lives.
//
// Post and Stop are thread-safe. Everything else belongs to the loop
// thread: the one inside Run, or any one thread before Run starts.

#ifndef DPCUBE_NET_EVENT_LOOP_H_
#define DPCUBE_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fd.h"
#include "common/status.h"
#include "common/sync.h"

namespace dpcube {
namespace net {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  /// Called with the ready epoll events (EPOLLIN, EPOLLOUT, EPOLLERR...).
  using Handler = std::function<void(std::uint32_t events)>;
  using Closure = std::function<void()>;
  /// One armed timer; timers fire in (deadline, creation) order. The
  /// default value names none.
  using TimerId = std::pair<Clock::time_point, std::uint64_t>;

  static Result<std::shared_ptr<EventLoop>> Create();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers an fd that is not watched yet (callers Unwatch before
  /// they close) with `events` interest.
  Status Watch(int fd, std::uint32_t events, Handler handler);
  /// No system call when the interest is unchanged.
  void Modify(int fd, std::uint32_t events);
  /// No-op when not watched.
  void Unwatch(int fd);
  bool watched(int fd) const { return fds_.count(fd) != 0; }

  TimerId AddTimer(Clock::time_point deadline, Closure fn);
  /// Disarms `*id` if still armed, and resets it.
  void CancelTimer(TimerId* id);

  void Post(Closure fn);
  /// Ends Run after the current round. Permanent.
  void Stop();
  /// Call once. Fails only if epoll_wait does.
  Status Run();

 private:
  struct Watched {
    std::uint32_t events = 0;
    std::uint32_t generation = 0;
    Handler handler;
  };

  EventLoop(UniqueFd epoll_fd, UniqueFd wake_fd)
      : epoll_fd_(std::move(epoll_fd)), wake_fd_(std::move(wake_fd)) {}
  /// Moves the kernel set from interest `before` to `watched.events`.
  bool Sync(int fd, const Watched& watched, std::uint32_t before);
  void Wake();

  const UniqueFd epoll_fd_;
  const UniqueFd wake_fd_;  ///< eventfd, readable while posts wait.

  // Loop-thread state.
  std::unordered_map<int, std::unique_ptr<Watched>> fds_;
  std::vector<std::unique_ptr<Watched>> retired_;  ///< Freed per batch.
  std::uint32_t next_generation_ = 0;
  std::map<TimerId, Closure> timers_;
  std::uint64_t next_timer_seq_ = 0;

  sync::Mutex mu_;
  std::vector<Closure> posted_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_EVENT_LOOP_H_
