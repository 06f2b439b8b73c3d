// Copyright 2026 The dpcube Authors.

#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <string>

namespace dpcube {
namespace net {

namespace {

// The eventfd's cookie: fd -1 with an all-ones generation, which no
// registration carries.
constexpr std::uint64_t kWakeCookie = ~std::uint64_t{0};

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + ::strerror(errno));
}

}  // namespace

Result<std::shared_ptr<EventLoop>> EventLoop::Create() {
  UniqueFd epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd.valid()) return ErrnoStatus("epoll_create1");
  UniqueFd wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd.valid()) return ErrnoStatus("eventfd");
  struct epoll_event event = {};
  event.events = EPOLLIN;
  event.data.u64 = kWakeCookie;
  if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, wake_fd.get(), &event)) {
    return ErrnoStatus("epoll_ctl");
  }
  return std::shared_ptr<EventLoop>(
      new EventLoop(std::move(epoll_fd), std::move(wake_fd)));
}

bool EventLoop::Sync(int fd, const Watched& watched, std::uint32_t before) {
  if (watched.events == before) return true;
  if (watched.events == 0) {
    return ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) == 0;
  }
  struct epoll_event event = {};
  event.events = watched.events;
  event.data.u64 = (std::uint64_t{watched.generation} << 32) |
                   static_cast<std::uint32_t>(fd);
  return ::epoll_ctl(epoll_fd_.get(),
                     before == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                     &event) == 0;
}

Status EventLoop::Watch(int fd, std::uint32_t events, Handler handler) {
  if (watched(fd)) return Status::FailedPrecondition("fd already watched");
  auto entry = std::make_unique<Watched>();
  if (++next_generation_ == ~std::uint32_t{0}) next_generation_ = 1;
  *entry = Watched{events, next_generation_, std::move(handler)};
  if (!Sync(fd, *entry, 0)) return ErrnoStatus("epoll_ctl");
  fds_.emplace(fd, std::move(entry));
  return Status::OK();
}

void EventLoop::Modify(int fd, std::uint32_t events) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  const std::uint32_t before = std::exchange(it->second->events, events);
  Sync(fd, *it->second, before);
}

void EventLoop::Unwatch(int fd) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  Modify(fd, 0);
  retired_.push_back(std::move(it->second));
  fds_.erase(it);
}

EventLoop::TimerId EventLoop::AddTimer(Clock::time_point deadline,
                                       Closure fn) {
  const TimerId id{deadline, ++next_timer_seq_};
  timers_.emplace(id, std::move(fn));
  return id;
}

void EventLoop::CancelTimer(TimerId* id) {
  timers_.erase(*id);
  *id = TimerId{};
}

void EventLoop::Post(Closure fn) {
  bool wake = false;
  {
    sync::MutexLock lock(&mu_);
    if (stopped_) return;  // `fn` is destroyed uncalled, after unlock.
    wake = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  if (wake) Wake();
}

void EventLoop::Stop() {
  {
    sync::MutexLock lock(&mu_);
    stopped_ = true;
  }
  Wake();
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated: a wakeup is pending anyway.
  while (::write(wake_fd_.get(), &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

Status EventLoop::Run() {
  constexpr int kBatch = 64;
  struct epoll_event events[kBatch];
  Status status = Status::OK();
  std::vector<Closure> posted;
  for (;;) {
    int timeout_ms = -1;  // No timer: block until an fd event or a Post.
    if (!timers_.empty()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          timers_.begin()->first.first - Clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events, kBatch, timeout_ms);
    if (n < 0 && errno != EINTR) {
      status = ErrnoStatus("epoll_wait");
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t cookie = events[i].data.u64;
      if (cookie == kWakeCookie) {
        std::uint64_t count = 0;
        (void)!::read(wake_fd_.get(), &count, sizeof(count));
        continue;
      }
      const auto it = fds_.find(static_cast<int>(cookie & 0xffffffffu));
      if (it == fds_.end() || it->second->generation != (cookie >> 32)) {
        continue;  // Unwatched earlier in this batch.
      }
      Watched* entry = it->second.get();
      const std::uint32_t ready =
          events[i].events & (entry->events | EPOLLERR | EPOLLHUP);
      if (entry->events != 0 && ready != 0) entry->handler(ready);
    }
    retired_.clear();
    while (!timers_.empty() && timers_.begin()->first.first <= Clock::now()) {
      // Extracted first so the closure may add or cancel timers freely.
      auto node = timers_.extract(timers_.begin());
      node.mapped()();
    }
    {
      sync::MutexLock lock(&mu_);
      posted.swap(posted_);
    }
    for (Closure& fn : posted) fn();
    posted.clear();
    sync::MutexLock lock(&mu_);
    if (stopped_) break;
  }
  {
    sync::MutexLock lock(&mu_);
    stopped_ = true;  // Also after a failed wait.
    posted.swap(posted_);
  }
  posted.clear();  // Destroyed uncalled, outside the lock.
  retired_.clear();
  return status;
}

}  // namespace net
}  // namespace dpcube
