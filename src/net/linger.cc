// Copyright 2026 The dpcube Authors.

#include "net/linger.h"

#include <errno.h>
#include <sys/socket.h>

#include <utility>

namespace dpcube {
namespace net {

bool LingerSet::DrainToEof(int fd) {
  char discard[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, discard, sizeof(discard), 0);
    if (n > 0) continue;
    if (n == 0) return true;  // Peer FIN: receive buffer is empty now.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return true;  // Real error; nothing left to protect.
  }
}

void LingerSet::Add(UniqueFd fd) {
  if (!fd.valid()) return;
  ::shutdown(fd.get(), SHUT_WR);  // FIN rides behind the flushed bytes.
  if (DrainToEof(fd.get())) return;  // Peer already FIN'd: close via RAII.
  const auto deadline = EventLoop::Clock::now() + timeout_;
  pending_.fetch_add(1, std::memory_order_acq_rel);
  // std::function needs a copyable closure; the fd rides in a shared
  // holder and closes with it if the loop drops the post.
  auto holder = std::make_shared<UniqueFd>(std::move(fd));
  loop_->Post([this, holder, deadline] {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    Register(std::move(*holder), deadline);
  });
}

void LingerSet::Register(UniqueFd fd,
                         EventLoop::Clock::time_point deadline) {
  const int key = fd.get();
  const Status watched =
      loop_->Watch(key, EPOLLIN, [this, key](std::uint32_t) {
        if (DrainToEof(key)) Close(key);
      });
  if (!watched.ok()) {
    MaybeDone();  // Closes via RAII: no memory left to linger with.
    return;
  }
  // The peer never FIN'd inside the window: close anyway (a possible
  // RST, but bounded — the linger is a grace period, not a hostage
  // situation).
  const EventLoop::TimerId timer =
      loop_->AddTimer(deadline, [this, key] { Close(key); });
  entries_[key] = Entry{std::move(fd), timer};
}

void LingerSet::Close(int fd) {
  const auto it = entries_.find(fd);
  if (it == entries_.end()) return;
  loop_->Unwatch(fd);
  loop_->CancelTimer(&it->second.deadline);
  entries_.erase(it);
  MaybeDone();
}

void LingerSet::WhenEmpty(std::function<void()> done) {
  when_empty_ = std::move(done);
  MaybeDone();
}

void LingerSet::MaybeDone() {
  if (!when_empty_ || !empty()) return;
  std::function<void()> done = std::move(when_empty_);
  when_empty_ = nullptr;
  done();
}

}  // namespace net
}  // namespace dpcube
