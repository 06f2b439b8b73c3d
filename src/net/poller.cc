// Copyright 2026 The dpcube Authors.

#include "net/poller.h"

#include <sys/epoll.h>

#include <utility>

namespace dpcube {
namespace net {

Poller::Poller(int id) : id_(id) {}

Poller::~Poller() {
  if (thread_.joinable()) {
    BeginDrain(std::chrono::steady_clock::now());
    thread_.join();
  }
}

Status Poller::Start(std::function<void()> on_exit) {
  auto loop = EventLoop::Create();
  if (!loop.ok()) return loop.status();
  loop_ = std::move(loop).value();
  linger_ = std::make_shared<LingerSet>(loop_);
  thread_ = std::thread([this, on_exit = std::move(on_exit)] {
    (void)loop_->Run();  // Fails only on a broken epoll fd; exit anyway.
    connections_.clear();
    connection_count_->store(0, std::memory_order_relaxed);
    on_exit();
  });
  return Status::OK();
}

std::function<void()> Poller::MakeWakeup(std::uint64_t connection_id) {
  // `poller` is dereferenced only inside the posted closure, which runs
  // on the loop thread while the poller is alive, or never.
  return [loop = loop_, poller = this, connection_id] {
    loop->Post([poller, connection_id] {
      const auto it = poller->connections_.find(connection_id);
      if (it == poller->connections_.end()) return;  // Already retired.
      it->second->Pump();
      poller->Service(it->second.get());
    });
  };
}

void Poller::Adopt(std::shared_ptr<Connection> connection) {
  adopted_total_->fetch_add(1, std::memory_order_relaxed);
  loop_->Post([this, connection = std::move(connection)]() mutable {
    Register(std::move(connection));
  });
}

void Poller::BeginDrain(std::chrono::steady_clock::time_point deadline) {
  if (loop_) loop_->Post([this, deadline] { StartDrain(deadline); });
}

void Poller::Join() {
  if (thread_.joinable()) thread_.join();
}

void Poller::Register(std::shared_ptr<Connection> connection) {
  Connection* raw = connection.get();
  const Status watched = loop_->Watch(
      raw->fd(), raw->Interest(), [this, raw](std::uint32_t events) {
        if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) raw->OnReadable();
        if (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) raw->OnWritable();
        Service(raw);
      });
  if (!watched.ok()) return;  // Dropped: the destructor closes the fd.
  connections_.emplace(raw->id(), std::move(connection));
  connection_count_->store(connections_.size(), std::memory_order_relaxed);
  if (draining_) {
    raw->BeginDrain();
    Service(raw);
  }
}

void Poller::Service(Connection* connection) {
  if (connection->Finished()) {
    Retire(connection->id());
  } else {
    loop_->Modify(connection->fd(), connection->Interest());
  }
}

void Poller::Retire(std::uint64_t connection_id) {
  const auto it = connections_.find(connection_id);
  loop_->Unwatch(it->second->fd());
  connections_.erase(it);  // The destructor parks the fd in linger_.
  connection_count_->store(connections_.size(), std::memory_order_relaxed);
  MaybeExit();
}

void Poller::StartDrain(std::chrono::steady_clock::time_point deadline) {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ = loop_->AddTimer(deadline, [this] {
    // Out of time: drop what is left; the destructors still linger.
    drain_deadline_ = EventLoop::TimerId{};
    for (const auto& [id, connection] : connections_) {
      loop_->Unwatch(connection->fd());
    }
    connections_.clear();
    connection_count_->store(0, std::memory_order_relaxed);
    MaybeExit();
  });
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* connection = (it++)->second.get();  // Service may erase it.
    connection->BeginDrain();
    Service(connection);
  }
  MaybeExit();
}

void Poller::MaybeExit() {
  if (!draining_ || !connections_.empty()) return;
  loop_->CancelTimer(&drain_deadline_);
  linger_->WhenEmpty([this] { loop_->Stop(); });
}

}  // namespace net
}  // namespace dpcube
