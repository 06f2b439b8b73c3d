// Copyright 2026 The dpcube Authors.
//
// The reactor every network thread runs: handlers fire on readiness
// only, timers fire in deadline order and never once cancelled, an idle
// loop does not tick, an event for an fd unwatched earlier in the same
// batch never reaches a handler (even when the fd number is reused at
// once), and a Post after Stop is dropped without being called.

#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fd.h"
#include "net/event_loop.h"

namespace dpcube {
namespace net {
namespace {

using Clock = EventLoop::Clock;
using std::chrono::milliseconds;

std::shared_ptr<EventLoop> NewLoop() {
  auto loop = EventLoop::Create();
  EXPECT_TRUE(loop.ok()) << loop.status();
  return loop.ok() ? std::move(loop).value() : nullptr;
}

struct SocketPair {
  SocketPair() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
    ours.reset(sv[0]);
    theirs.reset(sv[1]);
  }
  UniqueFd ours;
  UniqueFd theirs;
};

void Drain(int fd) {
  char buf[256];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
}

long VoluntarySwitchesOfThisThread() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

TEST(EventLoopTest, HandlerFiresOnlyOnReadiness) {
  auto loop = NewLoop();
  SocketPair pair;
  int calls = 0;
  std::uint32_t seen = 0;
  ASSERT_TRUE(loop->Watch(pair.ours.get(), EPOLLIN,
                          [&](std::uint32_t events) {
                            seen |= events;
                            Drain(pair.ours.get());
                            // Keep running a while to catch a repeat.
                            if (++calls == 1) {
                              loop->AddTimer(Clock::now() + milliseconds(50),
                                             [&] { loop->Stop(); });
                            }
                          })
                  .ok());
  loop->AddTimer(Clock::now() + milliseconds(50), [&] {
    EXPECT_EQ(calls, 0) << "fired with nothing to read";
    ASSERT_EQ(::send(pair.theirs.get(), "x", 1, MSG_NOSIGNAL), 1);
  });
  // Only if the handler never fires.
  loop->AddTimer(Clock::now() + std::chrono::seconds(10),
                 [&] { loop->Stop(); });
  ASSERT_TRUE(loop->Run().ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(seen & EPOLLIN);

  // Interest 0 keeps the handler but asks the kernel for nothing, not
  // even the HUP epoll always reports.
  auto quiet = NewLoop();
  SocketPair hung;
  bool called = false;
  ASSERT_TRUE(quiet->Watch(hung.ours.get(), 0,
                           [&](std::uint32_t) { called = true; })
                  .ok());
  hung.theirs.reset();  // Readable (EOF) and hung up from here on.
  quiet->AddTimer(Clock::now() + milliseconds(50), [&] { quiet->Stop(); });
  ASSERT_TRUE(quiet->Run().ok());
  EXPECT_FALSE(called);
  EXPECT_TRUE(quiet->watched(hung.ours.get()));
}

TEST(EventLoopTest, TimersFireInDeadlineOrderAndCancelledOnesNever) {
  auto loop = NewLoop();
  const auto start = Clock::now();
  std::vector<int> fired;
  EventLoop::TimerId doomed_later;
  loop->AddTimer(start + milliseconds(30), [&] { fired.push_back(30); });
  loop->AddTimer(start + milliseconds(10), [&] {
    fired.push_back(10);
    loop->CancelTimer(&doomed_later);  // Cancelled from inside a timer.
  });
  loop->AddTimer(start + milliseconds(20), [&] { fired.push_back(20); });
  // Same deadline: creation order.
  loop->AddTimer(start + milliseconds(20), [&] { fired.push_back(21); });
  EventLoop::TimerId doomed =
      loop->AddTimer(start + milliseconds(15), [&] { fired.push_back(-1); });
  doomed_later =
      loop->AddTimer(start + milliseconds(25), [&] { fired.push_back(-2); });
  loop->CancelTimer(&doomed);
  EXPECT_EQ(doomed, EventLoop::TimerId{});
  loop->AddTimer(start + milliseconds(40), [&] {
    EXPECT_GE(Clock::now() - start, milliseconds(40));
    loop->Stop();
  });
  ASSERT_TRUE(loop->Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 21, 30}));
}

TEST(EventLoopTest, IdleLoopBlocksUntilAnEventOrAPost) {
  auto loop = NewLoop();
  SocketPair pair;
  std::promise<void> readable;
  ASSERT_TRUE(loop->Watch(pair.ours.get(), EPOLLIN,
                          [&](std::uint32_t) {
                            Drain(pair.ours.get());
                            readable.set_value();
                          })
                  .ok());
  std::thread runner([&] { EXPECT_TRUE(loop->Run().ok()); });

  // The loop thread's voluntary context switches between two posts that
  // are half a second apart: it blocks once and stays blocked. A 100ms
  // tick would show at least five.
  std::promise<long> first;
  loop->Post([&] { first.set_value(VoluntarySwitchesOfThisThread()); });
  const long before = first.get_future().get();
  std::this_thread::sleep_for(milliseconds(500));
  std::promise<long> second;
  loop->Post([&] { second.set_value(VoluntarySwitchesOfThisThread()); });
  EXPECT_LE(second.get_future().get() - before, 2);

  // An fd event from another thread wakes it as well.
  ASSERT_EQ(::send(pair.theirs.get(), "x", 1, MSG_NOSIGNAL), 1);
  EXPECT_EQ(readable.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  loop->Stop();
  runner.join();
}

TEST(EventLoopTest, UnwatchedFdNeverSeesAStaleDispatchEvenWhenReused) {
  auto loop = NewLoop();
  SocketPair a;
  SocketPair b;
  // Both readable before the first wait, so one epoll_wait reports both.
  ASSERT_EQ(::send(a.theirs.get(), "x", 1, MSG_NOSIGNAL), 1);
  ASSERT_EQ(::send(b.theirs.get(), "x", 1, MSG_NOSIGNAL), 1);

  int first_calls = 0;
  int stale_calls = 0;
  UniqueFd reused;
  int victim_number = -1;
  // Whichever handler runs first unwatches and closes the other fd,
  // then opens a fresh, never-readable fd that takes the same number
  // and watches it. The victim's queued event must reach nobody.
  auto make_handler = [&](UniqueFd* self, UniqueFd* other) {
    return [&, self, other](std::uint32_t) {
      if (first_calls++ > 0) {
        ++stale_calls;  // The victim's handler ran after its unwatch.
        return;
      }
      Drain(self->get());
      victim_number = other->get();
      loop->Unwatch(victim_number);
      other->reset();
      reused.reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
      ASSERT_EQ(reused.get(), victim_number) << "fd number not reused";
      ASSERT_TRUE(loop->Watch(reused.get(), EPOLLIN,
                              [&](std::uint32_t) { ++stale_calls; })
                      .ok());
    };
  };
  ASSERT_TRUE(
      loop->Watch(a.ours.get(), EPOLLIN, make_handler(&a.ours, &b.ours)).ok());
  ASSERT_TRUE(
      loop->Watch(b.ours.get(), EPOLLIN, make_handler(&b.ours, &a.ours)).ok());
  loop->AddTimer(Clock::now() + milliseconds(50), [&] { loop->Stop(); });
  ASSERT_TRUE(loop->Run().ok());
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(stale_calls, 0);
  EXPECT_GE(victim_number, 0);
  EXPECT_TRUE(loop->watched(reused.get()));
}

TEST(EventLoopTest, PostAfterStopIsDroppedUncalled) {
  auto loop = NewLoop();
  bool before_stop = false;
  loop->Post([&] { before_stop = true; });
  loop->Stop();

  // Posted after Stop: never called; its captures are released at once.
  auto token = std::make_shared<int>(7);
  bool after_stop = false;
  loop->Post([&after_stop, token] { after_stop = true; });
  EXPECT_EQ(token.use_count(), 1);

  ASSERT_TRUE(loop->Run().ok());  // Returns: the loop was stopped.
  EXPECT_TRUE(before_stop);
  EXPECT_FALSE(after_stop);

  // And from another thread once Run has returned.
  std::thread late([&] {
    loop->Post([&after_stop, token] { after_stop = true; });
  });
  late.join();
  EXPECT_FALSE(after_stop);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace net
}  // namespace dpcube
