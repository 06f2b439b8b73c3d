// Copyright 2026 The dpcube Authors.
//
// The lingering-close bugfix, at every layer it applies:
//
//   * LingerSet itself: FIN-then-wait semantics, immediate resolution
//     when the peer already half-closed, and the bounded timeout.
//   * The admission BUSY goodbye: a refused peer that is still
//     pipelining frames when the goodbye goes out must receive it
//     intact — before the fix, the server's close() of a socket with
//     unread input sent an RST that could destroy the goodbye in the
//     peer's receive queue.
//   * The quit goodbye: frames pipelined past "quit" are discarded
//     unanswered, but the final "OK bye" must still arrive, followed by
//     a clean EOF (never ECONNRESET).
//   * The HTTP endpoint: an early answer (431) to a request the peer is
//     still sending survives, and accept backs off instead of spinning
//     when accept(2) fails on resource exhaustion.
//
// The LingerSet and standalone-endpoint cases drive a real EventLoop,
// exactly as the pollers and the acceptor do.

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fd.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "net/address.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/http_endpoint.h"
#include "net/linger.h"
#include "net/socket_listener.h"
#include "service/batch_executor.h"
#include "service/marginal_cache.h"
#include "service/query_service.h"
#include "service/release_store.h"
#include "service/serve_protocol.h"
#include "strategy/fourier_strategy.h"

namespace dpcube {
namespace net {
namespace {

// A real archived release on disk (same recipe as server_loopback_test).
const std::string& ReleasePath() {
  static const std::string* path = [] {
    Rng rng(5);
    const data::Dataset dataset = data::MakeNltcsLike(1200, &rng);
    const data::SparseCounts counts =
        data::SparseCounts::FromDataset(dataset);
    const marginal::Workload w = marginal::WorkloadQk(dataset.schema(), 2);
    const strategy::FourierStrategy strat(w);
    engine::ReleaseOptions options;
    options.params.epsilon = 1.0;
    Rng release_rng(6);
    auto outcome =
        engine::ReleaseWorkload(strat, counts, options, &release_rng);
    EXPECT_TRUE(outcome.ok());
    auto* p = new std::string(::testing::TempDir() + "/linger_release.csv");
    EXPECT_TRUE(engine::WriteReleaseCsv(*p, outcome.value().marginals).ok());
    return p;
  }();
  return *path;
}

class LoopbackServer {
 public:
  explicit LoopbackServer(ServerOptions options)
      : pool_(4),
        store_(std::make_shared<service::ReleaseStore>()),
        cache_(std::make_shared<service::MarginalCache>()),
        service_(std::make_shared<const service::QueryService>(store_,
                                                               cache_)),
        executor_(std::make_shared<const service::BatchExecutor>(service_,
                                                                 &pool_)),
        listener_(std::move(options),
                  ServeContext{store_, cache_, service_, executor_,
                               &pool_}) {
    EXPECT_TRUE(store_->LoadFromFile("demo", ReleasePath()).ok());
    EXPECT_TRUE(listener_.Start().ok());
    serve_thread_ = std::thread([this] {
      auto served = listener_.Serve();
      EXPECT_TRUE(served.ok()) << served.status();
    });
  }

  ~LoopbackServer() {
    if (serve_thread_.joinable()) {
      listener_.Shutdown();
      serve_thread_.join();
    }
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(listener_.bound_port());
  }
  SocketListener& listener() { return listener_; }

 private:
  ThreadPool pool_;
  std::shared_ptr<service::ReleaseStore> store_;
  std::shared_ptr<service::MarginalCache> cache_;
  std::shared_ptr<const service::QueryService> service_;
  std::shared_ptr<const service::BatchExecutor> executor_;
  SocketListener listener_;
  std::thread serve_thread_;
};

// Reads frames from a raw socket until `count` frames arrive or the
// peer closes; returns the decoded payloads. Any recv error (ECONNRESET
// from a lost race with an RST) fails the calling test via the returned
// short vector.
std::vector<std::string> ReadFrames(int fd, std::size_t count) {
  FrameDecoder decoder;
  std::vector<std::string> frames;
  std::string payload;
  char buf[4096];
  while (frames.size() < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: caller checks the frame count.
    decoder.Append(buf, static_cast<std::size_t>(n));
    while (frames.size() < count &&
           decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
  }
  return frames;
}

// Reads to EOF, reporting whether the close was clean (true) or an
// ECONNRESET-style error (false).
bool DrainToCleanEof(int fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) return true;
  }
}

std::shared_ptr<EventLoop> NewLoop() {
  auto loop = EventLoop::Create();
  EXPECT_TRUE(loop.ok()) << loop.status();
  return loop.ok() ? std::move(loop).value() : nullptr;
}

// Runs `loop` on this thread until `linger` is empty (what a poller's
// loop does on its way out).
void RunUntilEmpty(EventLoop* loop, LingerSet* linger) {
  linger->WhenEmpty([loop] { loop->Stop(); });
  EXPECT_TRUE(loop->Run().ok());
}

TEST(LingerSetTest, PeerAlreadyFinishedClosesImmediately) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd ours(sv[0]);
  UniqueFd theirs(sv[1]);
  theirs.reset();  // Peer fully closed: recv on ours returns 0 at once.

  LingerSet linger(NewLoop());
  linger.Add(std::move(ours));
  EXPECT_TRUE(linger.empty());  // Resolved inline, never registered.
}

TEST(LingerSetTest, ResolvesWhenThePeerFins) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd ours(sv[0]);
  UniqueFd theirs(sv[1]);
  ASSERT_TRUE(SetNonBlocking(ours.get()).ok());

  auto loop = NewLoop();
  LingerSet linger(loop);
  linger.Add(std::move(ours));
  ASSERT_EQ(linger.size(), 1u);

  // The peer sends a straggler (must be drained, not RST'd) then FINs.
  ASSERT_EQ(::send(theirs.get(), "tail", 4, MSG_NOSIGNAL), 4);
  theirs.reset();
  RunUntilEmpty(loop.get(), &linger);
  EXPECT_TRUE(linger.empty());
}

TEST(LingerSetTest, TimeoutBoundsAPeerThatNeverCloses) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd ours(sv[0]);
  UniqueFd theirs(sv[1]);
  ASSERT_TRUE(SetNonBlocking(ours.get()).ok());

  auto loop = NewLoop();
  LingerSet linger(loop, std::chrono::milliseconds(50));
  linger.Add(std::move(ours));
  ASSERT_EQ(linger.size(), 1u);
  const auto start = std::chrono::steady_clock::now();
  // `theirs` stays open: only the timeout ends it.
  RunUntilEmpty(loop.get(), &linger);
  EXPECT_TRUE(linger.empty());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

TEST(LingerCloseTest, BusyGoodbyeSurvivesPipelinedInput) {
  ServerOptions options;
  options.admission.max_connections = 1;
  LoopbackServer server(options);

  // Occupy the only slot so every later connect is refused.
  auto first = Client::Connect(server.address());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().CallLines("list").ok());

  // The refused peer pipelines frames immediately after connecting —
  // racing its input against the server's BUSY-goodbye-and-close. The
  // goodbye must arrive intact every time: the lingering close FINs and
  // waits instead of RST-ing the unread input. Iterate to give the race
  // both orderings.
  for (int round = 0; round < 10; ++round) {
    auto fd = ConnectTcp("127.0.0.1", server.listener().bound_port());
    ASSERT_TRUE(fd.ok());
    std::string burst;
    for (int i = 0; i < 8; ++i) {
      burst += EncodeFrame("query demo marginal 0x3");
    }
    ASSERT_EQ(::send(fd.value().get(), burst.data(), burst.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));

    const auto frames = ReadFrames(fd.value().get(), 1);
    ASSERT_EQ(frames.size(), 1u) << "round " << round;
    const auto lines = SplitResponseLines(frames[0]);
    ASSERT_EQ(lines.size(), 1u) << "round " << round;
    EXPECT_EQ(lines[0].rfind("BUSY connection limit", 0), 0u)
        << "round " << round << ": " << lines[0];
    EXPECT_TRUE(DrainToCleanEof(fd.value().get())) << "round " << round;
  }
}

TEST(LingerCloseTest, QuitGoodbyeSurvivesFramesPipelinedPastIt) {
  LoopbackServer server({});

  for (int round = 0; round < 10; ++round) {
    auto fd = ConnectTcp("127.0.0.1", server.listener().bound_port());
    ASSERT_TRUE(fd.ok());
    // One burst: a query, quit, and frames pipelined past the quit. The
    // post-quit frames are discarded unanswered by contract, but the
    // responses owed BEFORE the quit — including the final "OK bye" —
    // must arrive byte-intact, then a clean EOF. Before the fix, the
    // unread post-quit frames made the server's close send an RST.
    std::string burst = EncodeFrame("query demo marginal 0x5");
    burst += EncodeFrame("quit");
    for (int i = 0; i < 8; ++i) {
      burst += EncodeFrame("query demo marginal 0x3");
    }
    ASSERT_EQ(::send(fd.value().get(), burst.data(), burst.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));

    const auto frames = ReadFrames(fd.value().get(), 2);
    ASSERT_EQ(frames.size(), 2u) << "round " << round;
    const auto query_lines = SplitResponseLines(frames[0]);
    ASSERT_EQ(query_lines.size(), 1u);
    EXPECT_EQ(query_lines[0].rfind("OK query mask=0x5", 0), 0u)
        << "round " << round << ": " << query_lines[0];
    EXPECT_EQ(frames[1], "OK bye\n") << "round " << round;
    EXPECT_TRUE(DrainToCleanEof(fd.value().get())) << "round " << round;
  }
}

// Serves a standalone HttpEndpoint on its own reactor thread, the way
// the acceptor's loop carries it in the server (with a linger set on
// the same loop). Test-side reads of loop state go through On(), which
// runs the query on the loop thread.
class ServedEndpoint {
 public:
  explicit ServedEndpoint(HttpEndpoint* endpoint)
      : endpoint_(endpoint),
        loop_(NewLoop()),
        linger_(std::make_shared<LingerSet>(loop_)) {
    endpoint_->Attach(loop_.get(), linger_);  // Before Run: any thread.
    thread_ = std::thread([this] { EXPECT_TRUE(loop_->Run().ok()); });
  }

  ~ServedEndpoint() {
    loop_->Stop();
    thread_.join();
    endpoint_->Detach();
  }

  template <typename F>
  auto On(F query) -> decltype(query()) {
    std::promise<decltype(query())> result;
    loop_->Post([&] { result.set_value(query()); });
    return result.get_future().get();
  }

  std::size_t lingering() {
    return On([this] { return linger_->size(); });
  }
  std::size_t connections() {
    return On([this] { return endpoint_->connection_count(); });
  }
  bool accepting() {
    return On([this] { return endpoint_->accepting(); });
  }
  void BackOffAccept(std::chrono::milliseconds window) {
    On([this, window] {
      endpoint_->BackOffAcceptForTests(window);
      return true;
    });
  }

 private:
  HttpEndpoint* const endpoint_;
  std::shared_ptr<EventLoop> loop_;
  std::shared_ptr<LingerSet> linger_;
  std::thread thread_;
};

TEST(LingerCloseTest, HttpEarlyAnswerSurvivesAnUnfinishedRequest) {
  HttpEndpoint endpoint("127.0.0.1:0");
  ASSERT_TRUE(endpoint.Start().ok());
  ServedEndpoint served(&endpoint);

  // A request larger than the endpoint buffers: the 431 goes out while
  // the tail of the request sits unread in the server's receive queue.
  auto fd = ConnectTcp("127.0.0.1", endpoint.bound_port());
  ASSERT_TRUE(fd.ok());
  const std::string huge =
      "GET /metrics HTTP/1.0\r\nX-Junk: " +
      std::string(2 * HttpEndpoint::kMaxRequestBytes, 'a');
  ASSERT_EQ(::send(fd.value().get(), huge.data(), huge.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(huge.size()));

  // Wait until the response has been flushed and the fd handed to the
  // linger set (response written, connection slot released).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.lingering() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(served.lingering(), 1u);
  EXPECT_EQ(served.connections(), 0u);

  // The full 431 is readable despite the unread request tail, ending in
  // a FIN (clean EOF), not an RST.
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GE(n, 0) << "connection reset while reading the 431";
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  fd.value().reset();  // Our FIN lets the linger entry resolve.
  while (served.lingering() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(response.rfind("HTTP/1.0 431", 0), 0u) << response;
  EXPECT_EQ(served.lingering(), 0u);
}

TEST(LingerCloseTest, HttpAcceptBackoffKeepsTheListenerOutOfTheWatchSet) {
  HttpEndpoint endpoint("127.0.0.1:0");
  endpoint.AddRoute("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  ServedEndpoint served(&endpoint);

  // Baseline: the listener is watched.
  ASSERT_TRUE(served.accepting());

  // Inside the backoff window (as set after an EMFILE-family accept
  // failure), the listener is withheld — a level-triggered readable
  // listener that cannot be accepted from would busy-spin the loop — and
  // a pending connect is not accepted while the loop keeps running.
  served.BackOffAccept(std::chrono::hours(1));
  EXPECT_FALSE(served.accepting());
  auto fd = ConnectTcp("127.0.0.1", endpoint.bound_port());
  ASSERT_TRUE(fd.ok());
  const std::string request = "GET /ping HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(served.connections(), 0u);
  EXPECT_FALSE(served.accepting());
  char buf[4096];
  EXPECT_LT(::recv(fd.value().get(), buf, sizeof(buf), MSG_DONTWAIT), 0);

  // Once the window passes, accepting resumes and requests are served.
  served.BackOffAccept(std::chrono::milliseconds(0));
  std::string response;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n =
        ::recv(fd.value().get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) response.append(buf, static_cast<std::size_t>(n));
    if (n == 0) break;
    if (response.find("pong") != std::string::npos) break;
    if (n < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(served.accepting());
  EXPECT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
}

TEST(LingerCloseTest, HttpConnectionCapKeepsTheListenerOutOfTheWatchSet) {
  HttpEndpoint endpoint("127.0.0.1:0");
  endpoint.AddRoute("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  ServedEndpoint served(&endpoint);
  const auto cap = static_cast<std::size_t>(HttpEndpoint::kMaxConnections);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);

  // Silent peers fill every slot: the listener leaves the watch set.
  // They connect in batches that fit the listen backlog, so no
  // handshake waits out a SYN-ACK retransmit.
  std::vector<UniqueFd> silent;
  while (silent.size() < cap) {
    for (int i = 0; i < 8 && silent.size() < cap; ++i) {
      auto fd = ConnectTcp("127.0.0.1", endpoint.bound_port());
      ASSERT_TRUE(fd.ok());
      silent.push_back(std::move(fd).value());
    }
    while (served.connections() < silent.size() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(served.connections(), cap);
  EXPECT_FALSE(served.accepting());

  // One more peer waits in the backlog, unanswered, while at the cap.
  auto extra = ConnectTcp("127.0.0.1", endpoint.bound_port());
  ASSERT_TRUE(extra.ok());
  const std::string request = "GET /ping HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(extra.value().get(), request.data(), request.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(served.connections(), cap);
  char buf[4096];
  EXPECT_LT(::recv(extra.value().get(), buf, sizeof(buf), MSG_DONTWAIT), 0);

  // A silent peer leaves: its slot frees, the listener is watched
  // again, and the waiting request is served.
  silent.pop_back();
  std::string response;
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n =
        ::recv(extra.value().get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) response.append(buf, static_cast<std::size_t>(n));
    if (n == 0 || response.find("pong") != std::string::npos) break;
    if (n < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
}

}  // namespace
}  // namespace net
}  // namespace dpcube
