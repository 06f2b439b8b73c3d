// Copyright 2026 The dpcube Authors.
//
// End-to-end coverage of the TCP serving subsystem on a loopback
// socket: answers over the wire must be bit-identical to an independent
// in-process QueryService over the same release file; admission control
// must shed with structured BUSY frames (never hang, never drop
// silently); pipelined and batch frames must come back in order; and
// shutdown must drain in-flight work before closing.

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "net/address.h"
#include "net/client.h"
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

// A real archived release on disk (see serve_protocol_fuzz_test).
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
    auto* p = new std::string(::testing::TempDir() + "/loopback_release.csv");
    EXPECT_TRUE(engine::WriteReleaseCsv(*p, outcome.value().marginals).ok());
    return p;
  }();
  return *path;
}

// A server over a fresh store/cache/executor with its own pool, plus the
// Serve() thread. Gets torn down gracefully by each test.
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
      served_ = served.ok() ? served.value() : 0;
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
  ThreadPool& pool() { return pool_; }
  std::uint64_t served() const { return served_; }

 private:
  ThreadPool pool_;
  std::shared_ptr<service::ReleaseStore> store_;
  std::shared_ptr<service::MarginalCache> cache_;
  std::shared_ptr<const service::QueryService> service_;
  std::shared_ptr<const service::BatchExecutor> executor_;
  SocketListener listener_;
  std::thread serve_thread_;
  std::atomic<std::uint64_t> served_{0};
};

// cache_hit depends on which connection warmed the cache first, so the
// bit-identical comparison strips it.
std::string StripCacheHit(std::string line) {
  const auto pos = line.find(" hit=");
  if (pos != std::string::npos) line.erase(pos, 6);  // " hit=X"
  return line;
}

TEST(ServerLoopbackTest, ConcurrentClientsMatchInProcessBitForBit) {
  LoopbackServer server({});

  // Independent in-process reference over the same archive (own store
  // and cache, so nothing is shared with the server).
  auto ref_store = std::make_shared<service::ReleaseStore>();
  ASSERT_TRUE(ref_store->LoadFromFile("demo", ReleasePath()).ok());
  auto ref_cache = std::make_shared<service::MarginalCache>();
  const service::QueryService reference(ref_store, ref_cache);

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect(server.address());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        // Random 1- or 2-bit mask over d=16 (all derivable from Q2).
        const int b1 = static_cast<int>(rng.NextBounded(16));
        const int b2 = static_cast<int>(rng.NextBounded(16));
        const bits::Mask mask =
            (bits::Mask{1} << b1) | (bits::Mask{1} << b2);
        service::Query query;
        query.release = "demo";
        query.beta = mask;
        std::string request = "query demo ";
        switch (rng.NextBounded(3)) {
          case 0:
            query.kind = service::QueryKind::kMarginal;
            request += "marginal " + std::to_string(mask);
            break;
          case 1:
            query.kind = service::QueryKind::kCell;
            query.cell_lo = 1;
            request += "cell " + std::to_string(mask) + " 1";
            break;
          default:
            query.kind = service::QueryKind::kRange;
            query.cell_lo = 0;
            query.cell_hi = 1;
            request += "range " + std::to_string(mask) + " 0 1";
            break;
        }
        auto lines = client.value().CallLines(request);
        if (!lines.ok() || lines.value().size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        const std::string expected =
            service::FormatResponse(reference.Answer(query));
        if (StripCacheHit(lines.value()[0]) != StripCacheHit(expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// The same cross-check with a multi-poller fleet: connections land on
// different pollers round-robin, and the answers must not depend on
// which poller carries which client. Runs under the PR sanitizer
// matrix, so TSan sees the acceptor→poller handoff and the per-poller
// loops with net_threads >= 2.
TEST(ServerLoopbackTest, MultiPollerFleetMatchesInProcessBitForBit) {
  ServerOptions options;
  options.net_threads = 2;
  LoopbackServer server(options);
  ASSERT_EQ(server.listener().net_threads(), 2);

  auto ref_store = std::make_shared<service::ReleaseStore>();
  ASSERT_TRUE(ref_store->LoadFromFile("demo", ReleasePath()).ok());
  auto ref_cache = std::make_shared<service::MarginalCache>();
  const service::QueryService reference(ref_store, ref_cache);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 20;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect(server.address());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(3000 + static_cast<std::uint64_t>(c));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int b1 = static_cast<int>(rng.NextBounded(16));
        const int b2 = static_cast<int>(rng.NextBounded(16));
        const bits::Mask mask =
            (bits::Mask{1} << b1) | (bits::Mask{1} << b2);
        service::Query query;
        query.release = "demo";
        query.beta = mask;
        query.kind = service::QueryKind::kMarginal;
        auto lines = client.value().CallLines("query demo marginal " +
                                              std::to_string(mask));
        if (!lines.ok() || lines.value().size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        const std::string expected =
            service::FormatResponse(reference.Answer(query));
        if (StripCacheHit(lines.value()[0]) != StripCacheHit(expected)) {
          mismatches.fetch_add(1);
        }
      }
      std::string goodbye;
      if (!client.value().Call("quit", &goodbye).ok() ||
          goodbye != "OK bye\n") {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Both pollers saw traffic: 4 clients round-robin over 2 pollers.
  EXPECT_EQ(server.listener().net_threads(), 2);
}

TEST(ServerLoopbackTest, PipelinedAndBatchFramesComeBackInOrder) {
  LoopbackServer server({});
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());

  // Pipeline: three frames queued before any read. The middle one is a
  // batch whose whole conversation rides in a single frame.
  ASSERT_TRUE(client.value().Send("query demo marginal 0x3").ok());
  ASSERT_TRUE(client.value()
                  .Send("batch 2\nquery demo cell 0x3 0\n"
                        "query demo cell 0x3 1\n")
                  .ok());
  ASSERT_TRUE(client.value().Send("list").ok());

  std::string first, second, third;
  ASSERT_TRUE(client.value().Receive(&first).ok());
  ASSERT_TRUE(client.value().Receive(&second).ok());
  ASSERT_TRUE(client.value().Receive(&third).ok());

  EXPECT_EQ(SplitResponseLines(first).size(), 1u);
  EXPECT_EQ(first.rfind("OK query mask=0x3", 0), 0u) << first;
  const auto batch_lines = SplitResponseLines(second);
  ASSERT_EQ(batch_lines.size(), 2u) << second;
  for (const auto& line : batch_lines) {
    EXPECT_EQ(line.rfind("OK query mask=0x3", 0), 0u) << line;
  }
  EXPECT_EQ(third.rfind("OK releases n=1", 0), 0u) << third;

  // An empty frame is legal and echoes an empty response frame.
  std::string empty;
  ASSERT_TRUE(client.value().Call("", &empty).ok());
  EXPECT_TRUE(empty.empty());
}

TEST(ServerLoopbackTest, InflightCapShedsWithBusyAndNeverDrops) {
  ServerOptions options;
  options.admission.max_inflight = 1;
  LoopbackServer server(options);
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());

  // Admission runs at decode time on the network thread, so shedding is
  // made deterministic by parking every pool worker on a gate: the
  // first frame is admitted and occupies the only in-flight slot (its
  // execution cannot finish while the workers are parked), and the
  // 19-frame burst behind it must all shed. Every frame still gets
  // exactly one response, in order.
  constexpr int kWorkers = 3;  // pool_(4) = 3 workers + caller.
  std::promise<void> release_workers;
  std::shared_future<void> gate = release_workers.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < kWorkers; ++w) {
    server.pool().Submit([gate, &parked] {
      parked.fetch_add(1);
      gate.wait();
    });
  }
  while (parked.load() < kWorkers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string heavy = "batch 30\n";
  for (int i = 0; i < 30; ++i) {
    const bits::Mask mask = (bits::Mask{1} << (i % 16)) |
                            (bits::Mask{1} << ((i / 16 + i + 1) % 16));
    heavy += "query demo marginal " + std::to_string(mask) + "\n";
  }
  ASSERT_TRUE(client.value().Send(heavy).ok());
  constexpr int kBurst = 19;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.value().Send("query demo marginal 0x5").ok());
  }
  // Wait until the network thread has decoded (and admitted or shed)
  // the whole pipeline, then let the workers go.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.listener().frames_received() <
             static_cast<std::uint64_t>(1 + kBurst) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.listener().frames_received(),
            static_cast<std::uint64_t>(1 + kBurst));
  release_workers.set_value();

  std::string batch_payload;
  ASSERT_TRUE(client.value().Receive(&batch_payload).ok());
  EXPECT_EQ(SplitResponseLines(batch_payload).size(), 30u);
  int busys = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string payload;
    ASSERT_TRUE(client.value().Receive(&payload).ok()) << "frame " << i;
    const auto lines = SplitResponseLines(payload);
    ASSERT_EQ(lines.size(), 1u);
    if (lines[0].rfind("BUSY", 0) == 0) ++busys;
  }
  EXPECT_EQ(busys, kBurst);
  EXPECT_GE(server.listener().admission().shed_requests(),
            static_cast<std::uint64_t>(busys));

  // The STATS verb reports the shed count.
  auto stats = client.value().CallLines("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_EQ(stats.value()[0].rfind("OK STATS ", 0), 0u) << stats.value()[0];
  EXPECT_NE(stats.value()[0].find(" shed="), std::string::npos);
}

TEST(ServerLoopbackTest, ConnectionCapRejectsWithBusyGoodbye) {
  ServerOptions options;
  options.admission.max_connections = 1;
  LoopbackServer server(options);

  auto first = Client::Connect(server.address());
  ASSERT_TRUE(first.ok());
  // Prove the first connection is live (and occupies the only slot).
  auto warm = first.value().CallLines("list");
  ASSERT_TRUE(warm.ok());

  auto second = Client::Connect(server.address());
  ASSERT_TRUE(second.ok());  // TCP accept succeeds; admission refuses.
  std::string goodbye;
  ASSERT_TRUE(second.value().Receive(&goodbye).ok());
  const auto lines = SplitResponseLines(goodbye);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("BUSY connection limit", 0), 0u) << lines[0];
  // After the goodbye the server closes the connection.
  std::string after;
  EXPECT_FALSE(second.value().Receive(&after).ok());

  // The occupied slot still works, and frees up for a successor.
  EXPECT_TRUE(first.value().CallLines("list").ok());
  EXPECT_TRUE(first.value().Call("quit", &goodbye).ok());
}

TEST(ServerLoopbackTest, ShutdownDrainsInFlightWorkBeforeClosing) {
  LoopbackServer server({});
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  // Establish the connection server-side before the drain starts.
  ASSERT_TRUE(client.value().CallLines("list").ok());

  ASSERT_TRUE(client.value().Send("query demo marginal 0x9").ok());
  // Give the poller time to read and admit the frame, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.listener().Shutdown();

  std::string payload;
  ASSERT_TRUE(client.value().Receive(&payload).ok());
  const auto lines = SplitResponseLines(payload);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("OK query mask=0x9", 0), 0u) << lines[0];
  // Then the server closes cleanly.
  std::string after;
  EXPECT_FALSE(client.value().Receive(&after).ok());
}

TEST(ServerLoopbackTest, QuitClosesTheConversation) {
  LoopbackServer server({});
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  std::string payload;
  ASSERT_TRUE(client.value().Call("quit", &payload).ok());
  EXPECT_EQ(payload, "OK bye\n");
  std::string after;
  EXPECT_FALSE(client.value().Receive(&after).ok());
}

TEST(ServerLoopbackTest, HostileLengthPrefixGetsErrFrameThenClose) {
  LoopbackServer server({});
  auto fd = ConnectTcp("127.0.0.1", server.listener().bound_port());
  ASSERT_TRUE(fd.ok());
  // Length prefix claiming 256 MB, beyond the server's payload cap.
  const unsigned char hostile[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fd.value().get(), hostile, sizeof(hostile), 0), 4);

  FrameDecoder decoder;
  std::string goodbye;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Append(buf, static_cast<std::size_t>(n));
    if (decoder.Pop(&goodbye) == FrameDecoder::Next::kFrame) break;
  }
  const auto lines = SplitResponseLines(goodbye);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ERR ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("exceeds"), std::string::npos) << lines[0];
}

}  // namespace
}  // namespace net
}  // namespace dpcube
