// Copyright 2026 The dpcube Authors.
//
// End-to-end tracing over a loopback server with net_threads=2: a query
// with an injected slow (queue) span must surface as the SAME request —
// same trace id, same span values — in all three sinks (/tracez, the
// JSONL access log, and the span histograms in /metrics); concurrent
// traced traffic with readers scraping the ring must stay consistent
// (and, on the TSan matrix, race-free); every executed frame must be
// recorded exactly once in each span, per-verb and per-release latency
// family, with or without the /tracez ring; and a frame that fails to
// decode must still yield a well-formed "(decode-error)" trace.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
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
#include "strategy/fourier_strategy.h"

namespace dpcube {
namespace net {
namespace {

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
    auto* p = new std::string(::testing::TempDir() + "/trace_release.csv");
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
  std::uint16_t http_port() const {
    std::string host;
    std::uint16_t port = 0;
    EXPECT_TRUE(
        ParseHostPort(listener_.http_bound_address(), &host, &port).ok());
    return port;
  }
  SocketListener& listener() { return listener_; }
  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  std::shared_ptr<service::ReleaseStore> store_;
  std::shared_ptr<service::MarginalCache> cache_;
  std::shared_ptr<const service::QueryService> service_;
  std::shared_ptr<const service::BatchExecutor> executor_;
  SocketListener listener_;
  std::thread serve_thread_;
};

std::string HttpGet(std::uint16_t port, const std::string& path) {
  auto fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  struct timeval timeout_tv;
  timeout_tv.tv_sec = 10;
  timeout_tv.tv_usec = 0;
  ::setsockopt(fd.value().get(), SOL_SOCKET, SO_RCVTIMEO, &timeout_tv,
               sizeof(timeout_tv));
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd.value().get(), request.data(), request.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

std::string BodyOf(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// Value of the sample line "name{labels} value" in a /metrics body, or
// -1 when absent.
double MetricValue(const std::string& body, const std::string& series) {
  const std::size_t pos = body.find(series + " ");
  if (pos == std::string::npos) return -1.0;
  return std::stod(body.substr(pos + series.size() + 1));
}

// Waits until `predicate` holds or the deadline expires.
bool WaitFor(const std::function<bool()>& predicate, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

TEST(TracePipelineTest, SlowRequestVisibleInAllThreeSinks) {
  const std::string access_log =
      ::testing::TempDir() + "/trace_pipeline_access.jsonl";
  std::remove(access_log.c_str());
  ServerOptions options;
  options.http_listen_address = "127.0.0.1:0";
  options.net_threads = 2;
  options.trace_ring_capacity = 64;
  options.access_log_path = access_log;
  options.slow_query_ms = 20;
  LoopbackServer server(options);
  auto ring = server.listener().trace_ring();
  ASSERT_NE(ring, nullptr);

  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  // Warm-up round trip (request #1) so the slow query is cleanly #2.
  ASSERT_TRUE(client.value().CallLines("query demo marginal 0x3").ok());

  // Inject the slow span: park every pool worker, put the query in
  // flight, hold it parked for >50ms of queue time, then release.
  constexpr int kWorkers = 3;  // pool_(4) = 3 workers + caller slot.
  std::promise<void> release_workers;
  std::shared_future<void> gate = release_workers.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < kWorkers; ++w) {
    server.pool().Submit([gate, &parked] {
      parked.fetch_add(1);
      gate.wait();
    });
  }
  ASSERT_TRUE(WaitFor([&] { return parked.load() == kWorkers; }));
  ASSERT_TRUE(client.value().Send("query demo marginal 0x5").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return server.listener().frames_received() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release_workers.set_value();
  std::string payload;
  ASSERT_TRUE(client.value().Receive(&payload).ok());
  EXPECT_EQ(payload.rfind("OK query", 0), 0u) << payload;

  // Sink 1, the ring: the slow trace with its queue span.
  trace::RequestTrace slow_trace;
  ASSERT_TRUE(WaitFor([&] {
    for (const trace::RequestTrace& t : ring->Recent(64)) {
      if (t.span(trace::Span::kQueue) >= 40000) {
        slow_trace = t;
        return true;
      }
    }
    return false;
  }));
  EXPECT_NE(slow_trace.context.trace_id, 0u);
  EXPECT_EQ(slow_trace.verb, "query");
  EXPECT_EQ(slow_trace.release, "demo");
  EXPECT_EQ(slow_trace.codec, "text");
  EXPECT_EQ(slow_trace.outcome, "Ok");
  EXPECT_TRUE(slow_trace.slow);
  EXPECT_GT(slow_trace.request_bytes, 0u);
  EXPECT_GT(slow_trace.response_bytes, 0u);
  std::uint64_t span_sum = 0;
  for (int s = 0; s < trace::kNumSpans; ++s) {
    span_sum += slow_trace.span(static_cast<trace::Span>(s));
  }
  EXPECT_EQ(slow_trace.total_micros, span_sum);
  EXPECT_GE(slow_trace.total_micros, 40000u);
  // The reservoir kept it: it is the slowest request this server saw.
  const auto slowest = ring->Slowest();
  ASSERT_FALSE(slowest.empty());
  EXPECT_EQ(slowest[0].context.trace_id, slow_trace.context.trace_id);

  const std::string id_token =
      "trace id=" + std::to_string(slow_trace.context.trace_id);
  const std::string queue_token =
      "queue_us=" + std::to_string(slow_trace.span(trace::Span::kQueue));

  // Sink 2, /tracez: same id, same queue span, flagged slow.
  const std::string page = BodyOf(HttpGet(server.http_port(), "/tracez"));
  const std::size_t row_start = page.find(id_token);
  ASSERT_NE(row_start, std::string::npos) << page;
  const std::string row =
      page.substr(row_start, page.find('\n', row_start) - row_start);
  EXPECT_NE(row.find("verb=query"), std::string::npos) << row;
  EXPECT_NE(row.find("release=demo"), std::string::npos) << row;
  EXPECT_NE(row.find(queue_token), std::string::npos) << row;
  EXPECT_NE(row.find("slow=1"), std::string::npos) << row;
  EXPECT_NE(row.find("outcome=Ok"), std::string::npos) << row;
  // The verb/release filters keep and drop the row as asked.
  EXPECT_NE(BodyOf(HttpGet(server.http_port(), "/tracez?verb=query"))
                .find(id_token),
            std::string::npos);
  EXPECT_EQ(BodyOf(HttpGet(server.http_port(), "/tracez?verb=list"))
                .find(id_token),
            std::string::npos);
  EXPECT_NE(BodyOf(HttpGet(server.http_port(), "/tracez?release=demo"))
                .find(id_token),
            std::string::npos);
  EXPECT_EQ(BodyOf(HttpGet(server.http_port(), "/tracez?release=nope"))
                .find(id_token),
            std::string::npos);

  // Sink 3a, the access log: the same record as one JSONL line, at WARN
  // because it crossed --slow-query-ms.
  std::string log_line;
  ASSERT_TRUE(WaitFor([&] {
    std::ifstream in(access_log);
    std::string line;
    const std::string key =
        "\"trace_id\":" + std::to_string(slow_trace.context.trace_id);
    while (std::getline(in, line)) {
      if (line.find(key) != std::string::npos) {
        log_line = line;
        return true;
      }
    }
    return false;
  }));
  EXPECT_NE(log_line.find("\"level\":\"WARN\""), std::string::npos)
      << log_line;
  EXPECT_NE(log_line.find("\"event\":\"request\""), std::string::npos);
  EXPECT_NE(log_line.find("\"verb\":\"query\""), std::string::npos);
  EXPECT_NE(log_line.find("\"release\":\"demo\""), std::string::npos);
  EXPECT_NE(log_line.find("\"outcome\":\"Ok\""), std::string::npos);
  EXPECT_NE(log_line.find("\"" + std::string("queue_us\":") +
                          std::to_string(slow_trace.span(trace::Span::kQueue))),
            std::string::npos)
      << log_line;
  EXPECT_NE(log_line.find("\"slow\":true"), std::string::npos);

  // Sink 3b, /metrics: the queue-span histogram absorbed it and the
  // per-release series counted both queries.
  const std::string body = BodyOf(HttpGet(server.http_port(), "/metrics"));
  EXPECT_GE(MetricValue(body,
                        "dpcube_span_microseconds_count{span=\"queue\"}"),
            1.0)
      << body;
  EXPECT_GE(MetricValue(body, "dpcube_span_microseconds_sum{span=\"queue\"}"),
            40000.0);
  EXPECT_GE(MetricValue(body,
                        "dpcube_release_queries_total{release=\"demo\"}"),
            2.0);
  // Both executed frames recorded a compute span, however short.
  EXPECT_EQ(
      MetricValue(body, "dpcube_span_microseconds_count{span=\"compute\"}"),
      2.0);
}

TEST(TracePipelineTest, ConcurrentTracedTrafficStaysConsistent) {
  ServerOptions options;
  options.http_listen_address = "127.0.0.1:0";
  options.net_threads = 2;
  options.trace_ring_capacity = 32;
  options.access_log_path = "/dev/null";
  LoopbackServer server(options);
  auto ring = server.listener().trace_ring();
  ASSERT_NE(ring, nullptr);

  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  std::atomic<bool> scraping{true};
  // Readers race the writers: one over the ring API, one over HTTP.
  std::thread ring_reader([&] {
    while (scraping.load()) {
      for (const trace::RequestTrace& t : ring->Recent(32)) {
        ASSERT_NE(t.context.trace_id, 0u);
        ASSERT_EQ(t.verb, "query");
      }
      ring->Slowest();
    }
  });
  std::thread http_reader([&] {
    for (int i = 0; i < 5; ++i) {
      HttpGet(server.http_port(), "/tracez");
      HttpGet(server.http_port(), "/metrics");
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect(server.address());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kPerClient; ++i) {
        // Weight-<=2 masks only: the release is an order-2 workload.
        static const int kMasks[] = {3, 5, 6};
        auto lines = client.value().CallLines(
            "query demo cell " + std::to_string(kMasks[c % 3]) + " 0");
        ASSERT_TRUE(lines.ok());
        ASSERT_EQ(lines.value().size(), 1u);
        EXPECT_EQ(lines.value()[0].rfind("OK query", 0), 0u)
            << lines.value()[0];
      }
    });
  }
  for (auto& c : clients) c.join();
  scraping.store(false);
  ring_reader.join();
  http_reader.join();

  // Every response reached its client; the publishes trail only by the
  // network thread's final flush pass.
  ASSERT_TRUE(WaitFor([&] {
    return ring->recorded_total() >=
           static_cast<std::uint64_t>(kClients) * kPerClient;
  }));
  for (const trace::RequestTrace& t : ring->Recent(32)) {
    EXPECT_EQ(t.verb, "query");
    EXPECT_EQ(t.release, "demo");
    EXPECT_EQ(t.outcome, "Ok");
    std::uint64_t span_sum = 0;
    for (int s = 0; s < trace::kNumSpans; ++s) {
      span_sum += t.span(static_cast<trace::Span>(s));
    }
    EXPECT_EQ(t.total_micros, span_sum);
  }
  // The per-release counter agrees with the traffic exactly.
  const std::string body = BodyOf(HttpGet(server.http_port(), "/metrics"));
  EXPECT_EQ(MetricValue(body,
                        "dpcube_release_queries_total{release=\"demo\"}"),
            static_cast<double>(kClients) * kPerClient)
      << body;
}

// Value of `key`=N in a /tracez row.
std::uint64_t RowField(const std::string& row, const std::string& key) {
  const std::size_t pos = row.find(" " + key + "=");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << row;
  if (pos == std::string::npos) return 0;
  return std::stoull(row.substr(pos + key.size() + 2));
}

// One clock per request: every executed query frame lands exactly once
// in every span, in its verb's latency and in its release's latency,
// whether or not the /tracez ring is kept.
TEST(TracePipelineTest, EveryFrameIsRecordedOnceAtAnyRingSize) {
  constexpr int kFrames = 40;
  for (const std::size_t ring_capacity : {std::size_t{256}, std::size_t{0}}) {
    SCOPED_TRACE("trace ring capacity " + std::to_string(ring_capacity));
    ServerOptions options;
    options.http_listen_address = "127.0.0.1:0";
    options.trace_ring_capacity = ring_capacity;
    LoopbackServer server(options);
    auto client = Client::Connect(server.address());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < kFrames; ++i) {
      auto lines = client.value().CallLines("query demo cell 0x3 " +
                                            std::to_string(i % 4));
      ASSERT_TRUE(lines.ok());
      ASSERT_EQ(lines.value()[0].rfind("OK query", 0), 0u);
    }
    // Traces publish just after their last byte leaves, so the final
    // one can trail the client's read by a moment.
    const std::string verb_count =
        "dpcube_request_latency_microseconds_count{verb=\"query\"}";
    std::string body;
    ASSERT_TRUE(WaitFor([&] {
      body = BodyOf(HttpGet(server.http_port(), "/metrics"));
      return MetricValue(body, verb_count) >= kFrames;
    }));
    for (int s = 0; s < trace::kNumSpans; ++s) {
      const std::string span = trace::SpanName(static_cast<trace::Span>(s));
      EXPECT_EQ(MetricValue(body, "dpcube_span_microseconds_count{span=\"" +
                                      span + "\"}"),
                kFrames)
          << span;
    }
    EXPECT_EQ(MetricValue(body, verb_count), kFrames);
    EXPECT_EQ(MetricValue(body,
                          "dpcube_release_query_latency_microseconds_count{"
                          "release=\"demo\"}"),
              kFrames);

    if (ring_capacity == 0) {
      EXPECT_EQ(server.listener().trace_ring(), nullptr);
      continue;
    }
    const std::string page = BodyOf(HttpGet(server.http_port(), "/tracez"));
    std::istringstream rows(page.substr(page.find("recent:")));
    std::string row;
    int checked = 0;
    while (std::getline(rows, row)) {
      if (row.rfind("trace id=", 0) != 0) continue;
      std::uint64_t span_sum = 0;
      for (int s = 0; s < trace::kNumSpans; ++s) {
        span_sum += RowField(
            row, std::string(trace::SpanName(static_cast<trace::Span>(s))) +
                     "_us");
      }
      EXPECT_EQ(RowField(row, "total_us"), span_sum) << row;
      ++checked;
    }
    EXPECT_EQ(checked, kFrames);
  }
}

TEST(TracePipelineTest, DecodeErrorYieldsWellFormedTrace) {
  ServerOptions options;
  options.http_listen_address = "127.0.0.1:0";
  options.trace_ring_capacity = 16;
  LoopbackServer server(options);
  auto ring = server.listener().trace_ring();
  ASSERT_NE(ring, nullptr);

  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort(server.address(), &host, &port).ok());
  auto fd = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(fd.ok());
  const std::string garbage = "\x7f\x7f\x7f\x7fnot a frame at all";
  ASSERT_EQ(::send(fd.value().get(), garbage.data(), garbage.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  // The server answers with a structured goodbye frame and closes.
  char buf[512];
  while (::recv(fd.value().get(), buf, sizeof(buf), 0) > 0) {
  }

  ASSERT_TRUE(WaitFor([&] {
    for (const trace::RequestTrace& t : ring->Recent(16)) {
      if (t.verb == "(decode-error)") return true;
    }
    return false;
  }));
  for (const trace::RequestTrace& t : ring->Recent(16)) {
    if (t.verb != "(decode-error)") continue;
    EXPECT_NE(t.context.trace_id, 0u);
    EXPECT_NE(t.outcome, "Ok");
    EXPECT_GT(t.response_bytes, 0u);
  }
}

}  // namespace
}  // namespace net
}  // namespace dpcube
