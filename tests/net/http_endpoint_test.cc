// Copyright 2026 The dpcube Authors.
//
// The HTTP observability endpoint over a loopback server: exposition
// validity of /metrics (every family typed exactly once, no duplicate
// samples, >= 12 families), the series-count budget of one served
// release, /healthz flipping to 503 during drain,
// hostile/partial HTTP never stalling the event loop, and a rate-quota
// denial visible — with the same value — in both STATS and /metrics.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
    auto* p = new std::string(::testing::TempDir() + "/http_release.csv");
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

ServerOptions WithHttp() {
  ServerOptions options;
  options.http_listen_address = "127.0.0.1:0";
  return options;
}

// Blocking one-shot HTTP exchange: send `request` verbatim, read to EOF
// (the endpoint always closes after one response).
std::string HttpExchange(std::uint16_t port, const std::string& request) {
  auto fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  // A hung endpoint must fail the test, not wedge it: bound every read.
  struct timeval timeout_tv;
  timeout_tv.tv_sec = 10;
  timeout_tv.tv_usec = 0;
  ::setsockopt(fd.value().get(), SOL_SOCKET, SO_RCVTIMEO, &timeout_tv,
               sizeof(timeout_tv));
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

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return HttpExchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(HttpEndpointTest, MetricsExpositionIsValidAndCoversTheSurface) {
  LoopbackServer server(WithHttp());
  // Drive some protocol traffic so per-verb counters move.
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().CallLines("query demo marginal 0x3").ok());
  ASSERT_TRUE(client.value().CallLines("query demo marginal 0x3").ok());
  ASSERT_TRUE(client.value().CallLines("list").ok());
  ASSERT_TRUE(client.value().CallLines("stats").ok());
  ASSERT_TRUE(client.value().CallLines("query demo bogus 0x3").ok());

  const std::string response = HttpGet(server.http_port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = BodyOf(response);

  // Structural validity: every sample belongs to a family typed exactly
  // once; no duplicate (name, labels) series.
  std::istringstream lines(body);
  std::string line;
  std::map<std::string, int> type_lines;
  std::set<std::string> samples;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      EXPECT_EQ(++type_lines[family], 1) << "duplicate TYPE for " << family;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(samples.insert(line.substr(0, space)).second)
        << "duplicate sample: " << line;
  }
  // The acceptance floor: at least 12 distinct metric families.
  EXPECT_GE(type_lines.size(), 12u);

  // The families the tentpole promises.
  for (const char* family :
       {"dpcube_requests_total", "dpcube_request_latency_microseconds",
        "dpcube_errors_total", "dpcube_span_microseconds",
        "dpcube_connections_active", "dpcube_queue_depth",
        "dpcube_quota_denied_total", "dpcube_cache_hits_total",
        "dpcube_cache_misses_total", "dpcube_releases_loaded",
        "dpcube_pool_queue_depth", "dpcube_pool_busy_workers",
        "dpcube_process_resident_memory_bytes",
        "dpcube_process_cpu_seconds_total", "dpcube_http_requests_total"}) {
    EXPECT_EQ(type_lines.count(family), 1u) << "missing family " << family;
  }
  // Per-verb series reflect the traffic above (the malformed query
  // parses as verb "invalid", not "query").
  EXPECT_NE(body.find("dpcube_requests_total{verb=\"query\"} 2"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("dpcube_requests_total{verb=\"list\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("dpcube_requests_total{verb=\"invalid\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find(
                "dpcube_request_latency_microseconds_count{verb=\"query\"} 2"),
            std::string::npos);
  // The malformed query surfaced as a BadRequest error.
  EXPECT_NE(body.find("dpcube_errors_total{code=\"BadRequest\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("dpcube_releases_loaded 1"), std::string::npos);
}

TEST(HttpEndpointTest, StatsVerbAndMetricsAgreeOnPerVerbCounts) {
  LoopbackServer server(WithHttp());
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.value().CallLines("query demo marginal 0x5").ok());
  }
  auto stats = client.value().CallLines("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_NE(stats.value()[0].find(" verb_query=4"), std::string::npos)
      << stats.value()[0];
  const std::string body = BodyOf(HttpGet(server.http_port(), "/metrics"));
  EXPECT_NE(body.find("dpcube_requests_total{verb=\"query\"} 4"),
            std::string::npos)
      << body;
}

// Sample lines (one per series) in a /metrics body.
std::size_t SeriesCount(const std::string& body) {
  std::istringstream lines(body);
  std::string line;
  std::size_t series = 0;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != '#') ++series;
  }
  return series;
}

TEST(HttpEndpointTest, MetricSeriesStayWithinTheCardinalityBudget) {
  // The budget is the series count of one poller serving one loaded,
  // queried release (a histogram is 34 series: 31 buckets, +Inf, _sum,
  // _count). Growing the surface means raising this number on purpose.
  constexpr std::size_t kSeriesBudget = 625;
  ServerOptions options = WithHttp();
  options.net_threads = 1;  // Per-poller gauges counted once.
  LoopbackServer server(options);
  const std::size_t idle =
      SeriesCount(BodyOf(HttpGet(server.http_port(), "/metrics")));
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().CallLines("query demo cell 0x3 0").ok());
  const std::size_t queried =
      SeriesCount(BodyOf(HttpGet(server.http_port(), "/metrics")));
  EXPECT_LE(idle, kSeriesBudget);
  EXPECT_LE(queried, kSeriesBudget);
  // The first query mints the release's counter and latency histogram.
  EXPECT_EQ(queried - idle, 35u);
}

TEST(HttpEndpointTest, HealthzFlipsTo503DuringDrain) {
  LoopbackServer server(WithHttp());
  const std::uint16_t port = server.http_port();
  std::string response = HttpGet(port, "/healthz");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");

  // Hold the drain window open deterministically: park every pool
  // worker, then put one query in flight — the server cannot finish
  // draining until the workers are released.
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().CallLines("list").ok());
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
  while (parked.load() < kWorkers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(client.value().Send("query demo marginal 0x3").ok());
  // The "list" round-trip above was request #1; wait until the server
  // has actually READ the query frame (request #2) before draining, or
  // the drain could finish before the in-flight work exists.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.listener().frames_received() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.listener().frames_received(), 2u);

  // HTTP stays polled during drain precisely so probes see the 503.
  server.listener().Shutdown();
  bool saw_503 = false;
  while (!saw_503 && std::chrono::steady_clock::now() < deadline) {
    response = HttpGet(port, "/healthz");
    if (response.rfind("HTTP/1.0 503", 0) == 0) {
      EXPECT_EQ(BodyOf(response), "draining\n");
      saw_503 = true;
    }
  }
  EXPECT_TRUE(saw_503);

  // Release the workers; the in-flight query completes and the server
  // drains cleanly.
  release_workers.set_value();
  std::string payload;
  EXPECT_TRUE(client.value().Receive(&payload).ok());
}

TEST(HttpEndpointTest, StatuszReportsReleasesAndUptime) {
  LoopbackServer server(WithHttp());
  const std::string response = HttpGet(server.http_port(), "/statusz");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  const std::string body = BodyOf(response);
  EXPECT_NE(body.find("uptime_seconds:"), std::string::npos) << body;
  EXPECT_NE(body.find("demo"), std::string::npos) << body;
  EXPECT_NE(body.find("protocol: 127.0.0.1:"), std::string::npos) << body;
}

TEST(HttpEndpointTest, HostileAndPartialRequestsNeverStallTheLoop) {
  LoopbackServer server(WithHttp());
  const std::uint16_t port = server.http_port();

  // A peer that sends half a request and goes silent holds only its own
  // slot; health probes keep answering immediately.
  auto stalled = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(stalled.ok());
  const std::string partial = "GET /metr";
  ASSERT_EQ(::send(stalled.value().get(), partial.data(), partial.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  for (int i = 0; i < 3; ++i) {
    const std::string response = HttpGet(port, "/healthz");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  }

  // Unknown path, bad method, and garbage all get structured answers.
  EXPECT_EQ(HttpGet(port, "/nope").rfind("HTTP/1.0 404", 0), 0u);
  EXPECT_EQ(HttpExchange(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);
  EXPECT_EQ(HttpExchange(port, "\r\n\r\n").rfind("HTTP/1.0 400", 0), 0u);
  // An oversized request is answered 431 without buffering it all.
  const std::string huge =
      "GET /metrics HTTP/1.0\r\nX-Junk: " + std::string(10000, 'a');
  EXPECT_EQ(HttpExchange(port, huge).rfind("HTTP/1.0 431", 0), 0u);

  // The protocol port kept serving throughout.
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().CallLines("list").ok());
}

TEST(HttpEndpointTest, ResponsesCarryDateAndConnectionClose) {
  LoopbackServer server(WithHttp());
  for (const char* path : {"/healthz", "/metrics", "/nope"}) {
    const std::string response = HttpGet(server.http_port(), path);
    EXPECT_NE(response.find("\r\nDate: "), std::string::npos)
        << path << ": " << response;
    EXPECT_NE(response.find(" GMT\r\n"), std::string::npos) << path;
    EXPECT_NE(response.find("\r\nConnection: close\r\n"), std::string::npos)
        << path;
  }
}

TEST(HttpEndpointTest, BearerTokenGuardsEverythingButHealthz) {
  ServerOptions options = WithHttp();
  options.http_token = "s3kret";
  LoopbackServer server(options);
  const std::uint16_t port = server.http_port();

  // No token / wrong token: 401 on the guarded pages.
  for (const char* path : {"/metrics", "/statusz", "/tracez"}) {
    std::string response = HttpGet(port, path);
    EXPECT_EQ(response.rfind("HTTP/1.0 401", 0), 0u)
        << path << ": " << response;
    response = HttpExchange(
        port, std::string("GET ") + path +
                  " HTTP/1.0\r\nAuthorization: Bearer wrong\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.0 401", 0), 0u) << path;
  }
  // The liveness probe stays open: load balancers have no secrets.
  EXPECT_EQ(HttpGet(port, "/healthz").rfind("HTTP/1.0 200 OK\r\n", 0), 0u);

  // The right token unlocks every guarded page.
  for (const char* path : {"/metrics", "/statusz", "/tracez"}) {
    const std::string response = HttpExchange(
        port, std::string("GET ") + path +
                  " HTTP/1.0\r\nAuthorization: Bearer s3kret\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u)
        << path << ": " << response;
  }
  // Header names match case-insensitively per RFC 7230.
  const std::string lower = HttpExchange(
      port, "GET /metrics HTTP/1.0\r\nauthorization: Bearer s3kret\r\n\r\n");
  EXPECT_EQ(lower.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << lower;
}

TEST(HttpEndpointTest, NoTokenConfiguredLeavesEndpointsOpen) {
  LoopbackServer server(WithHttp());
  for (const char* path : {"/metrics", "/statusz", "/tracez", "/healthz"}) {
    EXPECT_EQ(HttpGet(server.http_port(), path)
                  .rfind("HTTP/1.0 200 OK\r\n", 0),
              0u)
        << path;
  }
}

TEST(HttpEndpointTest, RateQuotaDenialVisibleInStatsAndMetrics) {
  ServerOptions options = WithHttp();
  options.admission.query_rate_limit = 1;
  options.admission.query_rate_window_seconds = 3600;
  LoopbackServer server(options);
  auto client = Client::Connect(server.address());
  ASSERT_TRUE(client.ok());

  auto first = client.value().CallLines("query demo marginal 0x3");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 1u);
  EXPECT_EQ(first.value()[0].rfind("OK query", 0), 0u) << first.value()[0];

  auto second = client.value().CallLines("query demo marginal 0x5");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().size(), 1u);
  EXPECT_EQ(second.value()[0].rfind("ERR QuotaExceeded:", 0), 0u)
      << second.value()[0];
  EXPECT_NE(second.value()[0].find("rate"), std::string::npos);

  // The denial shows up in the STATS verb...
  auto stats = client.value().CallLines("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_NE(stats.value()[0].find(" rate_denied=1"), std::string::npos)
      << stats.value()[0];
  // ...and with the same value in /metrics, alongside the error counter.
  const std::string body = BodyOf(HttpGet(server.http_port(), "/metrics"));
  EXPECT_NE(body.find("dpcube_quota_denied_total{kind=\"rate\"} 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("dpcube_quota_denied_total{kind=\"lifetime\"} 0"),
            std::string::npos);
  EXPECT_NE(body.find("dpcube_errors_total{code=\"QuotaExceeded\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace dpcube
