// Copyright 2026 The dpcube Authors.
//
// Serving-layer throughput: queries/sec against a stored release with a
// cold vs warm derived-marginal cache, batch-executor scaling across
// thread counts, and the same workload pushed through the real TCP
// serving subsystem on a loopback socket (N client threads × M
// connections each), with client-observed p50/p99 latency next to the
// in-process numbers. The release is the k-way cuboid cube (the paper's
// serving story: one budgeted k-way release makes the entire lower
// datacube derivable) and the query mix sweeps every derivable marginal,
// re-requested each sweep — the repeated-query regime the MarginalCache
// targets.
//
// Usage: bench_serve_throughput [d] [sweeps] [order]
//                               [--benchmark_out=FILE]
//
// --benchmark_out=FILE additionally writes the measurements as a
// google-benchmark-compatible JSON document ({"context": ..,
// "benchmarks": [{name, real_time, time_unit, <counters>}, ..]}) so the
// CI bench-regression gate (tools/bench_compare.py) can track this bench
// next to bench_fig6_runtime's native --benchmark_out. real_time is
// seconds-per-operation scaled to `time_unit` (lower is better);
// throughput lands in the `qps` counter.

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "net/address.h"
#include "net/client.h"
#include "net/socket_listener.h"
#include "service/batch_executor.h"
#include "service/marginal_cache.h"
#include "service/query_service.h"
#include "service/release_store.h"

namespace {

using namespace dpcube;

// One pass over every query; clearing the cache first makes every
// derivation run, keeping it warm makes every repeat a hash lookup.
double RunSweeps(const service::QueryService& svc,
                 const std::vector<service::Query>& queries, int sweeps,
                 service::MarginalCache* clear_between, double* seconds) {
  std::size_t answered = 0;
  *seconds = bench::TimeSeconds([&] {
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      if (clear_between != nullptr) clear_between->Clear();
      for (const service::Query& q : queries) {
        const service::QueryResponse response = svc.Answer(q);
        if (!response.status.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       response.status.ToString().c_str());
          std::exit(1);
        }
        ++answered;
      }
    }
  });
  return static_cast<double>(answered) / *seconds;
}

// Accumulates rows for --benchmark_out. The schema mirrors what
// google-benchmark emits so one comparison script handles both benches.
class JsonReport {
 public:
  void Add(const std::string& name, double seconds_per_op,
           std::vector<std::pair<std::string, double>> counters) {
    Row row;
    row.name = name;
    row.real_time_us = seconds_per_op * 1e6;
    row.counters = std::move(counters);
    rows_.push_back(std::move(row));
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out,
                 "{\n  \"context\": {\"executable\": "
                 "\"bench_serve_throughput\"},\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                   "\"iterations\": 1, \"real_time\": %.17g, "
                   "\"cpu_time\": %.17g, \"time_unit\": \"us\"",
                   row.name.c_str(), row.real_time_us, row.real_time_us);
      for (const auto& [key, value] : row.counters) {
        std::fprintf(out, ", \"%s\": %.17g", key.c_str(), value);
      }
      std::fprintf(out, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  struct Row {
    std::string name;
    double real_time_us = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  // Positional args first, flags (--benchmark_out=FILE) anywhere.
  std::vector<const char*> positional;
  std::string benchmark_out;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--benchmark_out=", 0) == 0) {
      benchmark_out = arg.substr(std::string("--benchmark_out=").size());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(argv[a]);
    }
  }
  const int d = positional.size() > 0 ? std::atoi(positional[0]) : 12;
  const int sweeps = positional.size() > 1 ? std::atoi(positional[1]) : 40;
  const int order = positional.size() > 2 ? std::atoi(positional[2]) : 4;
  JsonReport report;

  Rng rng(99);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(
      data::MakeProductBernoulli(d, 0.35, 20000, &rng));
  const marginal::Workload workload = marginal::AllKWayBits(d, order);
  std::vector<marginal::MarginalTable> noisy;
  for (std::size_t i = 0; i < workload.num_marginals(); ++i) {
    noisy.push_back(marginal::ComputeMarginal(counts, workload.mask(i)));
    for (auto& v : noisy.back().mutable_values()) {
      v += rng.NextLaplace(2.0);
    }
  }

  auto store = std::make_shared<service::ReleaseStore>();
  auto cache = std::make_shared<service::MarginalCache>();
  const double fit_seconds = bench::TimeSeconds([&] {
    if (!store->Add("bench", workload, std::move(noisy)).ok()) {
      std::exit(1);
    }
  });
  auto svc = std::make_shared<const service::QueryService>(store, cache);

  // A second release holding the single full-order marginal (2^d
  // cells): the payload shape the v2 binary codec targets, used by the
  // text-vs-binary comparison below.
  const bits::Mask full_mask = (bits::Mask{1} << d) - 1;
  {
    marginal::MarginalTable wide = marginal::ComputeMarginal(counts,
                                                             full_mask);
    for (auto& v : wide.mutable_values()) v += rng.NextLaplace(2.0);
    if (!store
             ->Add("wide", marginal::Workload(d, {full_mask}),
                   {std::move(wide)})
             .ok()) {
      std::exit(1);
    }
  }

  // The repeated-query workload: every derivable marginal (orders 0..order).
  std::vector<service::Query> queries;
  for (const bits::Mask beta : bits::MasksOfWeightAtMost(d, order)) {
    queries.push_back({"bench", service::QueryKind::kMarginal, beta, 0, 0});
  }
  std::printf(
      "serve throughput: d=%d, %zu marginals released, %zu distinct "
      "queries, %d sweeps (release fit: %.3fs)\n",
      d, workload.num_marginals(), queries.size(), sweeps, fit_seconds);

  double cold_seconds = 0.0;
  const double cold_qps =
      RunSweeps(*svc, queries, sweeps, cache.get(), &cold_seconds);
  double warm_seconds = 0.0;
  const double warm_qps =
      RunSweeps(*svc, queries, sweeps, nullptr, &warm_seconds);
  const service::CacheStats stats = cache->stats();
  std::printf("  cold cache: %10.0f q/s  (%.3fs)\n", cold_qps, cold_seconds);
  std::printf("  warm cache: %10.0f q/s  (%.3fs)  speedup %.1fx\n", warm_qps,
              warm_seconds, warm_qps / cold_qps);
  report.Add("serve/cold", 1.0 / cold_qps, {{"qps", cold_qps}});
  report.Add("serve/warm", 1.0 / warm_qps,
             {{"qps", warm_qps}, {"warm_speedup", warm_qps / cold_qps}});
  std::printf(
      "  cache: hits=%llu misses=%llu evictions=%llu entries=%zu\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.evictions), stats.entries);

  // Batch-executor scaling (cold cache each run so the work is real).
  // Speedup beyond 1 thread requires actual cores; on a 1-core host the
  // pool only adds coordination overhead.
  std::printf("batch executor scaling (%zu-query batches, %u hw threads):\n",
              queries.size(), std::thread::hardware_concurrency());
  for (const int threads : {1, 2, 4, 8}) {
    service::BatchExecutor executor(svc, threads);
    cache->Clear();
    std::size_t answered = 0;
    const double seconds = bench::TimeSeconds([&] {
      for (int sweep = 0; sweep < sweeps; ++sweep) {
        cache->Clear();
        const auto responses = executor.ExecuteBatch(queries);
        answered += responses.size();
      }
    });
    const double qps = static_cast<double>(answered) / seconds;
    std::printf("  threads=%d: %10.0f q/s\n", threads, qps);
    report.Add("batch/threads:" + std::to_string(threads), 1.0 / qps,
               {{"qps", qps}});
  }

  // The same service behind the real network stack: a loopback
  // SocketListener, N client threads × M connections each, one-shot cell
  // queries against the warm cache, latency observed from the client
  // side (so it includes framing, the socket round-trip, admission, and
  // the pool handoff).
  {
    ThreadPool pool(4);
    auto tcp_executor =
        std::make_shared<const service::BatchExecutor>(svc, &pool);
    net::ServerOptions options;
    options.admission.max_connections = 256;
    options.admission.max_queue_depth = 4096;
    options.http_listen_address = "127.0.0.1:0";
    net::SocketListener listener(
        options,
        net::ServeContext{store, cache, svc, tcp_executor, &pool});
    if (!listener.Start().ok()) {
      std::fprintf(stderr, "tcp bench: listen failed\n");
      return 1;
    }
    std::thread serve_thread([&listener] { listener.Serve().ok(); });
    const std::string address =
        "127.0.0.1:" + std::to_string(listener.bound_port());

    // Warm the cache once so the TCP numbers isolate serving overhead,
    // matching the in-process "warm cache" row.
    {
      auto warm = net::Client::Connect(address);
      if (warm.ok()) {
        for (const auto& q : queries) {
          warm.value().CallLines("query bench marginal " +
                                 std::to_string(q.beta));
        }
      }
    }

    std::printf("tcp loopback serving (cell queries, warm cache):\n");
    const struct {
      int threads;
      int conns;
    } configs[] = {{1, 1}, {2, 2}, {4, 2}};
    for (const auto& config : configs) {
      const int requests_per_thread = 2000;
      std::vector<double> latencies;
      sync::Mutex latencies_mu;
      std::atomic<int> errors{0};
      double seconds = bench::TimeSeconds([&] {
        std::vector<std::thread> workers;
        for (int t = 0; t < config.threads; ++t) {
          workers.emplace_back([&, t] {
            std::vector<net::Client> conns;
            for (int c = 0; c < config.conns; ++c) {
              auto client = net::Client::Connect(address);
              if (client.ok()) conns.push_back(std::move(client).value());
            }
            if (conns.empty()) {
              errors.fetch_add(requests_per_thread);
              return;
            }
            std::vector<double> local;
            local.reserve(static_cast<std::size_t>(requests_per_thread));
            for (int i = 0; i < requests_per_thread; ++i) {
              const auto& q = queries[static_cast<std::size_t>(
                  (t + i) % static_cast<int>(queries.size()))];
              const std::string request =
                  "query bench cell " + std::to_string(q.beta) + " 0";
              auto& conn = conns[static_cast<std::size_t>(
                  i % static_cast<int>(conns.size()))];
              std::string payload;
              const double rtt = bench::TimeSeconds([&] {
                if (!conn.Call(request, &payload).ok()) errors.fetch_add(1);
              });
              local.push_back(rtt * 1e6);
            }
            sync::MutexLock lock(&latencies_mu);
            latencies.insert(latencies.end(), local.begin(), local.end());
          });
        }
        for (auto& w : workers) w.join();
      });
      const double total =
          static_cast<double>(config.threads) * requests_per_thread;
      const double p50 = stats::Quantile(latencies, 0.5);
      const double p99 = stats::Quantile(latencies, 0.99);
      std::printf(
          "  clients=%dx%d: %10.0f q/s  p50=%.0fus p99=%.0fus"
          "  (errors=%d)\n",
          config.threads, config.conns, total / seconds, p50, p99,
          errors.load());
      report.Add("tcp/clients:" + std::to_string(config.threads) + "x" +
                     std::to_string(config.conns),
                 seconds / total,
                 {{"qps", total / seconds}, {"p50_us", p50}, {"p99_us", p99}});
    }
    // Protocol v2 payload comparison: the same full-marginal query over
    // one connection per codec. Text pays ~19-25 bytes per cell of
    // %.17g; binary pays exactly 8 — bytes/query and the client-side
    // latency quantiles make the trade measurable (and CI-gated once
    // merged into the baseline).
    std::printf(
        "full-marginal payloads, text vs binary codec (2^%d cells):\n", d);
    const std::string wide_request =
        "query wide marginal " + std::to_string(full_mask);
    const int marginal_requests = 300;
    double text_bytes_per_query = 0.0;
    for (const bool binary : {false, true}) {
      auto client = net::Client::Connect(address);
      if (!client.ok()) {
        std::fprintf(stderr, "tcp bench: connect failed\n");
        return 1;
      }
      if (binary &&
          !client.value()
               .Negotiate(service::kProtocolVersionV2,
                          service::Codec::kBinary)
               .ok()) {
        std::fprintf(stderr, "tcp bench: HELLO v2 binary failed\n");
        return 1;
      }
      std::vector<double> latencies;
      latencies.reserve(marginal_requests);
      std::size_t payload_bytes = 0;
      int errors = 0;
      const double seconds = bench::TimeSeconds([&] {
        for (int i = 0; i < marginal_requests; ++i) {
          std::string payload;
          const double rtt = bench::TimeSeconds([&] {
            if (!client.value().Call(wide_request, &payload).ok()) {
              ++errors;
            }
          });
          payload_bytes += payload.size();
          latencies.push_back(rtt * 1e6);
        }
      });
      const double bytes_per_query =
          static_cast<double>(payload_bytes) / marginal_requests;
      if (!binary) text_bytes_per_query = bytes_per_query;
      const double qps = marginal_requests / seconds;
      const double p50 = stats::Quantile(latencies, 0.5);
      const double p99 = stats::Quantile(latencies, 0.99);
      const char* codec_name = binary ? "binary" : "text";
      std::printf(
          "  %-6s: %8.0f bytes/query  %8.0f q/s  p50=%.0fus p99=%.0fus"
          "  (errors=%d)\n",
          codec_name, bytes_per_query, qps, p50, p99, errors);
      std::vector<std::pair<std::string, double>> counters = {
          {"bytes_per_query", bytes_per_query},
          {"p50_us", p50},
          {"p99_us", p99}};
      if (binary) {
        counters.push_back(
            {"text_to_binary_ratio", text_bytes_per_query / bytes_per_query});
      }
      report.Add(std::string("tcp_marginal/") + codec_name,
                 seconds / marginal_requests, std::move(counters));
      if (binary) {
        std::printf("  binary payload is %.2fx smaller than text\n",
                    text_bytes_per_query / bytes_per_query);
      }
    }
    // Observability tax: full /metrics scrapes over the HTTP endpoint
    // on the acceptor's event loop. Latency and exposition size are
    // CI-gated next to the serving rows — a scrape must stay cheap
    // enough to run on a tight interval without denting query traffic.
    {
      std::uint16_t http_port = 0;
      {
        const std::string http_address = listener.http_bound_address();
        const std::size_t colon = http_address.rfind(':');
        if (colon != std::string::npos) {
          http_port = static_cast<std::uint16_t>(
              std::atoi(http_address.c_str() + colon + 1));
        }
      }
      const int scrapes = 200;
      std::vector<double> latencies;
      latencies.reserve(scrapes);
      std::size_t body_bytes = 0;
      int errors = 0;
      const double seconds = bench::TimeSeconds([&] {
        for (int i = 0; i < scrapes; ++i) {
          const double rtt = bench::TimeSeconds([&] {
            auto fd = net::ConnectTcp("127.0.0.1", http_port);
            if (!fd.ok()) {
              ++errors;
              return;
            }
            static const char kScrape[] = "GET /metrics HTTP/1.0\r\n\r\n";
            if (::send(fd.value().get(), kScrape, sizeof(kScrape) - 1,
                       MSG_NOSIGNAL) != sizeof(kScrape) - 1) {
              ++errors;
              return;
            }
            std::string response;
            char buf[8192];
            for (;;) {
              const ssize_t n =
                  ::recv(fd.value().get(), buf, sizeof(buf), 0);
              if (n <= 0) break;
              response.append(buf, static_cast<std::size_t>(n));
            }
            if (response.rfind("HTTP/1.0 200", 0) != 0) {
              ++errors;
              return;
            }
            body_bytes += response.size();
          });
          latencies.push_back(rtt * 1e6);
        }
      });
      const double qps = scrapes / seconds;
      const double bytes_per_scrape =
          static_cast<double>(body_bytes) / scrapes;
      const double p50 = stats::Quantile(latencies, 0.5);
      const double p99 = stats::Quantile(latencies, 0.99);
      std::printf(
          "http /metrics scrape: %8.0f scrapes/s  %8.0f bytes/scrape  "
          "p50=%.0fus p99=%.0fus  (errors=%d)\n",
          qps, bytes_per_scrape, p50, p99, errors);
      report.Add("http/metrics_scrape", seconds / scrapes,
                 {{"qps", qps},
                  {"bytes_per_scrape", bytes_per_scrape},
                  {"p50_us", p50},
                  {"p99_us", p99}});
    }
    listener.Shutdown();
    serve_thread.join();
  }

  // Connection-scale serving: a thousand idle connections parked on the
  // poller fleet while two hot clients keep querying through the crowd.
  // Idle sockets are pure poll-set weight — this leg measures what that
  // weight costs the hot path (p50/p99) and how fast the acceptor can
  // fill the fleet (accept_per_s), with one poller vs four. On a
  // single-core host the poller counts differ only in coordination
  // overhead; the rows exist so a multi-core CI run shows the spread.
  {
    // The fd budget: 1000 idle conns (bench side + server side) plus
    // headroom. Raise the soft limit if the hard limit allows; scale
    // the crowd down honestly if it does not.
    std::size_t idle_target = 1000;
    struct rlimit nofile {};
    if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
      const rlim_t wanted =
          static_cast<rlim_t>(2 * idle_target + 256);
      if (nofile.rlim_cur < wanted) {
        struct rlimit raised = nofile;
        raised.rlim_cur = std::min(wanted, nofile.rlim_max);
        (void)::setrlimit(RLIMIT_NOFILE, &raised);
        (void)::getrlimit(RLIMIT_NOFILE, &nofile);
      }
      if (nofile.rlim_cur < wanted) {
        idle_target = static_cast<std::size_t>(
            nofile.rlim_cur > 512 ? (nofile.rlim_cur - 256) / 2 : 128);
        std::printf(
            "tcp many-conns: fd limit %llu, scaling idle crowd to %zu\n",
            static_cast<unsigned long long>(nofile.rlim_cur), idle_target);
      }
    }
    std::printf("tcp many-conns (%zu idle + 2 hot clients, warm cache):\n",
                idle_target);
    for (const int pollers : {1, 4}) {
      ThreadPool pool(4);
      auto mc_executor =
          std::make_shared<const service::BatchExecutor>(svc, &pool);
      net::ServerOptions options;
      options.net_threads = pollers;
      options.admission.max_connections =
          static_cast<int>(idle_target) + 64;
      net::SocketListener listener(
          options,
          net::ServeContext{store, cache, svc, mc_executor, &pool});
      if (!listener.Start().ok()) {
        std::fprintf(stderr, "tcp many-conns bench: listen failed\n");
        return 1;
      }
      std::thread serve_thread([&listener] { listener.Serve().ok(); });
      const std::string address =
          "127.0.0.1:" + std::to_string(listener.bound_port());

      // Accept phase, timed: fill the fleet in backlog-sized batches,
      // waiting for the pollers to adopt each batch before the next.
      std::vector<UniqueFd> idle;
      idle.reserve(idle_target);
      bool accept_failed = false;
      const double accept_seconds = bench::TimeSeconds([&] {
        while (idle.size() < idle_target && !accept_failed) {
          const std::size_t batch =
              std::min<std::size_t>(100, idle_target - idle.size());
          for (std::size_t i = 0; i < batch; ++i) {
            auto fd = net::ConnectTcp("127.0.0.1", listener.bound_port());
            if (!fd.ok()) {
              accept_failed = true;
              break;
            }
            idle.push_back(std::move(fd).value());
          }
          auto pinned = [&listener] {
            std::size_t total = 0;
            for (int p = 0; p < listener.net_threads(); ++p) {
              total += listener.poller_connections(p);
            }
            return total;
          };
          while (pinned() < idle.size()) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
      if (accept_failed) {
        std::fprintf(stderr, "tcp many-conns bench: connect failed\n");
        return 1;
      }
      const double accept_per_s =
          static_cast<double>(idle.size()) / accept_seconds;

      // Hot phase: two clients doing one-shot cell queries through the
      // idle crowd.
      const int hot_threads = 2;
      const int requests_per_thread = 1000;
      std::vector<double> latencies;
      sync::Mutex latencies_mu;
      std::atomic<int> errors{0};
      const double seconds = bench::TimeSeconds([&] {
        std::vector<std::thread> workers;
        for (int t = 0; t < hot_threads; ++t) {
          workers.emplace_back([&, t] {
            auto client = net::Client::Connect(address);
            if (!client.ok()) {
              errors.fetch_add(requests_per_thread);
              return;
            }
            std::vector<double> local;
            local.reserve(static_cast<std::size_t>(requests_per_thread));
            for (int i = 0; i < requests_per_thread; ++i) {
              const auto& q = queries[static_cast<std::size_t>(
                  (t + i) % static_cast<int>(queries.size()))];
              const std::string request =
                  "query bench cell " + std::to_string(q.beta) + " 0";
              std::string payload;
              const double rtt = bench::TimeSeconds([&] {
                if (!client.value().Call(request, &payload).ok()) {
                  errors.fetch_add(1);
                }
              });
              local.push_back(rtt * 1e6);
            }
            sync::MutexLock lock(&latencies_mu);
            latencies.insert(latencies.end(), local.begin(), local.end());
          });
        }
        for (auto& w : workers) w.join();
      });
      const double total =
          static_cast<double>(hot_threads) * requests_per_thread;
      const double p50 = stats::Quantile(latencies, 0.5);
      const double p99 = stats::Quantile(latencies, 0.99);
      std::printf(
          "  pollers=%d: %10.0f q/s  p50=%.0fus p99=%.0fus  "
          "accepts=%.0f/s  (errors=%d)\n",
          pollers, total / seconds, p50, p99, accept_per_s, errors.load());
      report.Add("tcp_many_conns/" + std::to_string(pollers) + "p",
                 seconds / total,
                 {{"qps", total / seconds},
                  {"p50_us", p50},
                  {"p99_us", p99},
                  {"accept_per_s", accept_per_s}});

      // Close the crowd before shutdown so drain reaps EOFs instead of
      // waiting out a thousand linger deadlines.
      idle.clear();
      listener.Shutdown();
      serve_thread.join();
    }
  }
  // Trace-ring tax: the same one-shot cell workload against a listener
  // without the /tracez ring and one with the ring plus a JSONL access
  // log to /dev/null, best of seven interleaved repetitions each. Both
  // legs stamp spans and record every latency metric (the published
  // trace is the only clock), so the "untraced"/"traced" rows measure
  // the ring and the log line only. The traced row is hard-gated
  // in-bench at <= 1.25x the untraced per-query time so a regression
  // there fails this binary directly, before tools/bench_compare.py
  // ever sees a baseline for the new rows.
  {
    struct Leg {
      double seconds_per_query = 0.0;
      double p50 = 0.0;
      double p99 = 0.0;
    };
    struct Server {
      std::unique_ptr<ThreadPool> pool;
      std::shared_ptr<const service::BatchExecutor> executor;
      std::unique_ptr<net::SocketListener> listener;
      std::thread serve_thread;
      std::string address;
    };
    auto start_server = [&](bool traced, Server* server) -> bool {
      server->pool = std::make_unique<ThreadPool>(4);
      server->executor = std::make_shared<const service::BatchExecutor>(
          svc, server->pool.get());
      net::ServerOptions options;
      options.admission.max_connections = 64;
      options.admission.max_queue_depth = 4096;
      options.trace_ring_capacity = traced ? 256 : 0;
      if (traced) {
        // What the traced leg adds: ring publication and a formatted
        // access-log line per request (sunk into /dev/null so only the
        // formatting and buffered write are measured).
        options.access_log_path = "/dev/null";
        options.slow_query_ms = 1000;
      }
      server->listener = std::make_unique<net::SocketListener>(
          options, net::ServeContext{store, cache, svc, server->executor,
                                     server->pool.get()});
      if (!server->listener->Start().ok()) return false;
      server->serve_thread =
          std::thread([l = server->listener.get()] { l->Serve().ok(); });
      server->address =
          "127.0.0.1:" + std::to_string(server->listener->bound_port());
      return true;
    };
    const int leg_threads = 2;
    const int leg_conns = 2;
    const int requests_per_thread = 1500;
    auto run_rep = [&](const std::string& address, int rep, Leg* leg,
                       double* rep_seconds_per_query) -> bool {
      std::vector<double> latencies;
      sync::Mutex latencies_mu;
      std::atomic<int> errors{0};
      const double seconds = bench::TimeSeconds([&] {
        std::vector<std::thread> workers;
        for (int t = 0; t < leg_threads; ++t) {
          workers.emplace_back([&, t] {
            std::vector<net::Client> conns;
            for (int c = 0; c < leg_conns; ++c) {
              auto client = net::Client::Connect(address);
              if (client.ok()) conns.push_back(std::move(client).value());
            }
            if (conns.empty()) {
              errors.fetch_add(requests_per_thread);
              return;
            }
            std::vector<double> local;
            local.reserve(static_cast<std::size_t>(requests_per_thread));
            for (int i = 0; i < requests_per_thread; ++i) {
              const auto& q = queries[static_cast<std::size_t>(
                  (t + i) % static_cast<int>(queries.size()))];
              const std::string request =
                  "query bench cell " + std::to_string(q.beta) + " 0";
              auto& conn = conns[static_cast<std::size_t>(
                  i % static_cast<int>(conns.size()))];
              std::string payload;
              const double rtt = bench::TimeSeconds([&] {
                if (!conn.Call(request, &payload).ok()) {
                  errors.fetch_add(1);
                }
              });
              local.push_back(rtt * 1e6);
            }
            sync::MutexLock lock(&latencies_mu);
            latencies.insert(latencies.end(), local.begin(), local.end());
          });
        }
        for (auto& w : workers) w.join();
      });
      if (errors.load() > 0) return false;
      const double total =
          static_cast<double>(leg_threads) * requests_per_thread;
      const double per_query = seconds / total;
      *rep_seconds_per_query = per_query;
      if (rep == 0 || per_query < leg->seconds_per_query) {
        leg->seconds_per_query = per_query;
        leg->p50 = stats::Quantile(latencies, 0.5);
        leg->p99 = stats::Quantile(latencies, 0.99);
      }
      return true;
    };
    Server untraced_server, traced_server;
    bool ok = start_server(false, &untraced_server) &&
              start_server(true, &traced_server);
    Leg untraced, traced;
    // Interleave the legs rep by rep rather than running one leg to
    // completion before the other: shared machines drift by double-digit
    // percentages over the seconds a leg takes, and back-to-back leg
    // blocks turn that drift straight into a phantom overhead (or a
    // phantom speedup). Each rep pair runs under near-identical host
    // conditions, so its traced/untraced ratio isolates the ring; the
    // gate takes the median of the per-pair ratios, which a single
    // noisy rep cannot move. Within a pair the order alternates across
    // reps — a monotone host slowdown would otherwise bias every pair
    // the same way.
    std::vector<double> pair_ratios;
    for (int rep = 0; rep < 7 && ok; ++rep) {
      double untraced_rep = 0.0;
      double traced_rep = 0.0;
      if (rep % 2 == 0) {
        ok = run_rep(untraced_server.address, rep, &untraced, &untraced_rep) &&
             run_rep(traced_server.address, rep, &traced, &traced_rep);
      } else {
        ok = run_rep(traced_server.address, rep, &traced, &traced_rep) &&
             run_rep(untraced_server.address, rep, &untraced, &untraced_rep);
      }
      if (ok) pair_ratios.push_back(traced_rep / untraced_rep);
    }
    for (Server* server : {&untraced_server, &traced_server}) {
      if (server->listener) server->listener->Shutdown();
      if (server->serve_thread.joinable()) server->serve_thread.join();
    }
    if (!ok) {
      std::fprintf(stderr, "tcp_cell tracing bench: leg failed\n");
      return 1;
    }
    const double overhead = stats::Quantile(pair_ratios, 0.5);
    std::printf(
        "tcp cell queries, tracing off vs on (best of 7 interleaved "
        "reps; overhead = median per-rep ratio):\n");
    std::printf("  untraced: %10.0f q/s  p50=%.0fus p99=%.0fus\n",
                1.0 / untraced.seconds_per_query, untraced.p50,
                untraced.p99);
    std::printf(
        "  traced:   %10.0f q/s  p50=%.0fus p99=%.0fus  (%.2fx untraced)\n",
        1.0 / traced.seconds_per_query, traced.p50, traced.p99, overhead);
    report.Add("tcp_cell/untraced", untraced.seconds_per_query,
               {{"qps", 1.0 / untraced.seconds_per_query},
                {"p50_us", untraced.p50},
                {"p99_us", untraced.p99}});
    report.Add("tcp_cell/traced", traced.seconds_per_query,
               {{"qps", 1.0 / traced.seconds_per_query},
                {"p50_us", traced.p50},
                {"p99_us", traced.p99},
                {"traced_overhead", overhead}});
    if (overhead > 1.25) {
      std::fprintf(stderr,
                   "FAIL: tracing overhead %.2fx exceeds the 1.25x gate "
                   "(untraced %.1fus/query, traced %.1fus/query)\n",
                   overhead, untraced.seconds_per_query * 1e6,
                   traced.seconds_per_query * 1e6);
      return 1;
    }
  }
  if (!benchmark_out.empty() && !report.WriteTo(benchmark_out)) {
    std::fprintf(stderr, "cannot write %s\n", benchmark_out.c_str());
    return 1;
  }
  return 0;
}
