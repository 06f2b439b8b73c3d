// Copyright 2026 The dpcube Authors.
//
// In-process per-layer probes for the traced run, each timed around one
// public function of its layer on the workload's own inputs.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "harness/oracle.h"
#include "harness/scrape.h"
#include "harness/workloads.h"
#include "service/batch_executor.h"
#include "service/durable_state.h"
#include "service/marginal_cache.h"
#include "service/release_store.h"
#include "service/request.h"
#include "service/wire_codec.h"
#include "transform/walsh_hadamard.h"

namespace perfbench {

namespace {

using namespace dpcube;

// Median seconds of `repeats` calls of `fn`.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// The durable layer in process: quota charges from several threads at
// once through DurableState::Apply (fsync before apply, group commit),
// then a reopen that replays the log.
void ProbeDurable(const ServiceProbeInput& input,
                  const std::shared_ptr<service::ReleaseStore>& store,
                  const std::shared_ptr<const service::QueryService>& svc,
                  Report* report) {
  namespace fs = std::filesystem;
  fs::remove_all(input.state_dir);
  service::DurableOptions options;
  options.dir = input.state_dir;
  auto opened = service::DurableState::Open(options, store, svc);
  if (!opened.ok()) {
    report->Fail("durable probe: " + opened.status().ToString());
    return;
  }
  const std::shared_ptr<service::DurableState> durable = opened.value();
  metrics::Registry registry;
  durable->RegisterMetrics(&registry);
  const Series before = ParsePrometheus(registry.RenderPrometheus());
  constexpr int kWriters = 4;
  constexpr int kChargesPerWriter = 100;
  std::vector<std::thread> writers;
  std::vector<Status> failures(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kChargesPerWriter; ++i) {
        const Status st = durable->Apply(service::Mutation::QuotaCharge(
            input.releases.front().first, 1, 0, 0));
        if (!st.ok()) failures[w] = st;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (const Status& st : failures) {
    if (!st.ok()) report->Fail("durable probe: " + st.ToString());
  }
  const Series after = ParsePrometheus(registry.RenderPrometheus());
  const SumCount fsync =
      Delta(HistogramSumCount(after, "dpcube_wal_fsync_latency_microseconds"),
            HistogramSumCount(before, "dpcube_wal_fsync_latency_microseconds"));
  const double appended =
      SeriesValue(after, "dpcube_wal_appended_records_total") -
      SeriesValue(before, "dpcube_wal_appended_records_total");
  report->Set("service.durable.fsync_us", fsync.Mean(), "us");
  report->Set("service.durable.records_per_fsync",
              appended / std::max(1.0, fsync.count), "ratio");

  auto reopened = service::DurableState::Open(
      options, std::make_shared<service::ReleaseStore>(), svc);
  if (!reopened.ok()) {
    report->Fail("durable probe reopen: " + reopened.status().ToString());
    return;
  }
  report->Set("service.durable.replay_s",
              reopened.value()->replay_summary().seconds, "s");
}

}  // namespace

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"data.load_s", "s"},
      {"strategy.construct_s.F", "s"},
      {"strategy.construct_s.Q", "s"},
      {"strategy.construct_s.I", "s"},
      {"strategy.construct_s.C", "s"},
      {"budget.solve_s", "s"},
      {"strategy.measure_s.F", "s"},
      {"strategy.measure_s.Q", "s"},
      {"strategy.measure_s.I", "s"},
      {"strategy.measure_s.C", "s"},
      {"recovery.consistency_s", "s"},
      {"engine.archive_s", "s"},
      {"engine.self_s", "s"},
      {"dp.laplace_ns", "ns"},
      {"common.pool.speedup", "x"},
      {"transform.wht_ms.n16", "ms"},
      {"transform.wht_ms.n22", "ms"},
      {"transform.wht_gbps.n16", "GB/s"},
      {"transform.wht_gbps.n22", "GB/s"},
      {"net.span.decode_us", "us"},
      {"net.span.admit_us", "us"},
      {"net.span.queue_us", "us"},
      {"net.span.compute_us", "us"},
      {"net.span.encode_us", "us"},
      {"net.span.flush_us", "us"},
      {"net.unattributed_us", "us"},
      {"net.client.lag_us", "us"},
      {"net.client.p99_us", "us"},
      {"net.shed_ratio", "ratio"},
      {"net.http.scrape_us", "us"},
      {"net.http.series", "count"},
      {"service.cache.hit_ratio", "ratio"},
      {"service.cache.evictions_per_kq", "1/kq"},
      {"service.query.hit_us", "us"},
      {"service.query.miss_us", "us"},
      {"service.batch.us_per_query.t1", "us"},
      {"service.batch.us_per_query.tN", "us"},
      {"service.codec.encode_us.text", "us"},
      {"service.codec.encode_us.binary", "us"},
      {"service.codec.bytes_per_response", "B"},
      {"service.durable.fsync_us", "us"},
      {"service.durable.records_per_fsync", "ratio"},
      {"service.durable.replay_s", "s"},
      {"service.store.load_s", "s"},
      {"process.cpu_s_per_kq", "s/kq"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void FillUnexercisedLayers(Report* report) {
  for (const LayerMetric& metric : PerLayerMetrics()) {
    if (report->metrics.count(metric.name) == 0) {
      report->Set(metric.name, 0.0, metric.unit);
    }
  }
}

void ProbeKernels(std::uint64_t seed, std::uint64_t laplace_draws,
                  Report* report) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (const int log_n : {16, 22}) {
    const std::size_t n = std::size_t{1} << log_n;
    std::vector<double> x(n);
    for (double& v : x) v = rng.NextDouble();
    const int repeats = log_n == 16 ? 21 : 3;
    const double seconds =
        MedianSeconds(repeats, [&] { transform::WalshHadamard(&x); });
    // Computed bytes moved by the radix-2 butterfly: every one of the
    // log2(n) stages reads and writes all n doubles.
    const double bytes = 2.0 * 8.0 * static_cast<double>(n) * log_n;
    const std::string tag = "n" + std::to_string(log_n);
    report->Set("transform.wht_ms." + tag, seconds * 1e3, "ms");
    report->Set("transform.wht_gbps." + tag, bytes / seconds / 1e9, "GB/s");
  }

  const std::uint64_t draws = std::max<std::uint64_t>(laplace_draws, 1000);
  double sink = 0.0;
  const double seconds = MedianSeconds(5, [&] {
    for (std::uint64_t i = 0; i < draws; ++i) sink += rng.NextLaplace(2.0);
  });
  if (!std::isfinite(sink)) report->Fail("Laplace sampler returned non-finite");
  report->Set("dp.laplace_ns", seconds / static_cast<double>(draws) * 1e9,
              "ns");
}

void ProbeService(const ServiceProbeInput& input, Report* report) {
  auto store = std::make_shared<service::ReleaseStore>();
  for (const auto& [name, csv] : input.releases) {
    if (!store->LoadFromFile(name, csv).ok()) {
      report->Fail("probe: cannot load " + csv);
      return;
    }
  }
  // Load-and-fit of the workload's primary release.
  const auto& [name, csv] = input.releases.front();
  report->Set("service.store.load_s", MedianSeconds(3, [&] {
                (void)service::ReleaseStore::CreateFromFile(name, csv);
              }),
              "s");
  auto cache = std::make_shared<service::MarginalCache>(std::size_t{1} << 26);
  auto svc = std::make_shared<const service::QueryService>(store, cache);
  if (!input.state_dir.empty()) ProbeDurable(input, store, svc, report);

  // Miss: every answer derives from the release (cache cleared first).
  const std::size_t n = input.queries.size();
  double miss_seconds = 0.0;
  for (const service::Query& q : input.queries) {
    cache->Clear();
    const Clock::time_point start = Clock::now();
    const service::QueryResponse r = svc->Answer(q);
    miss_seconds += SecondsSince(start);
    if (!r.status.ok()) report->Fail("probe answer: " + r.status.ToString());
  }
  // Hit: the same queries on a cache that already holds every table.
  for (const service::Query& q : input.queries) (void)svc->Answer(q);
  std::vector<service::QueryResponse> responses;
  responses.reserve(n);
  const Clock::time_point hit_start = Clock::now();
  for (const service::Query& q : input.queries) {
    responses.push_back(svc->Answer(q));
  }
  const double hit_seconds = SecondsSince(hit_start);
  report->Set("service.query.miss_us", miss_seconds / n * 1e6, "us");
  report->Set("service.query.hit_us", hit_seconds / n * 1e6, "us");

  // Codec: encode the workload's responses in both codecs.
  double bytes = 0.0;
  for (const service::Codec codec :
       {service::Codec::kText, service::Codec::kBinary}) {
    std::size_t total = 0;
    const Clock::time_point start = Clock::now();
    for (const service::QueryResponse& r : responses) {
      total += service::EncodeResponseToString(
                   service::Response::FromQuery(r), codec)
                   .size();
    }
    const double us = SecondsSince(start) / n * 1e6;
    if (codec == service::Codec::kText) {
      report->Set("service.codec.encode_us.text", us, "us");
    } else {
      report->Set("service.codec.encode_us.binary", us, "us");
      bytes = static_cast<double>(total) / n;
    }
  }
  // The binary codec must carry every answer bit for bit.
  for (const service::QueryResponse& r : responses) {
    auto records = service::DecodeRecordStream(service::EncodeResponseToString(
        service::Response::FromQuery(r), service::Codec::kBinary));
    std::string why = "undecodable binary response";
    if (!records.ok() || records.value().size() != 1 ||
        !MatchesBinary(records.value().front(), r, &why)) {
      report->Fail("binary codec round trip: " + why);
      break;
    }
  }
  report->Set("service.codec.bytes_per_response", bytes, "B");

  // Batch: the workload's batch frames on a warm cache, 1 vs N threads.
  std::size_t batch_queries = 0;
  for (const auto& batch : input.batches) batch_queries += batch.size();
  for (const int threads : {1, input.threads}) {
    const service::BatchExecutor executor(svc, threads);
    const double seconds = MedianSeconds(5, [&] {
      for (const auto& batch : input.batches) {
        (void)executor.ExecuteBatch(batch);
      }
    });
    report->Set(threads == 1 ? "service.batch.us_per_query.t1"
                             : "service.batch.us_per_query.tN",
                seconds / std::max<std::size_t>(batch_queries, 1) * 1e6, "us");
  }
}

}  // namespace perfbench
