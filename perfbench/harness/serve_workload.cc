// Copyright 2026 The dpcube Authors.
//
// The serving workload serve_hit: the real `dpcube serve` binary as a
// child process, driven over loopback TCP by the open-loop generator. It
// serves a k-way cuboid release with the cache warmed at set-up and big
// enough for the whole working set, and answers text cell queries over
// every derivable sub-marginal. That isolates the net layer and the
// service cache-hit path; no WAL, no Derive.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "data/contingency_table.h"
#include "data/synthetic.h"
#include "engine/metrics.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "harness/loadgen.h"
#include "harness/oracle.h"
#include "harness/scrape.h"
#include "harness/spans.h"
#include "harness/workloads.h"
#include "marginal/workload.h"
#include "net/framing.h"
#include "service/marginal_cache.h"
#include "service/release_store.h"
#include "strategy/factory.h"

namespace perfbench {

namespace {

using namespace dpcube;
namespace fs = std::filesystem;

constexpr std::size_t kServeRows = 50000;
constexpr int kCuboidOrder = 4;  ///< Q4 over the 16 NLTCS-like bits.
// setup_s is the median of server boots taken in groups, one before the
// first nominal segment and one after each: the host's speed drifts over
// seconds, and boots taken together would follow one moment of it.
constexpr int kBootsPerGroup = 4;
constexpr int kBuildsPerGroup = 7;
constexpr int kBatchSize = 8;     ///< Queries per probed batch frame.
constexpr double kWarmupSeconds = 0.5;
constexpr int kRounds = 3;  ///< Nominal segments, with boots between them.
constexpr double kNominalQps = 8000.0;  ///< Fixed rate of the latency phase.
constexpr double kMaxLagUs = 500.0;     ///< Generator lateness that voids a window.
constexpr double kDrainSeconds = 0.25;  ///< Wait for answers after a phase.

// Expected answers, computed in process on the same release CSVs. The
// returned pointers stay valid for the Oracle's lifetime.
class Oracle {
 public:
  explicit Oracle(std::shared_ptr<const service::QueryService> svc)
      : svc_(std::move(svc)) {}

  const std::string* CellLine(const std::string& release, bits::Mask mask,
                              std::size_t cell, std::string* error) {
    const std::string key = release + "/" + std::to_string(mask) + "/" +
                            std::to_string(cell);
    auto it = text_.find(key);
    if (it != text_.end()) return &it->second;
    const service::QueryResponse r = svc_->Answer(
        service::Query{release, service::QueryKind::kCell, mask, cell, 0});
    if (!r.status.ok()) {
      *error = "oracle: " + r.status.ToString();
      return nullptr;
    }
    return &text_.emplace(key, ExpectedTextLine(r)).first->second;
  }

 private:
  std::shared_ptr<const service::QueryService> svc_;
  std::unordered_map<std::string, std::string> text_;
};

std::string Hex(bits::Mask mask) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(mask));
  return buf;
}

struct Fixture {
  std::string cuboid_csv;
  std::vector<bits::Mask> cell_masks;  ///< Every derivable sub-marginal.
  int conns = 0;
  std::unique_ptr<Oracle> oracle;
};

// One cell query on release "r" drawn from `rng`.
service::Query DrawCell(const Fixture& fx, Rng* rng) {
  const bits::Mask mask = fx.cell_masks[rng->NextBounded(fx.cell_masks.size())];
  const std::size_t cell = rng->NextBounded(std::uint64_t{1}
                                            << bits::Popcount(mask));
  return service::Query{"r", service::QueryKind::kCell, mask, cell, 0};
}

std::string CellRequest(const service::Query& q) {
  return "query r cell " + Hex(q.beta) + " " + std::to_string(q.cell_lo);
}

// The arrival schedule of one phase: Poisson at `rate` for `seconds`,
// one cell query per arrival, round-robin over the connections, all
// drawn from `seed`.
bool BuildPlan(const Fixture& fx, double rate, double seconds,
               std::uint64_t seed, std::vector<PlannedRequest>* plan,
               std::string* error) {
  plan->clear();
  Rng rng(seed);
  const std::vector<double> arrivals = PoissonSchedule(rate, seconds, seed ^ 0x5bd1e995);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const service::Query q = DrawCell(fx, &rng);
    const std::string* line = fx.oracle->CellLine("r", q.beta, q.cell_lo, error);
    if (line == nullptr) return false;
    PlannedRequest req;
    req.offset_s = arrivals[i];
    req.conn = static_cast<int>(i % fx.conns);
    req.frame = net::EncodeFrame(CellRequest(q));
    req.expect = {line};
    plan->push_back(std::move(req));
  }
  return true;
}

// Latency percentiles are taken per window of consecutive requests and
// reported as the median over the windows: the steady-state figure,
// which one host hiccup in one window cannot move. Short windows keep a
// hiccup of a few milliseconds from reaching the p99 of many of them.
constexpr double kWindowSeconds = 0.4;
constexpr int kMinWindows = 5;

struct PhaseSummary {
  std::size_t attempted = 0, ok = 0, wrong = 0, unanswered = 0;
  std::vector<double> w50, w99; ///< Per-window p50 / p99, from intended.
  std::vector<double> wlag99;   ///< Per-window p99 send lag.
  double mean_service_us = 0.0; ///< From the actual send.
  double mean_lag_us = 0.0;
};

PhaseSummary Summarize(const PhaseResult& r, int windows) {
  PhaseSummary s;
  std::vector<double> lag, service;
  s.attempted = r.outcomes.size();
  for (const RequestOutcome& o : r.outcomes) {
    lag.push_back(o.lag_us);
    if (!o.answered) ++s.unanswered;
    if (o.wrong) ++s.wrong;
    if (o.ok) {
      ++s.ok;
      service.push_back(o.service_us);
    }
  }
  for (int w = 0; w < windows; ++w) {
    const std::size_t lo = s.attempted * w / windows;
    const std::size_t hi = s.attempted * (w + 1) / windows;
    std::vector<double> ok_latency, window_lag;
    for (std::size_t i = lo; i < hi; ++i) {
      const RequestOutcome& o = r.outcomes[i];
      window_lag.push_back(o.lag_us);
      if (o.ok) ok_latency.push_back(o.latency_us);
    }
    s.w50.push_back(PercentileOf(ok_latency, 0.50).value);
    s.w99.push_back(PercentileOf(ok_latency, 0.99).value);
    s.wlag99.push_back(PercentileOf(window_lag, 0.99).value);
  }
  s.mean_service_us = Mean(service);
  s.mean_lag_us = Mean(lag);
  return s;
}

Series Scrape(int http_port, double* latency_us, std::size_t* series_count) {
  std::string body;
  const Clock::time_point start = Clock::now();
  const bool ok = HttpGet(http_port, "/metrics", &body);
  if (latency_us != nullptr) *latency_us = SecondsSince(start) * 1e6;
  Series series = ok ? ParsePrometheus(body) : Series{};
  if (series_count != nullptr) *series_count = series.size();
  return series;
}

// Builds the served release through the CLI's release call sequence.
// Runs on this thread (the shared pool has one thread); returns the CPU
// seconds of the job, or a negative value on error.
double BuildRelease(const marginal::Workload& workload,
                    const data::SparseCounts& counts, const std::string& csv,
                    std::uint64_t seed, double* rel_error, std::string* error) {
  const double start = ThreadCpuSeconds();
  auto method = strategy::MakeMethod("F+", workload);
  if (!method.ok()) {
    *error = method.status().ToString();
    return -1.0;
  }
  engine::ReleaseOptions options;
  options.params.epsilon = 1.0;
  options.budget_mode = method.value().budget_mode;
  Rng rng(seed * 1000 + 100);  // Explicit noise seed.
  auto outcome = engine::ReleaseWorkload(*method.value().strategy, counts,
                                         options, &rng);
  if (!outcome.ok()) {
    *error = outcome.status().ToString();
    return -1.0;
  }
  linalg::Vector variances;
  auto predicted = method.value().strategy->PredictCellVariances(
      outcome.value().group_budgets, options.params);
  if (predicted.ok()) variances = std::move(predicted).value();
  const Status st = engine::WriteReleaseCsv(csv, outcome.value().marginals,
                                            variances, &outcome.value().timings);
  if (!st.ok()) {
    *error = st.ToString();
    return -1.0;
  }
  const double seconds = ThreadCpuSeconds() - start;
  if (rel_error != nullptr) {
    auto evaluated = engine::EvaluateRelease(workload, counts,
                                             outcome.value().marginals);
    if (!evaluated.ok()) {
      *error = evaluated.status().ToString();
      return -1.0;
    }
    *rel_error = evaluated.value().relative_error;
  }
  return seconds;
}

}  // namespace

Report RunServeWorkload(const RunOptions& options) {
  Report report;
  Fixture fx;
  const fs::path work = fs::absolute(options.work_dir);
  fx.cuboid_csv = (work / "cuboid.csv").string();
  std::string error;

  // ---- Inputs and the served release (release_s, release_rel_error).
  Rng rng(options.seed);
  const data::Dataset dataset = data::MakeNltcsLike(kServeRows, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(dataset);
  const marginal::Workload cuboid = marginal::WorkloadQk(dataset.schema(), kCuboidOrder);
  // release_s is the median of kBuildsPerGroup builds before the
  // server starts and as many after each nominal segment but the last.
  std::vector<double> release_seconds;
  double rel_error = 0.0;
  auto build_group = [&]() -> bool {
    for (int r = 0; r < kBuildsPerGroup; ++r) {
      const double s = BuildRelease(cuboid, counts, fx.cuboid_csv, options.seed,
                                    release_seconds.empty() ? &rel_error : nullptr,
                                    &error);
      if (s < 0) {
        report.Fail("release: " + error);
        return false;
      }
      release_seconds.push_back(s);
    }
    return true;
  };
  if (!build_group()) return report;

  // ---- The oracle: an in-process service on the same CSV.
  auto store = std::make_shared<service::ReleaseStore>();
  if (!store->LoadFromFile("r", fx.cuboid_csv).ok()) {
    report.Fail("oracle cannot load the release CSV");
    return report;
  }
  auto cache = std::make_shared<service::MarginalCache>(std::size_t{1} << 26);
  fx.oracle = std::make_unique<Oracle>(
      std::make_shared<const service::QueryService>(store, cache));
  fx.cell_masks = bits::MasksOfWeightAtMost(dataset.schema().TotalBits(), kCuboidOrder);
  fx.conns = std::clamp(options.threads, 2, 4);

  // ---- Server flags: the poller, the workers and the generator thread
  // fit nproc. The generator is busy and loopback costs kernel time, so
  // the server leaves a core spare; the generator (this thread) gets a
  // CPU of its own.
  const int server_threads = std::max(1, options.threads - 3);
  std::vector<int> server_cpus;
  int generator_cpu = 0;
  if (SplitCpus(&server_cpus, &generator_cpu)) PinCurrentThread({generator_cpu});
  auto keep_awake = std::make_unique<KeepAwake>(server_cpus);
  const std::vector<std::string> args = {
      "--listen", "127.0.0.1:0", "--http-listen", "127.0.0.1:0",
      "--release", fx.cuboid_csv, "--name", "r",
      "--threads", std::to_string(server_threads), "--net-threads", "1",
      "--max-conns", "64", "--max-inflight", "4096", "--max-queue", "8192",
      "--drain-ms", "2000"};

  // ---- setup_s: spawn until the first correct answer. No boot runs
  // beside a loaded server; the boot after the first group becomes the
  // measured server.
  std::vector<double> boots;
  const service::Query probe = DrawCell(fx, &rng);
  const std::string* probe_line = fx.oracle->CellLine("r", probe.beta, probe.cell_lo, &error);
  auto boot = [&](const std::string& log) -> std::unique_ptr<ServerProcess> {
    auto booted = std::make_unique<ServerProcess>();
    booted->set_cpus(server_cpus);
    const Clock::time_point start = Clock::now();
    Connections c;
    std::string reply, why;
    if (!booted->Start(options.dpcube_bin, args, (work / log).string(), &error) ||
        !c.Open(booted->port(), 1, &error) || !c.Call(0, CellRequest(probe), &reply)) {
      report.Fail("boot: " + error);
      return nullptr;
    }
    ++report.attempted;
    if (probe_line == nullptr || !MatchesText(reply, *probe_line, &why)) {
      ++report.failed;
      report.Fail("first answer after boot is wrong: " + why);
      return nullptr;
    }
    boots.push_back(SecondsSince(start));
    return booted;
  };
  // Boots and stops a group of spare servers; the measured server, once
  // up, idles meanwhile.
  auto boot_group = [&]() -> bool {
    for (int b = 0; b < kBootsPerGroup; ++b) {
      if (boot("boot.log") == nullptr) return false;
    }
    return true;
  };
  if (!boot_group()) return report;
  std::unique_ptr<ServerProcess> server = boot("serve.log");
  if (server == nullptr) return report;

  // Warm the cache with every derivable sub-marginal.
  auto conns_ptr = std::make_unique<Connections>();
  if (!conns_ptr->Open(server->port(), fx.conns, &error)) {
    report.Fail("connect: " + error);
    return report;
  }
  for (std::size_t i = 0; i < fx.cell_masks.size(); i += 100) {
    const std::size_t n = std::min<std::size_t>(100, fx.cell_masks.size() - i);
    std::string payload = "batch " + std::to_string(n);
    for (std::size_t j = 0; j < n; ++j) {
      payload += "\n" + CellRequest({"r", service::QueryKind::kCell, fx.cell_masks[i + j], 0, 0});
    }
    std::string reply;
    if (!conns_ptr->Call(0, payload, &reply)) {
      report.Fail("warm-up failed");
      return report;
    }
  }

  // Runs one open-loop phase; reconnects when requests were left behind.
  std::uint64_t phase_seed = options.seed * 7919;
  auto run_phase = [&](double rate, double seconds, SpanRecorder* spans,
                       PhaseSummary* summary, bool counted) -> bool {
    std::vector<PlannedRequest> plan;
    if (!BuildPlan(fx, rate, seconds, ++phase_seed, &plan, &error)) {
      report.Fail(error);
      return false;
    }
    const PhaseResult result = conns_ptr->Run(plan, kDrainSeconds, spans);
    const int windows = std::max(kMinWindows, static_cast<int>(seconds / kWindowSeconds));
    *summary = Summarize(result, windows);
    if (summary->wrong > 0) report.Fail("wrong answer: " + result.first_wrong);
    if (counted) {
      report.attempted += summary->attempted;
      report.failed += summary->attempted - summary->ok;
    }
    if (summary->unanswered > 0) {
      conns_ptr = std::make_unique<Connections>();
      if (!conns_ptr->Open(server->port(), fx.conns, &error)) {
        report.Fail("reconnect: " + error);
        return false;
      }
    }
    return true;
  };

  SpanRecorder untraced(false);
  PhaseSummary warm;
  if (!run_phase(kNominalQps, kWarmupSeconds, &untraced, &warm, false)) {
    return report;
  }

  if (!options.trace) {
    // kRounds nominal segments fill the run, with a group of boots and
    // one of release builds between them, so every figure samples host
    // conditions across the whole run: p50/p99 are medians over every
    // nominal window of every segment.
    std::vector<double> w50, w99, all_w50, all_w99;
    std::size_t samples = 0;
    double peak_rss_mb = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      // A window the generator fell behind in measured the client, not
      // the server: it is left out of the latency figures.
      PhaseSummary fixed;
      if (!run_phase(kNominalQps, options.seconds / kRounds, &untraced, &fixed, true)) {
        return report;
      }
      for (std::size_t w = 0; w < fixed.w50.size(); ++w) {
        all_w50.push_back(fixed.w50[w]);
        all_w99.push_back(fixed.w99[w]);
        if (fixed.wlag99[w] > kMaxLagUs) continue;
        w50.push_back(fixed.w50[w]);
        w99.push_back(fixed.w99[w]);
      }
      samples += fixed.ok;
      if (round == 0) peak_rss_mb = PeakRssMbOfPid(server->pid());
      if (!boot_group()) return report;
      if (round + 1 < kRounds && !build_group()) return report;
    }
    const std::size_t dropped = all_w50.size() - w50.size();
    if (2 * dropped > all_w50.size()) {
      report.invalid.push_back("generator fell behind in " + std::to_string(dropped) +
                               " of " + std::to_string(all_w50.size()) +
                               " nominal windows; the latency figures are not the server's");
      w50 = all_w50;
      w99 = all_w99;
    }
    std::fprintf(stderr,
                 "%s: setup %.3fs (boots", options.workload.c_str(), Median(boots));
    for (const double b : boots) std::fprintf(stderr, " %.4f", b);
    std::fprintf(stderr, "); release builds");
    for (const double b : release_seconds) std::fprintf(stderr, " %.4f", b);
    std::fprintf(stderr,
                 " CPU s; %.0f q/s nominal: p50 %.1fus p99 %.1fus (medians of "
                 "%zu windows over %zu samples; %zu windows left out for send "
                 "lag)\n",
                 kNominalQps, Median(w50), Median(w99), w99.size(), samples,
                 dropped);
    report.Set("setup_s", Median(boots), "s");
    report.Set("release_s", Median(release_seconds), "s");
    report.Set("release_rel_error", rel_error, "ratio");
    report.Set("p50_us", Median(w50), "us");
    report.Set("success_rate",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
               "ratio");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    conns_ptr.reset();
    server->Stop();
    return report;
  }

  // ---- Traced run: the nominal phase untraced and traced (order by
  // seed parity), server-side layers read from /metrics around the
  // untraced half, then the in-process probes.
  SpanRecorder spans(true);
  PhaseSummary plain, traced;
  Series before, after;
  const double half = options.seconds / 2.0;
  for (int leg = 0; leg < 2; ++leg) {
    const bool tracing = (leg == 0) == (options.seed % 2 == 1);
    if (!tracing) before = Scrape(server->http_port(), nullptr, nullptr);
    if (!run_phase(kNominalQps, half, tracing ? &spans : &untraced,
                   tracing ? &traced : &plain, true)) {
      return report;
    }
    if (!tracing) after = Scrape(server->http_port(), nullptr, nullptr);
  }
  double scrape_us = 0.0;
  std::size_t series_count = 0;
  Scrape(server->http_port(), &scrape_us, &series_count);
  report.Set("trace.overhead_pct",
             (Median(traced.w50) - Median(plain.w50)) / Median(plain.w50) * 100.0,
             "%");

  double span_sum_us = 0.0;
  for (const char* span : {"decode", "admit", "queue", "compute", "encode", "flush"}) {
    const std::string labels = std::string("span=\"") + span + "\"";
    const SumCount delta =
        Delta(HistogramSumCount(after, "dpcube_span_microseconds", labels),
              HistogramSumCount(before, "dpcube_span_microseconds", labels));
    report.Set(std::string("net.span.") + span + "_us", delta.Mean(), "us");
    span_sum_us += delta.Mean();
  }
  report.Set("net.unattributed_us", plain.mean_service_us - span_sum_us, "us");
  report.Set("net.client.lag_us", plain.mean_lag_us, "us");
  report.Set("net.client.p99_us", Median(plain.w99), "us");
  auto delta_of = [&](const std::string& key) {
    return SeriesValue(after, key) - SeriesValue(before, key);
  };
  report.Set("net.shed_ratio",
             delta_of("dpcube_requests_shed_total") /
                 std::max<double>(1.0, static_cast<double>(plain.attempted)),
             "ratio");
  report.Set("net.http.scrape_us", scrape_us, "us");
  report.Set("net.http.series", static_cast<double>(series_count), "count");
  const double hits = delta_of("dpcube_cache_hits_total");
  const double misses = delta_of("dpcube_cache_misses_total");
  const double responses = std::max(1.0, delta_of("dpcube_responses_total"));
  report.Set("service.cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.Set("service.cache.evictions_per_kq",
             delta_of("dpcube_cache_evictions_total") / (responses / 1000.0), "1/kq");
  report.Set("process.cpu_s_per_kq",
             delta_of("dpcube_process_cpu_seconds_total") / (responses / 1000.0), "s/kq");
  conns_ptr.reset();
  server->Stop();
  keep_awake.reset();
  if (!server_cpus.empty()) {  // The probes get the whole machine back.
    server_cpus.push_back(generator_cpu);
    PinCurrentThread(server_cpus);
  }

  // In-process probes on this workload's own queries. The server runs
  // without a WAL, so the durable layer is measured here, in process.
  ServiceProbeInput probe_input;
  probe_input.state_dir = (work / "state-probe").string();
  probe_input.releases = {{"r", fx.cuboid_csv}};
  probe_input.threads = options.threads;
  Rng probe_rng(options.seed ^ 0xabcdef);
  for (int i = 0; i < 500; ++i) probe_input.queries.push_back(DrawCell(fx, &probe_rng));
  for (int b = 0; b < 64; ++b) {
    std::vector<service::Query> batch;
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(DrawCell(fx, &probe_rng));
    probe_input.batches.push_back(std::move(batch));
  }
  ProbeService(probe_input, &report);
  std::uint64_t released_cells = 0;
  for (const bits::Mask m : cuboid.masks()) {
    released_cells += std::uint64_t{1} << bits::Popcount(m);
  }
  ProbeKernels(options.seed, released_cells, &report);
  spans.WriteJsonLines((work / "spans.jsonl").string());
  const std::map<std::string, double> self = SelfSeconds(spans.spans());
  std::fprintf(stderr, "traced spans: %zu; self time: request %.3fs, client.lag %.3fs\n",
               spans.spans().size(), self.count("request") ? self.at("request") : 0.0,
               self.count("client.lag") ? self.at("client.lag") : 0.0);
  return report;
}

}  // namespace perfbench
