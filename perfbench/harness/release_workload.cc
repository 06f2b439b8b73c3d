// Copyright 2026 The dpcube Authors.
//
// The `release` workload: the offline data-owner path, in process. One
// pass runs a fixed job list through the calls `dpcube release` makes
// (MakeMethod -> ReleaseWorkload -> PredictCellVariances ->
// WriteReleaseCsv). No net, service or WAL code runs here.
//
// The whole workload runs on a one-thread pool, so every call runs on
// this thread and the thread's CPU time is the work's time (see
// ThreadCpuSeconds). A pool of nproc threads is used only for the traced
// run's common.pool.speedup.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/contingency_table.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "engine/metrics.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "harness/spans.h"
#include "harness/workloads.h"
#include "marginal/workload.h"
#include "strategy/factory.h"

namespace perfbench {

namespace {

using namespace dpcube;

// Dataset sizes: the NLTCS-like table is the paper's 16-attribute binary
// survey at 200k rows; the Adult-like one its mixed-cardinality census
// table; the reduced set keeps C+'s clustering search near the size of
// the other jobs.
constexpr std::size_t kNltcsRows = 200000;
constexpr std::size_t kAdultRows = 32561;
constexpr std::size_t kReducedRows = 50000;
constexpr int kReducedBits = 9;
constexpr double kEpsilon = 1.0;
// setup_s is the median of kLoadGroups groups of kLoadsPerGroup loads,
// spread over the run: the host's speed drifts over seconds, and loads
// taken together would follow one moment of it.
constexpr int kLoadGroups = 4;
constexpr int kLoadsPerGroup = 3;
constexpr int kLatencyWindows = 5;  ///< Job-latency percentile windows.

struct Source {
  data::Schema schema;
  std::string csv;
  std::optional<data::SparseCounts> counts;  ///< Set by LoadSources.
};

struct Job {
  std::string method;  ///< "F+", "Q+", "I", "C+".
  std::size_t source = 0;
  marginal::Workload workload{0, {}};
  std::string tag() const { return method.substr(0, 1); }
};

struct JobResult {
  bool ok = false;
  std::string error;
  double cpu_seconds = 0.0;
  std::uint64_t digest = 0;  ///< Of the released values, for determinism.
  std::uint64_t cells = 0;
  std::vector<marginal::MarginalTable> marginals;
};

std::uint64_t Digest(const std::vector<marginal::MarginalTable>& marginals) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the bit patterns.
  for (const auto& m : marginals) {
    for (const double v : m.values()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 1099511628211ULL;
    }
  }
  return h;
}

// One job through the CLI's release call sequence. `noise_seed` is
// explicit on every call, so the output repeats exactly for a seed.
JobResult RunJob(const Job& job, const Source& source, std::uint64_t noise_seed,
                 const std::string& out_path, SpanRecorder* spans,
                 std::uint64_t parent) {
  JobResult result;
  const double start = ThreadCpuSeconds();
  const std::uint64_t job_span = spans->Begin("release.job", parent);

  std::uint64_t span = spans->Begin("strategy.construct." + job.tag(), job_span);
  auto method = strategy::MakeMethod(job.method, job.workload);
  spans->End(span);
  if (!method.ok()) {
    result.error = job.method + ": " + method.status().ToString();
    return result;
  }

  engine::ReleaseOptions options;
  options.params.epsilon = kEpsilon;
  options.budget_mode = method.value().budget_mode;
  options.enforce_consistency = true;
  Rng rng(noise_seed);
  span = spans->Begin("engine.release", job_span);
  auto outcome = engine::ReleaseWorkload(*method.value().strategy,
                                         *source.counts, options, &rng);
  spans->End(span);
  if (!outcome.ok()) {
    result.error = job.method + ": " + outcome.status().ToString();
    return result;
  }
  if (spans->enabled()) {
    // The engine's own phase timings, laid end to end inside its span.
    const engine::PhaseTimings& t = outcome.value().timings;
    const Span& release = spans->spans()[span - 1];
    std::int64_t at = release.start_ns;
    const std::pair<const char*, double> phases[] = {
        {"budget.solve", t.budget_seconds},
        {nullptr, t.measure_seconds},
        {"recovery.consistency", t.consistency_seconds}};
    for (const auto& [name, seconds] : phases) {
      const std::int64_t ns = static_cast<std::int64_t>(seconds * 1e9);
      spans->Add(name != nullptr ? name : "strategy.measure." + job.tag(),
                 span, at, at + ns);
      at += ns;
    }
  }

  span = spans->Begin("engine.predict", job_span);
  linalg::Vector variances;
  auto predicted = method.value().strategy->PredictCellVariances(
      outcome.value().group_budgets, options.params);
  if (predicted.ok()) variances = std::move(predicted).value();
  spans->End(span);

  span = spans->Begin("engine.archive", job_span);
  const Status written = engine::WriteReleaseCsv(
      out_path, outcome.value().marginals, variances, &outcome.value().timings);
  spans->End(span);
  spans->End(job_span);
  result.cpu_seconds = ThreadCpuSeconds() - start;
  if (!written.ok()) {
    result.error = job.method + ": archive: " + written.ToString();
    return result;
  }

  // Correctness: every output marginal finite, the release consistent.
  for (const auto& m : outcome.value().marginals) {
    for (const double v : m.values()) {
      if (!std::isfinite(v)) {
        result.error = job.method + ": non-finite released value";
        return result;
      }
    }
    result.cells += m.num_cells();
  }
  if (!outcome.value().consistent) {
    result.error = job.method + ": release is not consistent";
    return result;
  }
  result.ok = true;
  result.digest = Digest(outcome.value().marginals);
  result.marginals = std::move(outcome.value().marginals);
  return result;
}

// ReadCsv + SparseCounts::FromDataset for every source; returns CPU
// seconds.
double LoadSources(std::vector<Source>* sources, SpanRecorder* spans,
                   std::string* error) {
  const double start = ThreadCpuSeconds();
  for (Source& source : *sources) {
    const std::uint64_t span = spans->Begin("data.load");
    auto dataset = data::ReadCsv(source.schema, source.csv);
    if (!dataset.ok()) {
      *error = source.csv + ": " + dataset.status().ToString();
      return 0.0;
    }
    source.counts = data::SparseCounts::FromDataset(dataset.value());
    spans->End(span);
  }
  return ThreadCpuSeconds() - start;
}

}  // namespace

Report RunReleaseWorkload(const RunOptions& options) {
  Report report;
  SpanRecorder spans(options.trace);
  SpanRecorder untraced(false);

  // Inputs, from the seed only.
  std::vector<Source> sources(3);
  {
    Rng rng(options.seed);
    const data::Dataset nltcs = data::MakeNltcsLike(kNltcsRows, &rng);
    const data::Dataset adult = data::MakeAdultLike(kAdultRows, &rng);
    const data::Dataset reduced = data::MakeUniform(
        data::BinarySchema(kReducedBits), kReducedRows, &rng);
    const data::Dataset* made[] = {&nltcs, &adult, &reduced};
    const char* names[] = {"nltcs", "adult", "reduced"};
    for (int i = 0; i < 3; ++i) {
      sources[i].schema = made[i]->schema();
      sources[i].csv = options.work_dir + "/" + names[i] + ".csv";
      const Status st = data::WriteCsv(*made[i], sources[i].csv);
      if (!st.ok()) {
        report.Fail("write dataset: " + st.ToString());
        return report;
      }
    }
  }

  // setup_s: full loads of every dataset into counts. The first group
  // runs before the passes (its first load is the traced one), the others
  // between passes in the untraced run.
  std::vector<double> loads;
  auto load_group = [&]() -> bool {
    for (int r = 0; r < kLoadsPerGroup; ++r) {
      std::string error;
      loads.push_back(LoadSources(&sources, loads.empty() ? &spans : &untraced, &error));
      if (!error.empty()) {
        report.Fail("load: " + error);
        return false;
      }
    }
    return true;
  };
  if (!load_group()) return report;

  std::vector<Job> jobs;
  for (const char* method : {"F+", "Q+", "I"}) {
    jobs.push_back({method, 0, marginal::WorkloadQk(sources[0].schema, 3)});
  }
  for (const char* method : {"F+", "Q+", "I"}) {
    jobs.push_back({method, 1, marginal::WorkloadQk(sources[1].schema, 2)});
  }
  jobs.push_back({"C+", 2, marginal::WorkloadQk(sources[2].schema, 2)});

  // One pass over the job list at the current pool size: its wall and
  // CPU seconds, and each job's CPU seconds.
  struct PassTime {
    double wall = 0.0, cpu = 0.0;
    std::vector<double> job_cpu;
  };
  std::vector<JobResult> first;
  auto run_pass = [&](SpanRecorder* recorder,
                      std::vector<JobResult>* results) -> PassTime {
    PassTime time;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ThreadCpuSeconds();
    const std::uint64_t pass_span = recorder->Begin("release.pass");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      JobResult r = RunJob(jobs[j], sources[jobs[j].source],
                           options.seed * 1000 + j,
                           options.work_dir + "/release.csv", recorder,
                           pass_span);
      ++report.attempted;
      if (!r.ok) {
        ++report.failed;
        report.Fail(r.error);
      } else if (results != &first && r.digest != first[j].digest) {
        ++report.failed;
        report.Fail(jobs[j].method + ": output differs from the first pass "
                    "under the same noise seed");
      }
      time.job_cpu.push_back(r.cpu_seconds);
      if (results != nullptr) results->push_back(std::move(r));
    }
    recorder->End(pass_span);
    time.cpu = ThreadCpuSeconds() - cpu_start;
    time.wall = SecondsSince(start);
    return time;
  };

  // The first pass fixes the reference outputs and the error metric.
  run_pass(&untraced, &first);
  if (!report.correct) return report;
  std::vector<double> rel_errors;
  std::uint64_t released_cells = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto error = engine::EvaluateRelease(
        jobs[j].workload, *sources[jobs[j].source].counts, first[j].marginals);
    if (!error.ok() || !std::isfinite(error.value().relative_error)) {
      report.Fail(jobs[j].method + ": cannot evaluate release");
      return report;
    }
    rel_errors.push_back(error.value().relative_error);
    released_cells += first[j].cells;
    first[j].marginals.clear();
  }

  // Timed passes until the run's time is spent (at least three), in CPU
  // seconds. The traced run alternates traced and untraced
  // passes so the tracing overhead is measured under the same host
  // conditions.
  std::vector<double> pass_seconds, traced_seconds, job_seconds;
  const Clock::time_point measure_start = Clock::now();
  int load_groups = 1;
  for (int pass = 0;
       pass < 3 || SecondsSince(measure_start) < options.seconds; ++pass) {
    if (!options.trace && load_groups < kLoadGroups &&
        SecondsSince(measure_start) >= options.seconds * load_groups / kLoadGroups) {
      if (!load_group()) return report;
      ++load_groups;
    }
    const bool traced_pass = options.trace && pass % 2 == 1;
    const PassTime t = run_pass(traced_pass ? &spans : &untraced, nullptr);
    (traced_pass ? traced_seconds : pass_seconds).push_back(t.cpu);
    if (!traced_pass) {
      job_seconds.insert(job_seconds.end(), t.job_cpu.begin(), t.job_cpu.end());
    }
    if (!report.correct) return report;
  }

  if (!options.trace) {
    const double release_s = Median(pass_seconds);
    const Percentile p50 = PercentileOf(job_seconds, 0.50);
    const double p50_w = WindowedPercentile(job_seconds, 0.50, kLatencyWindows);
    std::fprintf(stderr,
                 "release: %zu passes, median %.4f CPU s; job p50 %.0fus "
                 "(median of %d windows; whole run %.0fus over %zu jobs)\n",
                 pass_seconds.size(), release_s, p50_w * 1e6,
                 kLatencyWindows, p50.value * 1e6, p50.samples);
    std::fprintf(stderr, "release: set-up loads");
    for (const double l : loads) std::fprintf(stderr, " %.4f", l);
    std::fprintf(stderr, " CPU s\n");
    report.Set("setup_s", Median(loads), "s");
    report.Set("release_s", release_s, "s");
    report.Set("release_rel_error", Mean(rel_errors), "ratio");
    report.Set("p50_us", p50_w * 1e6, "us");
    report.Set("success_rate",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    report.Set("peak_rss_mb", PeakRssMbSelf(), "MiB");
    return report;
  }

  // Traced: per-layer self time per pass, from the traced passes' spans.
  const double traced_passes = static_cast<double>(traced_seconds.size());
  const std::map<std::string, double> self = SelfSeconds(spans.spans());
  auto per_pass = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / traced_passes;
  };
  // The first of the set-up loads is the traced one.
  report.Set("data.load_s", self.count("data.load") ? self.at("data.load") : 0.0, "s");
  for (const char* tag : {"F", "Q", "I", "C"}) {
    report.Set(std::string("strategy.construct_s.") + tag,
               per_pass(std::string("strategy.construct.") + tag), "s");
    report.Set(std::string("strategy.measure_s.") + tag,
               per_pass(std::string("strategy.measure.") + tag), "s");
  }
  report.Set("budget.solve_s", per_pass("budget.solve"), "s");
  report.Set("recovery.consistency_s", per_pass("recovery.consistency"), "s");
  report.Set("engine.archive_s", per_pass("engine.archive"), "s");
  report.Set("engine.self_s",
             per_pass("engine.release") + per_pass("engine.predict"), "s");
  const double untraced_median = Median(pass_seconds);
  report.Set("trace.overhead_pct",
             (Median(traced_seconds) - untraced_median) / untraced_median *
                 100.0,
             "%");

  // common.pool.speedup: wall seconds of a pass on the one-thread pool
  // over those of a pass on nproc threads, taken back to back. The nproc
  // passes' outputs must match too (the pool's determinism contract).
  std::vector<double> single, parallel;
  for (int r = 0; r < 2; ++r) {
    single.push_back(run_pass(&untraced, nullptr).wall);
    ThreadPool::ResetSharedPoolForTests(options.threads);
    parallel.push_back(run_pass(&untraced, nullptr).wall);
    ThreadPool::ResetSharedPoolForTests(1);
  }
  report.Set("common.pool.speedup", Median(single) / Median(parallel), "x");

  ProbeKernels(options.seed, released_cells, &report);
  spans.WriteJsonLines(options.work_dir + "/spans.jsonl");
  return report;
}

}  // namespace perfbench
