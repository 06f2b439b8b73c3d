// Copyright 2026 The dpcube Authors.
//
// dpcube command-line tool: private marginal/datacube release from the
// shell, end to end.
//
//   # Generate a synthetic dataset (Adult-like or NLTCS-like):
//   dpcube synth --dataset adult --rows 32561 --out adult.csv
//
//   # Release a workload privately and archive the answers:
//   dpcube release --schema "workclass:9,education:16,marital:7,..."
//     --data adult.csv --workload Q2 --method F+ --epsilon 0.5
//     --out release.csv
//
//   # Summarise an archived release:
//   dpcube inspect --release release.csv
//
//   # Data-free accuracy dry-run (no budget spent):
//   dpcube plan --schema "a:4,b:2,c:8" --workload Q2 --method F+
//     --epsilon 0.5
//
//   # Exactly integral, non-negative, consistent release (Section 6;
//   # geometric mechanism over base counts, d <= 20), optionally also
//   # materialised as a synthetic tuple file:
//   dpcube integral --schema "a:4,b:2" --data t.csv --workload Q1
//     --epsilon 1.0 --out release.csv --microdata synth.csv
//
//   # One-shot query against an archived release (zero extra privacy
//   # cost — pure post-processing). --mask is hex/decimal, or use
//   # --bits 0,2,5; --cell asks one cell, --range LO:HI a local-index
//   # range sum:
//   dpcube query --release release.csv --mask 0x5
//   dpcube query --release release.csv --bits 0,2 --cell 3
//   dpcube query --release release.csv --mask 3 --range 0:2
//
//   # Long-lived query server: loads releases by name and answers a
//   # line-oriented request/response protocol on stdin/stdout (one
//   # response line per request line, suitable for scripting):
//   dpcube serve --threads 4 [--release release.csv --name adult]
//     protocol:
//       HELLO v1|v2 [text|binary] negotiate version + response codec
//       load NAME PATH            load a release CSV under NAME
//       unload NAME               drop a release (and its cached tables)
//       list                      enumerate loaded releases
//       query NAME marginal MASK  full derived marginal over MASK
//       query NAME cell MASK C    one cell of that marginal
//       query NAME range MASK L H sum of local cells [L, H]
//       batch N                   read next N query lines, run them
//                                 concurrently on the executor
//       stats                     cache hit/miss/eviction counters
//       quit                      exit
//     responses: "OK ..." (answers carry mask=, var=, hit=, values) or
//     "ERR <message>".
//
//   # The same server over TCP (length-delimited frames around the same
//   # line protocol; see src/net/framing.h). Port 0 = ephemeral, printed
//   # at startup. SIGINT/SIGTERM drain in-flight queries before exit;
//   # overload sheds with structured "BUSY <reason>" replies,
//   # --query-quota N caps lifetime queries per release (answered with
//   # structured QuotaExceeded errors past the cap), and --max-frame
//   # bounds a request frame's payload bytes:
//   dpcube serve --listen 127.0.0.1:0 --release release.csv --name demo
//     --max-conns 64 --max-inflight 8 --max-queue 256 --query-quota 10000
//
//   # Remote one-shot queries against a --listen server ("STATS" with
//   # --stats). --binary negotiates protocol v2's binary response codec
//   # (HELLO handshake; full marginals cost 8 bytes/cell on the wire
//   # instead of decimal text) — the printed output is identical:
//   dpcube query --connect 127.0.0.1:PORT --name demo --mask 0x5
//   dpcube query --connect 127.0.0.1:PORT --name demo --mask 0x5 --binary
//   dpcube query --connect 127.0.0.1:PORT --stats
//
// Methods: I, Q, Q+, F, F+, C, C+ (the paper's Section 5 notation; "+"
// means optimal non-uniform budgets). Workloads: Qk, Qk*, Qka.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/signal.h"
#include "common/thread_pool.h"
#include "data/contingency_table.h"
#include "data/dataset.h"
#include "data/microdata.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "engine/variance_report.h"
#include "marginal/workload.h"
#include "net/client.h"
#include "net/socket_listener.h"
#include "recovery/integral.h"
#include "service/batch_executor.h"
#include "service/durable_state.h"
#include "service/marginal_cache.h"
#include "service/query_service.h"
#include "service/release_store.h"
#include "service/serve_config.h"
#include "service/serve_protocol.h"
#include "strategy/factory.h"

namespace {

using namespace dpcube;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dpcube synth   --dataset adult|nltcs --rows N --out F "
               "[--seed S]\n"
               "  dpcube release --schema SPEC --data F --workload W "
               "--method M --epsilon E --out F\n"
               "                 [--delta D] [--seed S] "
               "[--no-consistency] [--threads T]\n"
               "  dpcube inspect --release F\n"
               "  dpcube plan    --schema SPEC --workload W --method M "
               "--epsilon E [--delta D]\n"
               "  dpcube integral --schema SPEC --data F --workload W "
               "--epsilon E --out F [--seed S] [--no-clamp] [--microdata F]\n"
               "  dpcube query   --release F (--mask M | --bits I,J,...) "
               "[--cell C | --range LO:HI]\n"
               "  dpcube query   --connect HOST:PORT [--name N] [--binary] "
               "((--mask M | --bits I,J,...) [--cell C | --range LO:HI] "
               "| --stats)\n"
               "  dpcube serve   [--release F [--name N]] [--threads T] "
               "[--cache-cells N]\n"
               "                 [--state-dir DIR] [--snapshot-every N]\n"
               "                 [--listen HOST:PORT] [--max-conns N] "
               "[--max-inflight N]\n"
               "                 [--max-queue N] [--drain-ms N] "
               "[--query-quota N] [--max-frame BYTES]\n"
               "                 [--query-rate-limit N[/WINDOWs]] "
               "[--http-listen HOST:PORT]\n"
               "                 [--net-threads N] [--http-token TOKEN]\n"
               "                 [--access-log PATH] [--slow-query-ms N] "
               "[--trace-ring N]\n"
               "  (--threads T sizes the process-wide pool shared by the "
               "release pipeline\n"
               "   and the serve executor; default: hardware "
               "concurrency.\n"
               "   --listen serves the framed TCP protocol instead of "
               "stdin/stdout;\n"
               "   port 0 picks an ephemeral port, printed at startup.\n"
               "   --http-listen adds an HTTP observability port serving "
               "/metrics,\n"
               "   /healthz, /statusz, and /tracez; --http-token guards "
               "everything but\n"
               "   /healthz behind 'Authorization: Bearer TOKEN'; "
               "--query-rate-limit caps\n"
               "   queries per release over a sliding window, e.g. 100/60s "
               "— default\n"
               "   window 60s. --access-log appends one JSON line per "
               "completed request,\n"
               "   --slow-query-ms flags requests at/above N ms as slow, "
               "--trace-ring\n"
               "   sizes the /tracez ring — 0 drops only the ring.\n"
               "   --state-dir makes serving state durable: every "
               "load/unload and quota\n"
               "   charge is logged to DIR before taking effect, and a "
               "restart with the\n"
               "   same DIR restores releases and the quota ledger "
               "exactly; --snapshot-every\n"
               "   bounds replay by snapshotting after N records "
               "(default 1024))\n"
               "  (release and integral draw their noise seed from the OS "
               "unless --seed S\n"
               "   is given; a fixed seed reproduces the noise "
               "bit-for-bit.)\n");
  return 2;
}

// Applies --threads (1..256) to the process-wide pool every pipeline hot
// path and the serve executor run on. Returns false on a malformed value.
bool ConfigureThreads(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("threads");
  if (it == flags.end()) return true;  // Default: hardware concurrency.
  std::size_t threads = 0;
  if (!service::ParseSize(it->second, &threads) || threads == 0 ||
      threads > 256) {
    std::fprintf(stderr, "bad --threads '%s' (want 1..256)\n",
                 it->second.c_str());
    return false;
  }
  const Status st = ThreadPool::SetSharedParallelism(static_cast<int>(threads));
  if (!st.ok()) {
    std::fprintf(stderr, "--threads: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

// Minimal flag parsing: --key value pairs plus boolean --no-consistency.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              bool* ok) {
  std::map<std::string, std::string> flags;
  *ok = true;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *ok = false;
      return flags;
    }
    if (arg == "--no-consistency" || arg == "--no-clamp" ||
        arg == "--stats" || arg == "--binary") {
      flags[arg.substr(2)] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      *ok = false;
      return flags;
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::atof(it->second.c_str());
}

// The noise seed. --seed S reproduces a release bit-for-bit; without it
// the seed comes from the kernel, so knowing the schema and the defaults
// is not enough to regenerate (and subtract) the noise.
Result<std::uint64_t> NoiseSeed(
    const std::map<std::string, std::string>& flags) {
  if (flags.count("seed") != 0) {
    return static_cast<std::uint64_t>(FlagDouble(flags, "seed", 0));
  }
  return OsRandomSeed();
}

int RunSynth(const std::map<std::string, std::string>& flags) {
  const auto dataset_it = flags.find("dataset");
  const auto out_it = flags.find("out");
  if (dataset_it == flags.end() || out_it == flags.end()) return Usage();
  // Pipeline diagnostics share the serve path's leveled logger (usage
  // errors above stay bare fprintf).
  logging::Logger err_log(stderr, logging::Logger::Format::kHuman);
  const std::size_t rows =
      static_cast<std::size_t>(FlagDouble(flags, "rows", 10000));
  Rng rng(static_cast<std::uint64_t>(FlagDouble(flags, "seed", 42)));
  data::Dataset dataset = [&] {
    if (dataset_it->second == "adult") return data::MakeAdultLike(rows, &rng);
    if (dataset_it->second == "nltcs") return data::MakeNltcsLike(rows, &rng);
    err_log.Error("synth: unknown dataset",
                  {logging::Field("dataset", dataset_it->second)});
    std::exit(2);
  }();
  const Status st = data::WriteCsv(dataset, out_it->second);
  if (!st.ok()) {
    err_log.Error("synth: write failed: " + st.ToString(),
                  {logging::Field("path", out_it->second)});
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", dataset.num_rows(),
              out_it->second.c_str());
  return 0;
}

int RunRelease(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "data", "workload", "method",
                               "out"}) {
    if (flags.find(required) == flags.end()) {
      std::fprintf(stderr, "missing --%s\n", required);
      return Usage();
    }
  }
  logging::Logger err_log(stderr, logging::Logger::Format::kHuman);
  auto schema = data::ParseSchemaSpec(flags.at("schema"));
  if (!schema.ok()) {
    err_log.Error("release: schema: " + schema.status().ToString());
    return 1;
  }
  auto dataset = data::ReadCsv(schema.value(), flags.at("data"));
  if (!dataset.ok()) {
    err_log.Error("release: data: " + dataset.status().ToString(),
                  {logging::Field("path", flags.at("data"))});
    return 1;
  }
  auto workload = marginal::WorkloadByName(schema.value(),
                                           flags.at("workload"));
  if (!workload.ok()) {
    err_log.Error("release: workload: " + workload.status().ToString());
    return 1;
  }
  auto method = strategy::MakeMethod(flags.at("method"), workload.value());
  if (!method.ok()) {
    err_log.Error("release: method: " + method.status().ToString());
    return 1;
  }

  engine::ReleaseOptions options;
  options.params.epsilon = FlagDouble(flags, "epsilon", 1.0);
  options.params.delta = FlagDouble(flags, "delta", 0.0);
  options.budget_mode = method.value().budget_mode;
  options.enforce_consistency = flags.find("no-consistency") == flags.end();
  const Result<std::uint64_t> seed = NoiseSeed(flags);
  if (!seed.ok()) {
    err_log.Error("release: seed: " + seed.status().ToString());
    return 1;
  }
  Rng rng(seed.value());

  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(dataset.value());
  auto outcome = engine::ReleaseWorkload(*method.value().strategy, counts,
                                         options, &rng);
  if (!outcome.ok()) {
    err_log.Error("release: " + outcome.status().ToString(),
                  {logging::Field("method", flags.at("method")),
                   logging::Field("workload", flags.at("workload"))});
    return 1;
  }
  // Archive the mechanism's predicted per-cell variances alongside the
  // values so `dpcube query`/`serve` report true accuracy, not the
  // unit-variance default.
  linalg::Vector cell_variances;
  auto predicted = method.value().strategy->PredictCellVariances(
      outcome.value().group_budgets, options.params);
  if (predicted.ok()) cell_variances = std::move(predicted).value();
  const Status st = engine::WriteReleaseCsv(
      flags.at("out"), outcome.value().marginals, cell_variances,
      &outcome.value().timings);
  if (!st.ok()) {
    err_log.Error("release: write: " + st.ToString(),
                  {logging::Field("path", flags.at("out"))});
    return 1;
  }
  std::printf(
      "released %zu marginals (%llu cells) of %zu-row dataset under "
      "eps=%.3f%s via %s -> %s\n",
      outcome.value().marginals.size(),
      static_cast<unsigned long long>(workload.value().TotalCells()),
      dataset.value().num_rows(), options.params.epsilon,
      options.params.delta > 0 ? " (approx-DP)" : "",
      flags.at("method").c_str(), flags.at("out").c_str());
  std::printf("predicted total variance: %.4g; consistent: %s\n",
              outcome.value().predicted_variance,
              outcome.value().consistent ? "yes" : "no");
  const engine::PhaseTimings& t = outcome.value().timings;
  std::printf(
      "phases: budget %.3fs, measure %.3fs, consistency %.3fs "
      "(total %.3fs, threads=%d)\n",
      t.budget_seconds, t.measure_seconds, t.consistency_seconds,
      t.total_seconds, ThreadPool::Shared().parallelism());
  return 0;
}

int RunPlan(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "workload", "method"}) {
    if (flags.find(required) == flags.end()) {
      std::fprintf(stderr, "missing --%s\n", required);
      return Usage();
    }
  }
  auto schema = data::ParseSchemaSpec(flags.at("schema"));
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto workload =
      marginal::WorkloadByName(schema.value(), flags.at("workload"));
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto method = strategy::MakeMethod(flags.at("method"), workload.value());
  if (!method.ok()) {
    std::fprintf(stderr, "method: %s\n", method.status().ToString().c_str());
    return 1;
  }
  dp::PrivacyParams params;
  params.epsilon = FlagDouble(flags, "epsilon", 1.0);
  params.delta = FlagDouble(flags, "delta", 0.0);
  auto report = engine::PredictRelease(*method.value().strategy, params,
                                       method.value().budget_mode);
  if (!report.ok()) {
    std::fprintf(stderr, "plan: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("plan for method %s, eps=%.3f%s (no data touched):\n",
              flags.at("method").c_str(), params.epsilon,
              params.delta > 0 ? " (approx-DP)" : "");
  for (std::size_t i = 0; i < workload.value().num_marginals(); ++i) {
    std::printf(
        "  marginal mask=0x%llx order=%d: cell stddev %.2f, "
        "expected |error| per cell %.2f\n",
        static_cast<unsigned long long>(workload.value().mask(i)),
        bits::Popcount(workload.value().mask(i)),
        std::sqrt(report.value().cell_variances[i]),
        report.value().expected_abs_error[i]);
  }
  std::printf("predicted total output variance: %.4g\n",
              report.value().total_variance);
  return 0;
}

int RunIntegral(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "data", "workload", "out"}) {
    if (flags.find(required) == flags.end()) {
      std::fprintf(stderr, "missing --%s\n", required);
      return Usage();
    }
  }
  logging::Logger err_log(stderr, logging::Logger::Format::kHuman);
  auto schema = data::ParseSchemaSpec(flags.at("schema"));
  if (!schema.ok()) {
    err_log.Error("integral: schema: " + schema.status().ToString());
    return 1;
  }
  auto dataset = data::ReadCsv(schema.value(), flags.at("data"));
  if (!dataset.ok()) {
    err_log.Error("integral: data: " + dataset.status().ToString(),
                  {logging::Field("path", flags.at("data"))});
    return 1;
  }
  auto workload =
      marginal::WorkloadByName(schema.value(), flags.at("workload"));
  if (!workload.ok()) {
    err_log.Error("integral: workload: " + workload.status().ToString());
    return 1;
  }
  dp::PrivacyParams params;
  params.epsilon = FlagDouble(flags, "epsilon", 1.0);
  const Result<std::uint64_t> seed = NoiseSeed(flags);
  if (!seed.ok()) {
    err_log.Error("integral: seed: " + seed.status().ToString());
    return 1;
  }
  Rng rng(seed.value());
  const data::SparseCounts counts =
      data::SparseCounts::FromDataset(dataset.value());
  recovery::IntegralReleaseOptions int_options;
  int_options.clamp_nonnegative = flags.find("no-clamp") == flags.end();
  auto release = recovery::IntegralBaseCountRelease(workload.value(), counts,
                                                    params, &rng, int_options);
  if (!release.ok()) {
    err_log.Error("integral: " + release.status().ToString());
    return 1;
  }
  const Status st =
      engine::WriteReleaseCsv(flags.at("out"), release.value().marginals);
  if (!st.ok()) {
    err_log.Error("integral: write: " + st.ToString(),
                  {logging::Field("path", flags.at("out"))});
    return 1;
  }
  std::printf(
      "released %zu integral non-negative consistent marginals under "
      "eps=%.3f -> %s (per-base-cell variance %.3f)\n",
      release.value().marginals.size(), params.epsilon,
      flags.at("out").c_str(), release.value().per_cell_variance);
  // Optionally materialise the released table as a synthetic tuple file.
  const auto micro_it = flags.find("microdata");
  if (micro_it != flags.end()) {
    if (!int_options.clamp_nonnegative) {
      std::fprintf(stderr, "microdata requires the clamped release "
                           "(drop --no-clamp)\n");
      return 1;
    }
    const std::vector<double> cells(release.value().table.begin(),
                                    release.value().table.end());
    auto microdata = data::GenerateMicrodata(
        schema.value(), cells, data::MicrodataOptions{}, &rng);
    if (!microdata.ok()) {
      std::fprintf(stderr, "microdata: %s\n",
                   microdata.status().ToString().c_str());
      return 1;
    }
    const Status ms = data::WriteCsv(microdata.value().dataset,
                                     micro_it->second);
    if (!ms.ok()) {
      std::fprintf(stderr, "microdata write: %s\n", ms.ToString().c_str());
      return 1;
    }
    std::printf("microdata: %zu synthetic tuples -> %s (skipped padding "
                "mass %.0f)\n",
                microdata.value().dataset.num_rows(),
                micro_it->second.c_str(), microdata.value().skipped_mass);
  }
  return 0;
}

int RunInspect(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("release");
  if (it == flags.end()) return Usage();
  auto loaded = engine::ReadReleaseCsv(it->second);
  if (!loaded.ok()) {
    std::fprintf(stderr, "read: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("release over d=%d bits, %zu marginals\n",
              loaded.value().workload.d(),
              loaded.value().marginals.size());
  for (const auto& m : loaded.value().marginals) {
    std::printf("  mask=0x%llx order=%d cells=%zu total=%.1f\n",
                static_cast<unsigned long long>(m.alpha()), m.k(),
                m.num_cells(), m.Total());
  }
  return 0;
}

// Size/mask parsing is shared with the serve protocol (service::ParseSize)
// so flags and protocol lines accept the same syntax.
using service::ParseSize;

// Parses a marginal mask from --mask (decimal or 0x-hex) or --bits
// (comma-separated bit indices). Returns false and prints on failure.
bool ParseMask(const std::map<std::string, std::string>& flags,
               bits::Mask* mask) {
  const auto mask_it = flags.find("mask");
  const auto bits_it = flags.find("bits");
  if ((mask_it == flags.end()) == (bits_it == flags.end())) {
    std::fprintf(stderr, "need exactly one of --mask or --bits\n");
    return false;
  }
  if (mask_it != flags.end()) {
    std::size_t parsed = 0;
    if (!ParseSize(mask_it->second, &parsed)) {
      std::fprintf(stderr, "bad --mask '%s'\n", mask_it->second.c_str());
      return false;
    }
    *mask = parsed;
    return true;
  }
  *mask = 0;
  std::stringstream ss(bits_it->second);
  std::string field;
  while (std::getline(ss, field, ',')) {
    try {
      const int bit = std::stoi(field);
      if (bit < 0 || bit >= 64) throw std::out_of_range("bit");
      *mask |= bits::Mask{1} << bit;
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad --bits entry '%s'\n", field.c_str());
      return false;
    }
  }
  return true;
}

void PrintResponse(const service::QueryResponse& response) {
  std::printf("%s\n", service::FormatResponse(response).c_str());
}

// Remote one-shot: speak the framed TCP protocol to a running
// `dpcube serve --listen` instance. Prints every response line; exit 0
// iff the first line is an "OK ...". With --binary, negotiates protocol
// v2's binary response codec first; the printed lines are identical
// (records are rendered through the same formatter).
int RunRemoteQuery(const std::map<std::string, std::string>& flags) {
  const std::string& address = flags.at("connect");
  auto client = net::Client::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  if (flags.find("binary") != flags.end()) {
    const Status st = client.value().Negotiate(service::kProtocolVersionV2,
                                               service::Codec::kBinary);
    if (!st.ok()) {
      std::fprintf(stderr, "handshake: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::string request;
  if (flags.find("stats") != flags.end()) {
    request = "STATS";
  } else {
    bits::Mask mask = 0;
    if (!ParseMask(flags, &mask)) return 2;
    const auto name_it = flags.find("name");
    const std::string name =
        name_it == flags.end() ? "default" : name_it->second;
    char head[64];
    std::snprintf(head, sizeof(head), "0x%llx",
                  static_cast<unsigned long long>(mask));
    const auto cell_it = flags.find("cell");
    const auto range_it = flags.find("range");
    if (cell_it != flags.end() && range_it != flags.end()) {
      std::fprintf(stderr, "--cell and --range are mutually exclusive\n");
      return 2;
    }
    if (cell_it != flags.end()) {
      request = "query " + name + " cell " + head + " " + cell_it->second;
    } else if (range_it != flags.end()) {
      const auto colon = range_it->second.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--range expects LO:HI, got '%s'\n",
                     range_it->second.c_str());
        return 2;
      }
      request = "query " + name + " range " + head + " " +
                range_it->second.substr(0, colon) + " " +
                range_it->second.substr(colon + 1);
    } else {
      request = "query " + name + " marginal " + head;
    }
  }

  auto records = client.value().CallRecords(request);
  if (!records.ok()) {
    std::fprintf(stderr, "call: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  for (const service::WireRecord& record : records.value()) {
    std::printf("%s\n", service::FormatWireRecord(record).c_str());
  }
  return !records.value().empty() &&
                 records.value().front().code == service::ErrorCode::kOk
             ? 0
             : 1;
}

int RunQuery(const std::map<std::string, std::string>& flags) {
  if (flags.find("connect") != flags.end()) return RunRemoteQuery(flags);
  const auto release_it = flags.find("release");
  if (release_it == flags.end()) return Usage();
  bits::Mask mask = 0;
  if (!ParseMask(flags, &mask)) return 2;

  service::Query query;
  query.release = "default";
  query.beta = mask;
  const auto cell_it = flags.find("cell");
  const auto range_it = flags.find("range");
  if (cell_it != flags.end() && range_it != flags.end()) {
    std::fprintf(stderr, "--cell and --range are mutually exclusive\n");
    return 2;
  }
  if (cell_it != flags.end()) {
    query.kind = service::QueryKind::kCell;
    if (!ParseSize(cell_it->second, &query.cell_lo)) {
      std::fprintf(stderr, "bad --cell '%s'\n", cell_it->second.c_str());
      return 2;
    }
  } else if (range_it != flags.end()) {
    query.kind = service::QueryKind::kRange;
    const auto colon = range_it->second.find(':');
    if (colon == std::string::npos ||
        !ParseSize(range_it->second.substr(0, colon), &query.cell_lo) ||
        !ParseSize(range_it->second.substr(colon + 1), &query.cell_hi)) {
      std::fprintf(stderr, "--range expects LO:HI, got '%s'\n",
                   range_it->second.c_str());
      return 2;
    }
  }

  auto store = std::make_shared<service::ReleaseStore>();
  const Status st = store->LoadFromFile("default", release_it->second);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }
  auto cache = std::make_shared<service::MarginalCache>();
  const service::QueryService svc(store, cache);
  const service::QueryResponse response = svc.Answer(query);
  PrintResponse(response);
  return response.status.ok() ? 0 : 1;
}

int RunServe(const std::map<std::string, std::string>& flags) {
  // One parse, one validation pass, one source of truth: ServeConfig
  // feeds the durable-state layer, the session, and (via
  // ServerOptionsFromConfig) the whole network stack. Every bad flag or
  // incoherent combination fails here, before any socket is bound or
  // state directory touched.
  auto parsed = service::ParseServeConfig(flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const service::ServeConfig config = std::move(parsed).value();

  auto store = std::make_shared<service::ReleaseStore>();
  auto cache = std::make_shared<service::MarginalCache>(config.cache_cells);
  auto svc = std::make_shared<const service::QueryService>(store, cache);
  // Batches run on the same process-wide pool as the release pipeline
  // (sized by --threads via ConfigureThreads in main). Shared ownership:
  // in network mode a query still executing at drain-timeout holds the
  // executor alive through its connection's ServeContext.
  auto executor = std::make_shared<const service::BatchExecutor>(
      svc, &ThreadPool::Shared());

  // Serve-path diagnostics go through the leveled logger (the config
  // errors above keep bare fprintf: they are usage errors, not serving
  // events). Scripts that scrape serve output match on embedded
  // substrings ("listening on HOST:PORT", "OK drained on signal"), which
  // the timestamp/level prefix preserves.
  logging::Logger out_log(stdout, logging::Logger::Format::kHuman);
  logging::Logger err_log(stderr, logging::Logger::Format::kHuman);

  // --state-dir: recover the durable state (releases + quota ledger)
  // before anything binds or answers, so the process either serves the
  // replayed state or fails loudly.
  std::shared_ptr<service::DurableState> durable;
  if (config.durable()) {
    service::DurableOptions durable_options;
    durable_options.dir = config.state_dir;
    durable_options.snapshot_every = config.snapshot_every;
    durable_options.lifetime_quota = config.query_quota;
    durable_options.rate_limit = config.query_rate_limit;
    durable_options.rate_window_seconds = config.query_rate_window_seconds;
    auto opened = service::DurableState::Open(durable_options, store, svc);
    if (!opened.ok()) {
      err_log.Error("state-dir: " + opened.status().ToString());
      return 1;
    }
    durable = std::move(opened).value();
  }

  if (!config.release_path.empty()) {
    // Replay may already have restored this name, in which case the
    // restored release IS the preload; re-loading would double-log it.
    if (durable && store->Get(config.release_name).ok()) {
      std::printf("OK restored %s from %s\n", config.release_name.c_str(),
                  config.state_dir.c_str());
    } else {
      const Status st =
          durable ? durable->Apply(service::Mutation::LoadRelease(
                        config.release_name, config.release_path))
                  : store->LoadFromFile(config.release_name,
                                        config.release_path);
      if (!st.ok()) {
        err_log.Error("load: " + st.ToString());
        return 1;
      }
      std::printf("OK loaded %s from %s\n", config.release_name.c_str(),
                  config.release_path.c_str());
    }
  }
  if (!config.network()) {
    // Classic single-caller mode: the line protocol on stdin/stdout.
    std::printf("OK dpcube serve ready (threads=%d)\n",
                executor->num_threads());
    std::fflush(stdout);
    service::ServeSession session(store, cache, svc, executor.get());
    if (durable) {
      session.SetMutationHandler(
          [durable](const service::Mutation& mutation) {
            return durable->Apply(mutation);
          });
    }
    session.Run(std::cin, std::cout);
    return 0;
  }

  // Network mode: the framed TCP protocol, admission-controlled, with
  // graceful drain on SIGINT/SIGTERM.
  net::ServerOptions options = net::ServerOptionsFromConfig(config);

  auto signal_fd = InstallShutdownSignalFd();
  if (!signal_fd.ok()) {
    err_log.Error("signals: " + signal_fd.status().ToString());
    return 1;
  }
  options.shutdown_fd = signal_fd.value();

  net::ServeContext context;
  context.store = store;
  context.cache = cache;
  context.service = svc;
  context.executor = executor;
  context.pool = &ThreadPool::Shared();
  context.durable = durable;
  net::SocketListener listener(options, context);
  const Status st = listener.Start();
  if (!st.ok()) {
    err_log.Error("listen: " + st.ToString());
    return 1;
  }
  std::string quota_note;
  if (options.admission.max_queries_per_release > 0) {
    quota_note =
        " query-quota=" +
        std::to_string(options.admission.max_queries_per_release);
  }
  if (options.admission.query_rate_limit > 0) {
    quota_note +=
        " query-rate-limit=" +
        std::to_string(options.admission.query_rate_limit) + "/" +
        std::to_string(options.admission.query_rate_window_seconds) + "s";
  }
  if (durable) {
    quota_note += " state-dir=" + config.state_dir;
  }
  if (!listener.http_bound_address().empty()) {
    quota_note += " http=" + listener.http_bound_address();
  }
  if (options.slow_query_ms > 0) {
    quota_note += " slow-query-ms=" + std::to_string(options.slow_query_ms);
  }
  if (!options.access_log_path.empty()) {
    quota_note += " access-log=" + options.access_log_path;
  }
  char banner[512];
  std::snprintf(
      banner, sizeof(banner),
      "OK dpcube serve listening on %s (threads=%d net-threads=%d "
      "max-conns=%d max-inflight=%d max-queue=%d%s)",
      listener.bound_address().c_str(), executor->num_threads(),
      listener.net_threads(), options.admission.max_connections,
      options.admission.max_inflight, options.admission.max_queue_depth,
      quota_note.c_str());
  out_log.Info(banner);

  auto served = listener.Serve();
  if (!served.ok()) {
    err_log.Error("serve: " + served.status().ToString());
    return 1;
  }
  out_log.Info(std::string("OK drained") +
               (ShutdownRequested() ? " on signal" : "") + " after " +
               std::to_string(served.value()) + " connections");
  out_log.Info(listener.FormatStatsLine());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  bool ok = false;
  const auto flags = ParseFlags(argc, argv, &ok);
  if (!ok) return Usage();
  if (!ConfigureThreads(flags)) return 2;
  const std::string command = argv[1];
  if (command == "synth") return RunSynth(flags);
  if (command == "release") return RunRelease(flags);
  if (command == "inspect") return RunInspect(flags);
  if (command == "plan") return RunPlan(flags);
  if (command == "integral") return RunIntegral(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "serve") return RunServe(flags);
  return Usage();
}
