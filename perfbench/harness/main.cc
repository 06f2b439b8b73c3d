// Copyright 2026 The dpcube Authors.
//
// dpcube_perfbench: runs one benchmark workload and prints its result.
//
//   dpcube_perfbench --workload release|serve_hit --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    --dpcube PATH [--commit ID]
//
// The last line of standard output is the result object; the line before
// it is the host/build fingerprint, and any "# invalid: ..." lines above
// that say why the figures do not describe the program. Diagnostics go
// to standard error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/thread_pool.h"
#include "harness/workloads.h"

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) break;
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "work-dir", "dpcube"}) {
    if (flags.count(required) == 0) {
      std::fprintf(stderr, "dpcube_perfbench: missing --%s\n", required);
      return 2;
    }
  }
#ifndef NDEBUG
  // Numbers from a build with assertions on describe a different program.
  std::fprintf(stderr, "dpcube_perfbench: refusing to report from a build "
                       "with assertions on (NDEBUG unset)\n");
  return 3;
#endif

  perfbench::RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.trace = flags["trace"] == "1";
  options.work_dir = flags["work-dir"];
  options.dpcube_bin = flags["dpcube"];
  options.threads = perfbench::HardwareThreads();
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "dpcube_perfbench: --seconds must be positive\n");
    return 2;
  }
  // The in-process work runs on one thread, so its CPU time is the
  // work's (see ThreadCpuSeconds); the served program gets its own threads.
  if (!dpcube::ThreadPool::SetSharedParallelism(1).ok()) {
    std::fprintf(stderr, "dpcube_perfbench: cannot size the thread pool\n");
    return 1;
  }

  perfbench::Report report;
  if (options.workload == "release") {
    report = perfbench::RunReleaseWorkload(options);
  } else if (options.workload == "serve_hit") {
    report = perfbench::RunServeWorkload(options);
  } else {
    std::fprintf(stderr, "dpcube_perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (report.attempted == 0) {  // Failed before the first operation.
    report.attempted = 1;
    report.failed = 1;
    report.Fail("no operation ran");
  }
  if (options.trace) perfbench::FillUnexercisedLayers(&report);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "INCORRECT: %s\n", problem.c_str());
  }
  for (const std::string& reason : report.invalid) {
    std::printf("# invalid: %s\n", reason.c_str());
  }
  std::printf("# fingerprint %s\n",
              perfbench::Fingerprint(flags.count("commit") ? flags["commit"]
                                                           : "unknown")
                  .c_str());
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
