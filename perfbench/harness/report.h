// Copyright 2026 The dpcube Authors.
//
// The benchmark's result record and the small statistics it is built
// from: percentiles that carry their sample count, the seeded Poisson
// arrival schedule, peak-RSS readers and the host/build fingerprint.

#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the calling thread, in seconds. On a shared host a
// thread's wall time includes the time the host ran other guests on its
// CPU; with paravirtual steal accounting (as on KVM guests) its CPU time
// leaves that out. Work run on one thread is timed this way.
double ThreadCpuSeconds();

struct Metric {
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `attempted`/`failed` count operations (release jobs
// or served requests); a wrong answer is a failed operation and also
// clears `correct`.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< Why `correct` is false.
  /// Why the figures do not describe the program (e.g. a starved load
  /// generator); printed above the result, which stays as measured.
  std::vector<std::string> invalid;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why);
  // The contract's last line: {"correct", "attempted", "failed",
  // "metrics"} with every value printed with all its digits.
  std::string ToJson() const;
};

// A nearest-rank percentile with the sample count behind it: `beyond` is
// how many samples lie strictly above the reported rank, so p99 of 500
// samples says plainly that only 5 samples back it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Percentile PercentileOf(std::vector<double> xs, double p);
double Median(std::vector<double> xs);
// The median over `windows` consecutive equal slices of `xs` (in the order
// measured) of each slice's percentile `p`: a steady-state figure that a
// stall confined to one slice cannot move.
double WindowedPercentile(const std::vector<double>& xs, double p, int windows);
double Mean(const std::vector<double>& xs);

// Poisson arrivals at `rate_per_s` over [0, seconds): exponential gaps
// drawn from `seed`, returned as offsets in seconds from the phase start.
std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    std::uint64_t seed);

// Peak resident set of this process / of `pid` (VmHWM), in MiB.
double PeakRssMbSelf();
double PeakRssMbOfPid(pid_t pid);

int HardwareThreads();

// nproc, CPU model, compiler, build type and the source commit (given by
// the caller: git HEAD, or a digest of the source tree when the checkout
// has no git metadata), as one JSON object.
std::string Fingerprint(const std::string& commit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
