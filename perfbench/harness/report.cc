// Copyright 2026 The dpcube Authors.

#include "harness/report.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/rng.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& why) {
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(metric.value) << ", \"unit\": " << JsonString(metric.unit)
        << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Percentile PercentileOf(std::vector<double> xs, double p) {
  Percentile result;
  result.samples = xs.size();
  if (xs.empty()) return result;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(xs.size()))) - 1;
  result.value = xs[index];
  result.beyond = xs.size() - 1 - index;
  return result;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double WindowedPercentile(const std::vector<double>& xs, double p, int windows) {
  std::vector<double> per_window;
  for (int w = 0; w < windows; ++w) {
    const std::size_t lo = xs.size() * w / windows;
    const std::size_t hi = xs.size() * (w + 1) / windows;
    if (hi > lo) {
      per_window.push_back(
          PercentileOf(std::vector<double>(xs.begin() + lo, xs.begin() + hi), p)
              .value);
    }
  }
  return Median(per_window);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    std::uint64_t seed) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  dpcube::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(rng.NextDoubleOpen()) / rate_per_s;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  return offsets;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMbSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double PeakRssMbOfPid(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return 0.0;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string Fingerprint(const std::string& commit) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << HardwareThreads()
      << ", \"cpu\": " << JsonString(cpu)
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      << ", \"ndebug\": true"
#else
      << ", \"ndebug\": false"
#endif
      << ", \"commit\": " << JsonString(commit) << "}";
  return out.str();
}

}  // namespace perfbench
