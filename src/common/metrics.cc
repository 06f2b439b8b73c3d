// Copyright 2026 The dpcube Authors.

#include "common/metrics.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace dpcube {
namespace metrics {

void LatencyHistogram::Record(double seconds) {
  const double micros = seconds * 1e6;
  int bucket = 0;
  if (micros >= 1.0) {
    bucket = std::min(kBuckets - 1, static_cast<int>(std::log2(micros)));
  }
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  const double rounded = micros > 0.0 ? std::llround(micros) : 0;
  sum_micros_.fetch_add(static_cast<std::uint64_t>(rounded),
                        std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::SnapshotBuckets() const {
  std::array<std::uint64_t, kBuckets> snapshot;
  for (int i = 0; i < kBuckets; ++i) {
    snapshot[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return snapshot;
}

double LatencyHistogram::BucketLowerEdgeMicros(int i) {
  return i <= 0 ? 0.0 : std::exp2(i);
}

double LatencyHistogram::BucketUpperEdgeMicros(int i) {
  return std::exp2(i + 1);
}

double LatencyHistogram::BucketQuantileMicros(
    const std::array<std::uint64_t, kBuckets>& snapshot, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : snapshot) total += c;
  if (total == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));

  int first = 0;
  while (snapshot[static_cast<std::size_t>(first)] == 0) ++first;
  int last = kBuckets - 1;
  while (snapshot[static_cast<std::size_t>(last)] == 0) --last;

  // Documented edges: p=0 is the lower edge of the first occupied
  // bucket, p=1 the upper edge of the last occupied one — except the
  // unbounded top bucket, whose only honest answer is its lower edge.
  if (p == 0.0) return BucketLowerEdgeMicros(first);
  if (p == 1.0) {
    return last == kBuckets - 1 ? BucketLowerEdgeMicros(last)
                                : BucketUpperEdgeMicros(last);
  }

  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (int i = first; i <= last; ++i) {
    seen += snapshot[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      // Saturated top bucket: a certain lower bound beats a fabricated
      // midpoint (the bucket absorbs everything above ~18 minutes).
      if (i == kBuckets - 1) return BucketLowerEdgeMicros(i);
      // Geometric midpoint of [2^i, 2^(i+1)); bucket 0 spans [0, 2).
      return std::exp2(i + 0.5);
    }
  }
  return last == kBuckets - 1 ? BucketLowerEdgeMicros(last)
                              : BucketUpperEdgeMicros(last);
}

ResourceTracker::ResourceTracker()
    : start_(std::chrono::steady_clock::now()) {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  if (ticks > 0) ticks_per_second_ = static_cast<double>(ticks);
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) page_bytes_ = page;
}

ResourceTracker::Sample ResourceTracker::TakeSample() const {
  Sample sample;
  sample.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  // /proc/self/statm: size resident ... (pages).
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size_pages = 0;
    long long resident_pages = 0;
    if (std::fscanf(f, "%lld %lld", &size_pages, &resident_pages) == 2) {
      sample.vsize_bytes =
          static_cast<double>(size_pages) * static_cast<double>(page_bytes_);
      sample.rss_bytes = static_cast<double>(resident_pages) *
                         static_cast<double>(page_bytes_);
    }
    std::fclose(f);
  }

  // /proc/self/stat fields 14/15 are utime/stime in clock ticks. The
  // comm field (2) may contain spaces, so seek past its closing ')'.
  if (std::FILE* f = std::fopen("/proc/self/stat", "r")) {
    char line[1024];
    if (std::fgets(line, sizeof(line), f) != nullptr) {
      const char* after_comm = std::strrchr(line, ')');
      if (after_comm != nullptr) {
        // after_comm points at ')'; field 3 (state) follows. utime and
        // stime are fields 14 and 15, i.e. the 11th and 12th after state.
        unsigned long long utime = 0;
        unsigned long long stime = 0;
        if (std::sscanf(after_comm + 1,
                        " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u "
                        "%llu %llu",
                        &utime, &stime) == 2) {
          sample.cpu_seconds =
              static_cast<double>(utime + stime) / ticks_per_second_;
        }
      }
    }
    std::fclose(f);
  }

  if (DIR* dir = ::opendir("/proc/self/fd")) {
    int fds = 0;
    while (struct dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++fds;
    }
    ::closedir(dir);
    // Exclude the directory fd opendir itself holds.
    sample.open_fds = fds > 0 ? fds - 1 : 0;
  }
  return sample;
}

Registry::Family* Registry::FamilyLocked(const std::string& name, Type type,
                                         const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
    it->second.help = help;
  } else if (it->second.type != type) {
    return nullptr;  // Caller hands out a sink.
  }
  return &it->second;
}

Registry::Child* Registry::ChildLocked(Family* family,
                                       const std::string& labels) {
  for (const auto& child : family->children) {
    if (child->labels == labels) return child.get();
  }
  family->children.push_back(std::make_unique<Child>());
  family->children.back()->labels = labels;
  return family->children.back().get();
}

Counter* Registry::GetCounter(const std::string& family,
                              const std::string& labels,
                              const std::string& help) {
  sync::MutexLock lock(&mu_);
  Family* f = FamilyLocked(family, Type::kCounter, help);
  if (f == nullptr) {
    sink_counters_.push_back(std::make_unique<Counter>());
    return sink_counters_.back().get();
  }
  Child* child = ChildLocked(f, labels);
  if (child->read) {  // Labels collide with a callback-backed child.
    sink_counters_.push_back(std::make_unique<Counter>());
    return sink_counters_.back().get();
  }
  if (!child->counter) child->counter = std::make_unique<Counter>();
  return child->counter.get();
}

LatencyHistogram* Registry::GetHistogram(const std::string& family,
                                         const std::string& labels,
                                         const std::string& help) {
  sync::MutexLock lock(&mu_);
  Family* f = FamilyLocked(family, Type::kHistogram, help);
  if (f == nullptr) {
    sink_histograms_.push_back(std::make_unique<LatencyHistogram>());
    return sink_histograms_.back().get();
  }
  Child* child = ChildLocked(f, labels);
  if (child->external) {
    sink_histograms_.push_back(std::make_unique<LatencyHistogram>());
    return sink_histograms_.back().get();
  }
  if (!child->histogram) child->histogram = std::make_unique<LatencyHistogram>();
  return child->histogram.get();
}

void Registry::RegisterGauge(const std::string& family,
                             const std::string& labels,
                             const std::string& help,
                             std::function<double()> read) {
  sync::MutexLock lock(&mu_);
  Family* f = FamilyLocked(family, Type::kGauge, help);
  if (f == nullptr) return;
  Child* child = ChildLocked(f, labels);
  child->read = std::move(read);
}

void Registry::RegisterCallbackCounter(const std::string& family,
                                       const std::string& labels,
                                       const std::string& help,
                                       std::function<double()> read) {
  sync::MutexLock lock(&mu_);
  Family* f = FamilyLocked(family, Type::kCounter, help);
  if (f == nullptr) return;
  Child* child = ChildLocked(f, labels);
  if (child->counter) return;  // Owned counter wins; keep one source.
  child->read = std::move(read);
}

void Registry::RegisterExternalHistogram(
    const std::string& family, const std::string& labels,
    const std::string& help,
    std::shared_ptr<const LatencyHistogram> histogram) {
  sync::MutexLock lock(&mu_);
  Family* f = FamilyLocked(family, Type::kHistogram, help);
  if (f == nullptr) return;
  Child* child = ChildLocked(f, labels);
  if (child->histogram) return;
  child->external = std::move(histogram);
}

namespace {

void AppendSample(std::string* out, const std::string& name,
                  const std::string& labels, double value) {
  char buf[64];
  // Integral values (counter snapshots) render without an exponent so
  // `grep ' 3$'`-style assertions in smoke tests stay simple.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  }
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendHistogram(std::string* out, const std::string& name,
                     const std::string& labels,
                     const LatencyHistogram& histogram) {
  const auto buckets = histogram.SnapshotBuckets();
  const std::string sep = labels.empty() ? "" : ",";
  std::uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += buckets[static_cast<std::size_t>(i)];
    char le[32];
    std::snprintf(le, sizeof(le), "%.0f",
                  LatencyHistogram::BucketUpperEdgeMicros(i));
    AppendSample(out, name + "_bucket",
                 labels + sep + "le=\"" + le + "\"",
                 static_cast<double>(cumulative));
  }
  AppendSample(out, name + "_bucket", labels + sep + "le=\"+Inf\"",
               static_cast<double>(cumulative));
  AppendSample(out, name + "_sum", labels,
               static_cast<double>(histogram.sum_micros()));
  AppendSample(out, name + "_count", labels,
               static_cast<double>(cumulative));
}

}  // namespace

std::string Registry::RenderPrometheus() const {
  sync::MutexLock lock(&mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.type) {
      case Type::kCounter:
        out += "counter\n";
        break;
      case Type::kGauge:
        out += "gauge\n";
        break;
      case Type::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const auto& child : family.children) {
      if (family.type == Type::kHistogram) {
        const LatencyHistogram* histogram =
            child->external ? child->external.get() : child->histogram.get();
        if (histogram != nullptr) {
          AppendHistogram(&out, name, child->labels, *histogram);
        }
        continue;
      }
      double value = 0.0;
      if (child->counter) {
        value = static_cast<double>(child->counter->value());
      } else if (child->read) {
        value = child->read();
      }
      AppendSample(&out, name, child->labels, value);
    }
  }
  return out;
}

std::size_t Registry::family_count() const {
  sync::MutexLock lock(&mu_);
  return families_.size();
}

std::shared_ptr<ResourceTracker> RegisterResourceTracker(Registry* registry) {
  auto tracker = std::make_shared<ResourceTracker>();
  registry->RegisterGauge(
      "dpcube_process_resident_memory_bytes", "",
      "Resident set size from /proc/self/statm.",
      [tracker] { return tracker->TakeSample().rss_bytes; });
  registry->RegisterGauge(
      "dpcube_process_virtual_memory_bytes", "",
      "Virtual memory size from /proc/self/statm.",
      [tracker] { return tracker->TakeSample().vsize_bytes; });
  registry->RegisterGauge(
      "dpcube_process_open_fds", "",
      "Open file descriptors in /proc/self/fd.",
      [tracker] { return tracker->TakeSample().open_fds; });
  registry->RegisterCallbackCounter(
      "dpcube_process_cpu_seconds_total", "",
      "User plus system CPU time from /proc/self/stat.",
      [tracker] { return tracker->TakeSample().cpu_seconds; });
  registry->RegisterGauge(
      "dpcube_process_uptime_seconds", "",
      "Seconds since the metrics subsystem started.",
      [tracker] { return tracker->TakeSample().uptime_seconds; });
  return tracker;
}

}  // namespace metrics
}  // namespace dpcube
