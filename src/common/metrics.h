// Copyright 2026 The dpcube Authors.
//
// Always-on serving metrics: a process-local registry of named counters,
// callback-backed gauges, and log2-bucketed latency histograms, rendered
// on demand as Prometheus text exposition (the /metrics endpoint) and
// snapshotted by the in-band STATS verb — one source of truth for both.
//
// Design constraints, in order:
//   * the hot path (one request) must cost at most a few relaxed atomic
//     adds — registration resolves names to stable pointers ONCE, so no
//     map lookup or lock is ever taken per sample;
//   * rendering may lock (it walks the registry under a mutex), because
//     a scrape happens a few times a minute, not a million times a
//     second;
//   * collaborators that already own their counters (the
//     AdmissionController, MarginalCache, ThreadPool) register
//     callback-backed views instead of duplicating state, so the
//     exported numbers can never drift from the STATS verb's.
//
// The registry is deliberately NOT a process-wide singleton: the serving
// stack creates one per SocketListener and threads it through, so tests
// can run many servers in one process without metric cross-talk.

#ifndef DPCUBE_COMMON_METRICS_H_
#define DPCUBE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace dpcube {
namespace metrics {

/// Monotonic event counter. One relaxed atomic add per Increment.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Thread-safe log2-bucketed latency histogram. Bucket i counts samples
/// in [2^i, 2^(i+1)) microseconds (bucket 0 also absorbs sub-microsecond
/// samples; the last bucket absorbs everything above 2^30 us ~ 18 min).
/// One relaxed add per Record; quantiles are reconstructed from bucket
/// counts at read time.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 31;

  void Record(double seconds);

  std::uint64_t count() const;

  /// Total of all recorded samples in microseconds (each sample rounded
  /// to the nearest microsecond), for the exposition's `_sum` series.
  std::uint64_t sum_micros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }

  /// Approximate p-quantile (p clamped to [0, 1]) in microseconds,
  /// reconstructed from the bucket counts. 0 when empty. Edge behavior
  /// is pinned (and regression-tested):
  ///   * p == 0 returns the LOWER edge of the first occupied bucket
  ///     (0 for bucket 0, which absorbs sub-microsecond samples);
  ///   * p == 1 returns the UPPER edge of the last occupied bucket —
  ///     an upper bound on the true maximum, never an interpolation;
  ///   * a quantile landing in the saturated top bucket returns that
  ///     bucket's LOWER edge (2^30 us): the bucket is unbounded above,
  ///     so its value is a certain lower bound, not a made-up midpoint
  ///     that would silently misreport multi-hour outliers;
  ///   * interior quantiles return the geometric midpoint of their
  ///     bucket, the standard log-bucket estimator.
  double QuantileMicros(double p) const {
    return BucketQuantileMicros(SnapshotBuckets(), p);
  }

  /// The same estimator over raw bucket counts, e.g. a bucket-wise sum
  /// of several histograms.
  static double BucketQuantileMicros(
      const std::array<std::uint64_t, kBuckets>& buckets, double p);

  /// Relaxed snapshot of the raw bucket counts (index i covers
  /// [BucketLowerEdgeMicros(i), BucketUpperEdgeMicros(i))).
  std::array<std::uint64_t, kBuckets> SnapshotBuckets() const;

  /// Bucket edges in microseconds. Bucket 0's lower edge is 0 (it
  /// absorbs sub-microsecond samples); the top bucket's upper edge is
  /// reported as 2^31 but the bucket is unbounded in practice.
  static double BucketLowerEdgeMicros(int i);
  static double BucketUpperEdgeMicros(int i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_micros_{0};
};

/// Samples process resource usage from /proc/self (Linux). On platforms
/// or sandboxes where /proc is unreadable every field reports 0 — the
/// gauges still exist, they just flatline, which a monitor can alert on.
class ResourceTracker {
 public:
  struct Sample {
    double rss_bytes = 0.0;        ///< Resident set size.
    double vsize_bytes = 0.0;      ///< Virtual memory size.
    double open_fds = 0.0;         ///< Open descriptors in /proc/self/fd.
    double cpu_seconds = 0.0;      ///< utime + stime since process start.
    double uptime_seconds = 0.0;   ///< Since this tracker's construction.
  };

  ResourceTracker();

  Sample TakeSample() const;

 private:
  std::chrono::steady_clock::time_point start_;
  double ticks_per_second_ = 100.0;
  long page_bytes_ = 4096;
};

/// Named metric registry. Families are created on first touch; a second
/// registration of the same (family, labels) pair returns the SAME
/// object, so many sessions can share per-verb counters without
/// coordination. A family's type is fixed by its first registration;
/// a mismatched re-registration returns a detached sink object that is
/// never rendered (callers cannot crash the server with a name clash,
/// but the clash is visible in tests via RenderPrometheus validity).
///
/// `labels` is the raw Prometheus label body without braces, e.g.
/// `verb="query"` — empty for an unlabelled series.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registry-owned counter for (family, labels); help is recorded on
  /// first touch.
  Counter* GetCounter(const std::string& family, const std::string& labels,
                      const std::string& help);

  /// Registry-owned histogram for (family, labels).
  LatencyHistogram* GetHistogram(const std::string& family,
                                 const std::string& labels,
                                 const std::string& help);

  /// Callback-backed gauge: `read` runs at render time on the rendering
  /// thread, so it must be thread-safe and cheap. The callback (and
  /// anything it captures, e.g. shared_ptrs to collaborators) lives as
  /// long as the registry.
  void RegisterGauge(const std::string& family, const std::string& labels,
                     const std::string& help, std::function<double()> read);

  /// Callback-backed counter for collaborators that already own a
  /// monotonic count (cache hits, shed requests): same mechanics as a
  /// gauge but rendered with `# TYPE ... counter`.
  void RegisterCallbackCounter(const std::string& family,
                               const std::string& labels,
                               const std::string& help,
                               std::function<double()> read);

  /// Externally-owned histogram (e.g. DurableState's). `keepalive`
  /// guards the histogram's lifetime: pass an aliasing shared_ptr to the
  /// owning object.
  void RegisterExternalHistogram(
      const std::string& family, const std::string& labels,
      const std::string& help,
      std::shared_ptr<const LatencyHistogram> histogram);

  /// Prometheus text exposition (format 0.0.4): every family gets one
  /// # HELP and one # TYPE line, families render in name order, children
  /// in registration order. Histograms render cumulative `_bucket{le=}`
  /// series plus `_sum` and `_count`.
  std::string RenderPrometheus() const;

  /// Number of distinct metric families registered so far.
  std::size_t family_count() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Child {
    std::string labels;
    std::unique_ptr<Counter> counter;                 // owned counter
    std::unique_ptr<LatencyHistogram> histogram;      // owned histogram
    std::shared_ptr<const LatencyHistogram> external; // external histogram
    std::function<double()> read;                     // gauge / cb counter
  };
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::vector<std::unique_ptr<Child>> children;
  };

  /// Returns the family, creating it with `type` if new; nullptr on a
  /// type mismatch.
  Family* FamilyLocked(const std::string& name, Type type,
                       const std::string& help) REQUIRES(mu_);
  /// Returns the child for `labels`, creating it if new.
  Child* ChildLocked(Family* family, const std::string& labels)
      REQUIRES(mu_);

  mutable sync::Mutex mu_;
  std::map<std::string, Family> families_ GUARDED_BY(mu_);
  // Sinks handed out on type mismatches; never rendered.
  std::vector<std::unique_ptr<Counter>> sink_counters_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<LatencyHistogram>> sink_histograms_
      GUARDED_BY(mu_);
};

/// Registers the ResourceTracker's gauges (RSS, vsize, fd count, CPU
/// seconds, uptime) into `registry` under dpcube_process_*. The tracker
/// is owned by the returned shared_ptr, which the registered callbacks
/// keep alive.
std::shared_ptr<ResourceTracker> RegisterResourceTracker(Registry* registry);

}  // namespace metrics
}  // namespace dpcube

#endif  // DPCUBE_COMMON_METRICS_H_
