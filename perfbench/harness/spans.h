// Copyright 2026 The dpcube Authors.
//
// The traced run's span store. Spans are recorded only by the benchmark,
// around its calls into each layer's public functions; they are kept in
// memory (one root id per release job or served request, every other
// span with a parent) and written out once the run ends.

#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/report.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  // Disabled recorders (the untraced run) drop every call, so the timed
  // code path is the same in both runs apart from the recording itself.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  static std::int64_t NowNs();

  // Opens a span now; returns its id (0 when disabled).
  std::uint64_t Begin(const std::string& name, std::uint64_t parent = 0);
  void End(std::uint64_t id);
  // Records a span whose interval was measured elsewhere.
  std::uint64_t Add(const std::string& name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;  // spans_[id - 1].id == id.
};

// Self time per span name, in seconds: each span's duration minus the
// part of it covered by the union of its children's intervals.
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
