// Copyright 2026 The dpcube Authors.

#include "harness/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::Begin(const std::string& name,
                                  std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::int64_t now = NowNs();
  return Add(name, parent, now, now);
}

void SpanRecorder::End(std::uint64_t id) {
  if (!enabled_ || id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = NowNs();
}

std::uint64_t SpanRecorder::Add(const std::string& name, std::uint64_t parent,
                                std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = s.start_ns;  // Everything before is counted.
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::int64_t duration = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    self[s.name] += static_cast<double>(std::max<std::int64_t>(0, duration - covered)) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
