// Copyright 2026 The dpcube Authors.
//
// Reading the server from outside: a one-shot HTTP GET against its
// observability port and a parser for the Prometheus text it serves.

#ifndef PERFBENCH_HARNESS_SCRAPE_H_
#define PERFBENCH_HARNESS_SCRAPE_H_

#include <map>
#include <string>

namespace perfbench {

// Series key ("name" or "name{labels}", exactly as exposed) -> value.
// Comment lines and unparsable lines are skipped.
using Series = std::map<std::string, double>;
Series ParsePrometheus(const std::string& text);

// Value of one series, 0 when absent.
double SeriesValue(const Series& series, const std::string& key);

struct SumCount {
  double sum = 0.0;
  double count = 0.0;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
};
// A histogram's `_sum`/`_count` pair; `labels` is the text between the
// braces (empty for an unlabelled family).
SumCount HistogramSumCount(const Series& series, const std::string& family,
                           const std::string& labels = "");
// after - before, field by field (the counters only grow).
SumCount Delta(const SumCount& after, const SumCount& before);

// GET http://127.0.0.1:port/path; returns false on any failure. The body
// is everything after the header block.
bool HttpGet(int port, const std::string& path, std::string* body,
             double timeout_s = 5.0);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SCRAPE_H_
