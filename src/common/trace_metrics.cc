// Copyright 2026 The dpcube Authors.

#include "common/trace_metrics.h"

namespace dpcube {
namespace trace {

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

ServingTraceMetrics::ServingTraceMetrics(
    metrics::Registry* registry, const std::vector<std::string>& verbs,
    std::size_t max_releases)
    : frames_received(registry->GetCounter(
          "dpcube_frames_received_total", "",
          "Protocol frames received, including shed ones.")),
      frames_executed(registry->GetCounter(
          "dpcube_frames_executed_total", "",
          "Protocol frames that reached a session.")),
      responses(registry->GetCounter("dpcube_responses_total", "",
                                     "Response frames enqueued for write.")),
      registry_(registry),
      max_releases_(max_releases) {
  for (int i = 0; i < kNumSpans; ++i) {
    const Span span = static_cast<Span>(i);
    spans_[static_cast<std::size_t>(i)] = registry_->GetHistogram(
        "dpcube_span_microseconds",
        std::string("span=\"") + SpanName(span) + "\"",
        "Request time by pipeline span: decode, admit, queue, compute, "
        "encode, flush.");
  }
  for (const std::string& verb : verbs) {
    verbs_.emplace_back(
        verb, registry_->GetHistogram(
                  "dpcube_request_latency_microseconds",
                  "verb=\"" + EscapeLabelValue(verb) + "\"",
                  "Frame latency from decode to last byte flushed (the "
                  "trace's total_us), by the frame's first verb."));
  }
}

void ServingTraceMetrics::Record(const RequestTrace& trace) const {
  for (int i = 0; i < kNumSpans; ++i) {
    const Span span = static_cast<Span>(i);
    if (trace.has_span(span)) {
      spans_[static_cast<std::size_t>(i)]->Record(
          static_cast<double>(trace.span(span)) * 1e-6);
    }
  }
  for (const auto& verb : verbs_) {
    if (verb.first == trace.verb) {
      verb.second->Record(static_cast<double>(trace.total_micros) * 1e-6);
      break;
    }
  }
  // The same rule the session counts dpcube_release_queries_total by:
  // unknown releases never mint series (the name came off the wire) and
  // quota denials never reached the release. Batch frames record their
  // groups' BatchTiming instead (see ServeSession::HandleBatch).
  if (trace.verb == "query" && !trace.release.empty() &&
      trace.outcome != "NotFound" && trace.outcome != "QuotaExceeded") {
    Release(trace.release)
        .latency->Record(
            static_cast<double>(trace.span(Span::kCompute)) * 1e-6);
  }
}

std::array<std::uint64_t, metrics::LatencyHistogram::kBuckets>
ServingTraceMetrics::RequestLatencyBuckets() const {
  std::array<std::uint64_t, metrics::LatencyHistogram::kBuckets> sum{};
  for (const auto& verb : verbs_) {
    const auto buckets = verb.second->SnapshotBuckets();
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += buckets[i];
  }
  return sum;
}

ServingTraceMetrics::PerRelease ServingTraceMetrics::ResolveLocked(
    const std::string& release) const {
  PerRelease series;
  const std::string labels =
      "release=\"" + EscapeLabelValue(release) + "\"";
  series.queries = registry_->GetCounter(
      "dpcube_release_queries_total", labels,
      "Queries answered, by release (capped cardinality; overflow lands "
      "on release=\"__other__\").");
  series.latency = registry_->GetHistogram(
      "dpcube_release_query_latency_microseconds", labels,
      "Compute span of each query frame (and each batch group), by "
      "release.");
  return series;
}

ServingTraceMetrics::PerRelease ServingTraceMetrics::Release(
    const std::string& release) const {
  {
    // Fast path: every query after the first for a release takes a
    // shared lock only — pool workers resolving the same hot release
    // never serialise on the map.
    sync::ReaderLock lock(&mu_);
    auto it = releases_.find(release);
    if (it != releases_.end()) return it->second;
  }
  sync::WriterLock lock(&mu_);
  auto it = releases_.find(release);
  if (it != releases_.end()) return it->second;
  if (releases_.size() >= max_releases_) {
    auto other = releases_.find("__other__");
    if (other != releases_.end()) return other->second;
    return releases_.emplace("__other__", ResolveLocked("__other__"))
        .first->second;
  }
  return releases_.emplace(release, ResolveLocked(release)).first->second;
}

}  // namespace trace
}  // namespace dpcube
