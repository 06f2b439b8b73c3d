// Copyright 2026 The dpcube Authors.
//
// Tests for the benchmark's own code: the statistics it reports, the
// thread CPU clock, the /metrics parser, span self time, and the answer
// comparator.

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/report.h"
#include "harness/scrape.h"
#include "harness/spans.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankCarriesItsSampleCount) {
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(static_cast<double>(201 - i));
  const Percentile p99 = PercentileOf(xs, 0.99);
  EXPECT_EQ(p99.value, 198.0);  // ceil(0.99 * 200) = rank 198.
  EXPECT_EQ(p99.samples, 200u);
  EXPECT_EQ(p99.beyond, 2u);
  const Percentile p50 = PercentileOf(xs, 0.50);
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.beyond, 100u);
  const Percentile empty = PercentileOf({}, 0.99);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(PercentileOf({7.0}, 0.99).value, 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(PercentileTest, WindowedPercentileIgnoresOneStalledWindow) {
  std::vector<double> xs(1000, 10.0);
  for (int i = 0; i < 200; ++i) xs[i] = 5000.0;  // The first window stalls.
  EXPECT_EQ(PercentileOf(xs, 0.99).value, 5000.0);
  EXPECT_EQ(WindowedPercentile(xs, 0.99, 5), 10.0);
  EXPECT_EQ(WindowedPercentile({1.0, 2.0, 3.0}, 0.5, 1), 2.0);
}

TEST(ThreadCpuTest, CountsWorkAndLeavesOutSleep) {
  const double start = ThreadCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(ThreadCpuSeconds() - start, 0.02);
  volatile double x = 1.0;
  const double busy = ThreadCpuSeconds();
  for (int i = 0; i < 20000000; ++i) x = x * 1.0000001 + 1e-9;
  EXPECT_GT(ThreadCpuSeconds() - busy, 0.0);
}

TEST(PoissonScheduleTest, MeanRateMatchesAndSeedRepeats) {
  const std::vector<double> a = PoissonSchedule(5000.0, 20.0, 42);
  // 100000 expected arrivals; the count's sd is ~316, so 1% is > 3 sd.
  EXPECT_NEAR(static_cast<double>(a.size()), 100000.0, 1000.0);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 20.0);
  EXPECT_EQ(a, PoissonSchedule(5000.0, 20.0, 42));
  EXPECT_NE(a, PoissonSchedule(5000.0, 20.0, 43));
  EXPECT_TRUE(PoissonSchedule(0.0, 1.0, 1).empty());
}

TEST(PrometheusTest, ParsesSumCountPairsAndLabels) {
  const std::string text =
      "# HELP dpcube_span_microseconds Request time by span\n"
      "# TYPE dpcube_span_microseconds histogram\n"
      "dpcube_span_microseconds_bucket{span=\"queue\",le=\"10\"} 3\n"
      "dpcube_span_microseconds_sum{span=\"queue\"} 104.5\n"
      "dpcube_span_microseconds_count{span=\"queue\"} 10\n"
      "dpcube_span_microseconds_sum{span=\"flush\"} 8\n"
      "dpcube_span_microseconds_count{span=\"flush\"} 0\n"
      "dpcube_wal_fsync_latency_microseconds_sum 744\n"
      "dpcube_wal_fsync_latency_microseconds_count 3\n"
      "dpcube_release_build_seconds{phase=\"total\",release=\"a b\"} 0.25\n"
      "garbage line without value\n";
  const Series series = ParsePrometheus(text);
  const SumCount queue =
      HistogramSumCount(series, "dpcube_span_microseconds", "span=\"queue\"");
  EXPECT_EQ(queue.sum, 104.5);
  EXPECT_EQ(queue.count, 10.0);
  EXPECT_DOUBLE_EQ(queue.Mean(), 10.45);
  EXPECT_EQ(HistogramSumCount(series, "dpcube_span_microseconds",
                              "span=\"flush\"").Mean(),
            0.0);  // No samples: mean 0, not NaN.
  EXPECT_EQ(HistogramSumCount(series, "dpcube_wal_fsync_latency_microseconds")
                .Mean(),
            248.0);
  EXPECT_EQ(SeriesValue(series,
                        "dpcube_release_build_seconds{phase=\"total\","
                        "release=\"a b\"}"),
            0.25);
  EXPECT_EQ(SeriesValue(series, "absent"), 0.0);
  const SumCount d = Delta(SumCount{150.0, 12.0}, queue);
  EXPECT_EQ(d.sum, 45.5);
  EXPECT_EQ(d.count, 2.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder spans(true);
  const std::uint64_t root = spans.Add("job", 0, 0, 1000);
  spans.Add("a", root, 100, 400);
  spans.Add("b", root, 300, 600);   // Overlaps a: union is 100..600.
  spans.Add("c", root, 900, 1200);  // Runs past its parent: clipped.
  const std::uint64_t other = spans.Add("job", 0, 2000, 2100);
  spans.Add("a", other, 2000, 2100);
  const auto self = SelfSeconds(spans.spans());
  EXPECT_NEAR(self.at("job"), 400e-9, 1e-15);  // 1000 - 500 - 100, + 0.
  EXPECT_NEAR(self.at("a"), 400e-9, 1e-15);    // 300 + 100, no children.
  EXPECT_NEAR(self.at("b"), 300e-9, 1e-15);
  EXPECT_NEAR(self.at("c"), 300e-9, 1e-15);

  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("x"), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(OracleTest, BinaryComparatorRejectsOneUlp) {
  dpcube::service::QueryResponse want;
  want.beta = 0x5;
  want.variance = 2.5;
  want.values = {1.0, 1234.5678, -0.0};
  dpcube::service::WireRecord got;
  got.code = dpcube::service::ErrorCode::kOk;
  got.has_values = true;
  got.mask = 0x5;
  got.variance = 2.5;
  got.values = want.values;
  std::string why;
  EXPECT_TRUE(MatchesBinary(got, want, &why)) << why;

  got.values[1] = std::nextafter(want.values[1],
                                 std::numeric_limits<double>::infinity());
  EXPECT_FALSE(MatchesBinary(got, want, &why));
  got.values[1] = want.values[1];
  got.values[2] = 0.0;  // +0 vs -0: equal as numbers, not as bits.
  EXPECT_FALSE(MatchesBinary(got, want, &why));
  got.values[2] = -0.0;
  got.mask = 0x6;
  EXPECT_FALSE(MatchesBinary(got, want, &why));
}

TEST(OracleTest, TextComparatorIgnoresOnlyTheHitFlag) {
  dpcube::service::QueryResponse want;
  want.beta = 0x3;
  want.variance = 15152.6;
  want.values = {1708.2849361952085};
  const std::string line = ExpectedTextLine(want);
  std::string why;
  EXPECT_TRUE(MatchesText(
      "OK query mask=0x3 var=15152.6 hit=1 n=1 values 1708.2849361952085\n",
      line, &why)) << why;
  // The last printed digit is the %.17g round trip: one ulp shows.
  EXPECT_FALSE(MatchesText(
      "OK query mask=0x3 var=15152.6 hit=0 n=1 values 1708.2849361952087",
      line, &why));
}

}  // namespace
}  // namespace perfbench
