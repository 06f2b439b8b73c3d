// Copyright 2026 The dpcube Authors.

#include "engine/release_io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "engine/release_engine.h"
#include "strategy/query_strategy.h"

namespace dpcube {
namespace engine {
namespace {

std::vector<marginal::MarginalTable> SampleRelease(
    const marginal::Workload& w, Rng* rng) {
  std::vector<marginal::MarginalTable> out;
  for (std::size_t i = 0; i < w.num_marginals(); ++i) {
    marginal::MarginalTable t(w.mask(i), w.d());
    for (std::size_t g = 0; g < t.num_cells(); ++g) {
      t.value(g) = rng->NextGaussian(100.0, 30.0);
    }
    out.push_back(std::move(t));
  }
  return out;
}

TEST(ReleaseIoTest, WriteReadRoundTrip) {
  Rng rng(1);
  const marginal::Workload w(6, {bits::Mask{0b11}, bits::Mask{0b110000},
                                 bits::Mask{0b001100}});
  const auto release = SampleRelease(w, &rng);
  const std::string path = ::testing::TempDir() + "/dpcube_release.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, release).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().workload.d(), 6);
  ASSERT_EQ(loaded.value().marginals.size(), release.size());
  for (std::size_t i = 0; i < release.size(); ++i) {
    EXPECT_EQ(loaded.value().marginals[i].alpha(), release[i].alpha());
    for (std::size_t g = 0; g < release[i].num_cells(); ++g) {
      EXPECT_DOUBLE_EQ(loaded.value().marginals[i].value(g),
                       release[i].value(g));
    }
  }
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, ValuesSurviveExactly) {
  // %.17g round-trips doubles bit-exactly.
  marginal::MarginalTable t(bits::Mask{0b1}, 3);
  t.value(0) = 1.0 / 3.0;
  t.value(1) = -2.7182818284590452;
  const std::string path = ::testing::TempDir() + "/dpcube_exact.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, {t}).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().marginals[0].value(0), 1.0 / 3.0);
  EXPECT_EQ(loaded.value().marginals[0].value(1), -2.7182818284590452);
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, EndToEndWithEngine) {
  Rng rng(2);
  const data::Dataset ds = data::MakeProductBernoulli(6, 0.4, 300, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(ds);
  const marginal::Workload w =
      marginal::WorkloadQk(data::BinarySchema(6), 2);
  strategy::QueryStrategy strat(w);
  ReleaseOptions options;
  options.params.epsilon = 1.0;
  auto outcome = ReleaseWorkload(strat, counts, options, &rng);
  ASSERT_TRUE(outcome.ok());
  const std::string path = ::testing::TempDir() + "/dpcube_e2e.csv";
  ASSERT_TRUE(WriteReleaseCsv(path, outcome.value().marginals).ok());
  auto loaded = ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().workload.num_marginals(), w.num_marginals());
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, ReadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/dpcube_bad_release.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a release\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadReleaseCsv(path).ok());
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# dpcube-release d=3\nmask,cell,value\n1,99,5.0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadReleaseCsv(path).ok());  // Cell out of range.
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# dpcube-release d=3\nmask,cell,value\n1,x,5.0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadReleaseCsv(path).ok());  // Non-numeric.
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadReleaseCsv("/nonexistent/release.csv").ok());
}

TEST(ReleaseIoTest, WriteRejectsMixedDimensionality) {
  marginal::MarginalTable a(bits::Mask{0b1}, 3);
  marginal::MarginalTable b(bits::Mask{0b1}, 4);
  const std::string path = ::testing::TempDir() + "/dpcube_mixed.csv";
  EXPECT_FALSE(WriteReleaseCsv(path, {a, b}).ok());
}

// Writes `content` to a temp file and reads it back as a release.
Result<LoadedRelease> ReadContent(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/dpcube_rule.csv";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  auto r = ReadReleaseCsv(path);
  std::remove(path.c_str());
  return r;
}

// One malformed release per validation rule; each must fail with the
// given text in its message.
TEST(ReleaseIoTest, ReadEnforcesEveryReleaseRule) {
  const std::string kHead = "mask,cell,value\n";
  const struct {
    const char* rule;
    std::string content;
    const char* expect;
  } kCases[] = {
      {"d <= 63", "# dpcube-release d=64\n" + kHead + "0,0,1\n",
       "bad dimensionality"},
      {"d >= 0", "# dpcube-release d=-1\n" + kHead + "0,0,1\n",
       "bad dimensionality"},
      {"d is an integer", "# dpcube-release d=3x\n" + kHead + "0,0,1\n",
       "bad dimensionality"},
      {"all-ones mask outside d=3",
       "# dpcube-release d=3\n" + kHead + "18446744073709551615,0,1\n",
       "line 3: mask 18446744073709551615 outside the d=3 domain"},
      {"mask 0x28 outside d=3",
       "# dpcube-release d=3\n" + kHead + "40,0,1\n40,1,1\n40,2,1\n40,3,1\n",
       "line 3: mask 40 outside the d=3 domain"},
      {"every cell present",
       "# dpcube-release d=3\n" + kHead + "3,0,1\n3,1,2\n1,0,1\n1,1,1\n",
       "line 3: marginal 3 has 2 records for its 4 cells"},
      {"no cell twice",
       "# dpcube-release d=3\n" + kHead + "1,0,1\n1,0,2\n",
       "line 3: marginal 1 repeats cell 0"},
      {"no extra cell",
       "# dpcube-release d=3\n" + kHead + "1,0,1\n1,1,2\n1,1,3\n",
       "marginal 1 has 3 records for its 2 cells"},
      {"masks contiguous",
       "# dpcube-release d=3\n" + kHead +
           "1,0,1\n1,1,1\n2,0,1\n2,1,1\n1,0,1\n1,1,1\n",
       "line 7: records of mask 1 are not contiguous"},
      {"variance tokens parse",
       "# dpcube-release d=3\n# dpcube-cell-variances 1.5 x2\n" + kHead +
           "1,0,1\n1,1,1\n",
       "line 2: bad cell variance 'x2'"},
      {"value has no trailing byte",
       "# dpcube-release d=3\n" + kHead + "1,0,1.5x\n1,1,1\n",
       "line 3: non-numeric field"},
      {"mask has no sign", "# dpcube-release d=3\n" + kHead + "+1,0,1\n",
       "line 3: non-numeric field"},
      {"three fields", "# dpcube-release d=3\n" + kHead + "1,0\n",
       "line 3: malformed"},
  };
  for (const auto& c : kCases) {
    auto r = ReadContent(c.content);
    ASSERT_FALSE(r.ok()) << c.rule;
    EXPECT_NE(r.status().message().find(c.expect), std::string::npos)
        << c.rule << ": " << r.status().ToString();
  }
}

TEST(ReleaseIoTest, ReadAcceptsCrlfAndOutOfOrderCells) {
  auto r = ReadContent(
      "# dpcube-release d=2\r\n# dpcube-cell-variances 0.5  2\r\n"
      "mask,cell,value\r\n2,1,7\r\n2,0,-1e-300\r\n\r\n0,0,3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().marginals.size(), 2u);
  EXPECT_EQ(r.value().marginals[0].value(0), -1e-300);
  EXPECT_EQ(r.value().marginals[0].value(1), 7.0);
  EXPECT_EQ(r.value().marginals[1].value(0), 3.0);
  EXPECT_EQ(r.value().cell_variances, (linalg::Vector{0.5, 2.0}));
}

TEST(ReleaseIoTest, WriteReportsFullDevice) {
  FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  marginal::MarginalTable t(bits::Mask{0b1}, 3);
  const Status st = WriteReleaseCsv("/dev/full", {t});
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("/dev/full"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace dpcube
