// Copyright 2026 The dpcube Authors.
//
// Fuzz net for the data and release file codec (common/text_file.h
// behind data::ReadCsv/WriteCsv and engine::ReadReleaseCsv/
// WriteReleaseCsv): random round trips, byte-exact "%.17g" output,
// record boundaries on every offset around a read-chunk edge, a line
// longer than a chunk, and seeded mutations that must end in OK or an
// error status, never a crash.

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/text_file.h"
#include "data/dataset.h"
#include "engine/release_io.h"

namespace dpcube {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/dpcube_ingest_fuzz_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// A random schema of 1..5 attributes whose encoding fits in 63 bits.
data::Schema RandomSchema(Rng* rng) {
  static const std::uint32_t kCards[] = {1, 2, 3, 10, 255, 1000, 40000};
  std::vector<data::Attribute> attrs;
  const std::size_t width = 1 + rng->NextBounded(5);
  for (std::size_t a = 0; a < width; ++a) {
    attrs.push_back({"attr" + std::to_string(a),
                     kCards[rng->NextBounded(std::size(kCards))]});
  }
  return data::Schema(std::move(attrs));
}

data::Dataset RandomDataset(const data::Schema& schema, std::size_t rows,
                            Rng* rng) {
  data::Dataset ds(schema);
  std::vector<std::uint32_t> row(schema.num_attributes());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t a = 0; a < row.size(); ++a) {
      row[a] = static_cast<std::uint32_t>(
          rng->NextBounded(schema.attribute(a).cardinality));
    }
    EXPECT_TRUE(ds.AppendRow(row).ok());
  }
  return ds;
}

void ExpectSameDataset(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t c = 0; c < a.schema().num_attributes(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c)) << "row " << r << " attr " << c;
    }
  }
}

TEST(IngestFuzzTest, RandomDatasetsRoundTrip) {
  Rng rng(20261019);
  const std::string path = TempPath("dataset.csv");
  for (int trial = 0; trial < 40; ++trial) {
    const data::Schema schema = RandomSchema(&rng);
    const data::Dataset ds =
        RandomDataset(schema, rng.NextBounded(3000), &rng);
    ASSERT_TRUE(data::WriteCsv(ds, path).ok());
    auto back = data::ReadCsv(schema, path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameDataset(ds, back.value());
  }
  // The largest value a uint32 cardinality admits.
  const data::Schema wide({{"w", 4294967295u}});
  data::Dataset ds(wide);
  ASSERT_TRUE(ds.AppendRow({4294967294u}).ok());
  ASSERT_TRUE(ds.AppendRow({0}).ok());
  ASSERT_TRUE(data::WriteCsv(ds, path).ok());
  auto back = data::ReadCsv(wide, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameDataset(ds, back.value());
  std::remove(path.c_str());
}

// Doubles that stress the text form: signed zero, subnormals, the range
// ends, infinities, and values whose "%.17g" needs all 17 digits.
std::vector<double> EdgeDoubles() {
  return {-0.0,    0.0,      4.9406564584124654e-324, -4.9e-324,
          2.2250738585072009e-308, DBL_MIN, DBL_MAX,  -DBL_MAX,
          1e-300,  -1e-300,  1.0 / 3.0,               -2.0 / 3.0,
          0.1,     1e21,     123456789012345678.0,     HUGE_VAL,
          -HUGE_VAL, 1.0,    -1.0,                     5e-324 * 3};
}

// A random non-NaN double: raw bit patterns cover every exponent.
double RandomDouble(Rng* rng) {
  for (;;) {
    const std::uint64_t bits = rng->NextUint64();
    double v;
    std::memcpy(&v, &bits, 8);
    if (!std::isnan(v)) return v;
  }
}

// The release file as the "%.17g" snprintf reference renders it.
std::string ReferenceRelease(
    int d, const std::vector<marginal::MarginalTable>& marginals,
    const linalg::Vector& variances) {
  char buf[64];
  std::string out = "# dpcube-release d=" + std::to_string(d) + "\n";
  if (!variances.empty()) {
    out += "# dpcube-cell-variances";
    for (const double v : variances) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out += buf;
    }
    out += "\n";
  }
  out += "mask,cell,value\n";
  for (const marginal::MarginalTable& m : marginals) {
    for (std::size_t g = 0; g < m.num_cells(); ++g) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64 ",%zu,%.17g\n",
                    static_cast<std::uint64_t>(m.alpha()), g, m.value(g));
      out += buf;
    }
  }
  return out;
}

void ExpectSameRelease(const std::vector<marginal::MarginalTable>& want,
                       const linalg::Vector& want_variances,
                       const engine::LoadedRelease& got) {
  ASSERT_EQ(got.marginals.size(), want.size());
  ASSERT_EQ(got.workload.num_marginals(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.marginals[i].alpha(), want[i].alpha());
    ASSERT_EQ(got.workload.mask(i), want[i].alpha());
    ASSERT_EQ(got.marginals[i].num_cells(), want[i].num_cells());
    for (std::size_t g = 0; g < want[i].num_cells(); ++g) {
      ASSERT_TRUE(SameBits(got.marginals[i].value(g), want[i].value(g)))
          << "marginal " << i << " cell " << g;
    }
  }
  ASSERT_EQ(got.cell_variances.size(), want_variances.size());
  for (std::size_t i = 0; i < want_variances.size(); ++i) {
    ASSERT_TRUE(SameBits(got.cell_variances[i], want_variances[i]));
  }
}

// Writes the release, checks its bytes against the reference and reads
// it back bit-identical.
void RoundTripRelease(const std::string& path, int d,
                      const std::vector<marginal::MarginalTable>& marginals,
                      const linalg::Vector& variances) {
  ASSERT_TRUE(engine::WriteReleaseCsv(path, marginals, variances).ok());
  ASSERT_EQ(ReadFile(path), ReferenceRelease(d, marginals, variances));
  auto loaded = engine::ReadReleaseCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().workload.d(), d);
  ExpectSameRelease(marginals, variances, loaded.value());
}

TEST(IngestFuzzTest, RandomReleasesRoundTripBitExact) {
  Rng rng(7);
  const std::vector<double> edges = EdgeDoubles();
  const std::string path = TempPath("release.csv");
  for (int trial = 0; trial < 30; ++trial) {
    const int d = 1 + static_cast<int>(rng.NextBounded(12));
    std::vector<marginal::MarginalTable> marginals;
    linalg::Vector variances;
    const bool with_variances = rng.NextBernoulli(0.5);
    for (bits::Mask mask = 0; mask < (bits::Mask{1} << d); ++mask) {
      // Mask 0 always, so the file's d is the marginals' d.
      if (bits::Popcount(mask) > 4 ||
          (mask != 0 && !rng.NextBernoulli(0.3))) {
        continue;
      }
      marginal::MarginalTable t(mask, d);
      for (std::size_t g = 0; g < t.num_cells(); ++g) {
        t.value(g) = rng.NextBernoulli(0.3)
                         ? edges[rng.NextBounded(edges.size())]
                         : RandomDouble(&rng);
      }
      marginals.push_back(std::move(t));
      if (with_variances) variances.push_back(RandomDouble(&rng));
    }
    RoundTripRelease(path, d, marginals, variances);
  }
  // Every edge value, as a cell and as a variance, at the widest domain.
  marginal::MarginalTable t(bits::Mask{1} << 62 | 0x7, 63);
  for (std::size_t g = 0; g < t.num_cells(); ++g) t.value(g) = edges[g];
  RoundTripRelease(path, 63, {t}, {edges[0]});
  std::remove(path.c_str());
}

// A header row of `header_bytes` (newline included) then single-digit
// rows, with one wider row so that the newline of some record lands on
// file offset `newline_at`. `crlf` ends every line in "\r\n".
std::string EdgeCsv(std::size_t header_bytes, std::size_t newline_at,
                    bool crlf, std::vector<std::uint32_t>* values) {
  const std::string eol = crlf ? "\r\n" : "\n";
  std::string out(header_bytes - eol.size(), 'h');
  out += eol;
  values->clear();
  // Fill with "7" rows while more than one wider row's worth remains.
  while (newline_at - out.size() > 2 * (1 + eol.size())) {
    out += "7" + eol;
    values->push_back(7);
  }
  // One row of zeros ending in 5, sized to put its '\n' on newline_at.
  const std::size_t digits = newline_at + 1 - eol.size() - out.size();
  out += std::string(digits - 1, '0') + "5" + eol;
  values->push_back(5);
  out += "3" + eol + "9";
  values->push_back(3);
  values->push_back(9);
  return out;
}

TEST(IngestFuzzTest, RecordBoundariesAroundTheChunkEdge) {
  const data::Schema schema({{"v", 10}});
  const std::string path = TempPath("edge.csv");
  std::vector<std::uint32_t> values;
  for (const bool crlf : {false, true}) {
    for (long delta = -3; delta <= 3; ++delta) {
      // Short header; then a header longer than a whole chunk, so the
      // reader must grow before it reaches the edge.
      for (const std::size_t header : {std::size_t{2} + crlf,
                                       3 * text::kChunkBytes + 1}) {
        const std::size_t newline_at =
            (header < text::kChunkBytes ? 1 : 4) * text::kChunkBytes - 1 +
            static_cast<std::size_t>(delta);
        const std::string content =
            EdgeCsv(header, newline_at, crlf, &values);
        ASSERT_EQ(content[newline_at], '\n');
        WriteFile(path, content);
        auto back = data::ReadCsv(schema, path);
        ASSERT_TRUE(back.ok()) << "crlf=" << crlf << " delta=" << delta
                               << ": " << back.status().ToString();
        ASSERT_EQ(back.value().num_rows(), values.size());
        for (std::size_t r = 0; r < values.size(); ++r) {
          ASSERT_EQ(back.value().At(r, 0), values[r]) << "row " << r;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IngestFuzzTest, VarianceLineLongerThanAChunk) {
  // Every mask of weight <= 2 over 63 bits plus the weight-3 masks of the
  // low 18 bits: 2,833 marginals, each with a 24-byte variance.
  std::vector<marginal::MarginalTable> marginals;
  linalg::Vector variances;
  Rng rng(11);
  auto add = [&](bits::Mask mask) {
    marginal::MarginalTable t(mask, 63);
    for (std::size_t g = 0; g < t.num_cells(); ++g) {
      t.value(g) = rng.NextLaplace(3.0);
    }
    marginals.push_back(std::move(t));
    variances.push_back(-1.2345678901234567e-300 * (1.0 + rng.NextDouble()));
  };
  add(0);
  for (int i = 0; i < 63; ++i) {
    add(bits::Mask{1} << i);
    for (int j = i + 1; j < 63; ++j) add(bits::Mask{1} << i | bits::Mask{1} << j);
  }
  for (int i = 0; i < 18; ++i) {
    for (int j = i + 1; j < 18; ++j) {
      for (int k = j + 1; k < 18; ++k) {
        add(bits::Mask{1} << i | bits::Mask{1} << j | bits::Mask{1} << k);
      }
    }
  }
  const std::string path = TempPath("long_line.csv");
  RoundTripRelease(path, 63, marginals, variances);
  const std::string content = ReadFile(path);
  ASSERT_GT(content.find("\nmask,cell,value"), text::kChunkBytes);
  std::remove(path.c_str());
}

// Seeded corruption of `valid`: flipped bytes, truncation, inserted '\r'
// or digits.
std::string Mutate(const std::string& valid, Rng* rng) {
  std::string out = valid;
  const int edits = 1 + static_cast<int>(rng->NextBounded(3));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t at = rng->NextBounded(out.size());
    switch (rng->NextBounded(4)) {
      case 0:
        out[at] = static_cast<char>(out[at] ^ (1 << rng->NextBounded(8)));
        break;
      case 1:
        out.resize(at);
        break;
      case 2:
        out.insert(at, 1, '\r');
        break;
      default:
        out.insert(at, 1, static_cast<char>('0' + rng->NextBounded(10)));
        break;
    }
  }
  return out;
}

TEST(IngestFuzzTest, MutatedFilesEndInOkOrError) {
  Rng rng(1009);
  const data::Schema schema({{"a", 3}, {"b", 2}, {"c", 1000}});
  const std::string data_path = TempPath("valid.csv");
  ASSERT_TRUE(data::WriteCsv(RandomDataset(schema, 40, &rng), data_path).ok());
  const std::string valid_data = ReadFile(data_path);

  const std::string release_path = TempPath("valid_release.csv");
  std::vector<marginal::MarginalTable> marginals;
  linalg::Vector variances;
  for (const bits::Mask mask : {bits::Mask{0}, bits::Mask{0x3},
                                bits::Mask{0x14}, bits::Mask{0x7}}) {
    marginal::MarginalTable t(mask, 5);
    for (std::size_t g = 0; g < t.num_cells(); ++g) {
      t.value(g) = rng.NextLaplace(2.0);
    }
    marginals.push_back(std::move(t));
    variances.push_back(8.0);
  }
  ASSERT_TRUE(
      engine::WriteReleaseCsv(release_path, marginals, variances).ok());
  const std::string valid_release = ReadFile(release_path);

  const std::string path = TempPath("mutant.csv");
  int data_ok = 0;
  int release_ok = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    WriteFile(path, Mutate(valid_data, &rng));
    auto ds = data::ReadCsv(schema, path);
    if (ds.ok()) {
      ++data_ok;
      for (std::size_t r = 0; r < ds.value().num_rows(); ++r) {
        for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
          ASSERT_LT(ds.value().At(r, a), schema.attribute(a).cardinality);
        }
      }
    } else {
      EXPECT_FALSE(ds.status().message().empty());
    }
    WriteFile(path, Mutate(valid_release, &rng));
    auto rel = engine::ReadReleaseCsv(path);
    if (rel.ok()) {
      ++release_ok;
      const int d = rel.value().workload.d();
      ASSERT_LE(d, 63);
      for (const marginal::MarginalTable& m : rel.value().marginals) {
        ASSERT_EQ(m.alpha() >> d, 0u);
      }
    } else {
      EXPECT_FALSE(rel.status().message().empty());
    }
  }
  // Both outcomes occur: the mutations are neither all fatal nor all
  // harmless.
  EXPECT_GT(data_ok, 0);
  EXPECT_LT(data_ok, 1500);
  EXPECT_GT(release_ok, 0);
  EXPECT_LT(release_ok, 1500);
  std::remove(path.c_str());
  std::remove(data_path.c_str());
  std::remove(release_path.c_str());
}

}  // namespace
}  // namespace dpcube
