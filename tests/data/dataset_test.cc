// Copyright 2026 The dpcube Authors.

#include "data/dataset.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace dpcube {
namespace data {
namespace {

Schema TestSchema() { return Schema({{"a", 3}, {"b", 2}, {"c", 5}}); }

TEST(DatasetTest, AppendAndAccess) {
  Dataset ds(TestSchema());
  ASSERT_TRUE(ds.AppendRow({2, 1, 4}).ok());
  ASSERT_TRUE(ds.AppendRow({0, 0, 0}).ok());
  EXPECT_EQ(ds.num_rows(), 2u);
  EXPECT_EQ(ds.At(0, 2), 4u);
  EXPECT_EQ(ds.At(1, 0), 0u);
}

TEST(DatasetTest, AppendRejectsBadRows) {
  Dataset ds(TestSchema());
  EXPECT_FALSE(ds.AppendRow({1, 1}).ok());        // Too narrow.
  EXPECT_FALSE(ds.AppendRow({3, 0, 0}).ok());     // a out of range.
  EXPECT_FALSE(ds.AppendRow({0, 2, 0}).ok());     // b out of range.
  EXPECT_EQ(ds.num_rows(), 0u);
}

TEST(DatasetTest, EncodeRowPacksAtOffsets) {
  // a: 2 bits at offset 0; b: 1 bit at offset 2; c: 3 bits at offset 3.
  Dataset ds(TestSchema());
  ASSERT_TRUE(ds.AppendRow({2, 1, 4}).ok());
  EXPECT_EQ(ds.EncodeRow(0), (4u << 3) | (1u << 2) | 2u);
}

TEST(DatasetTest, EncodeDecodeRoundTrip) {
  const Schema schema = TestSchema();
  Dataset ds(schema);
  ASSERT_TRUE(ds.AppendRow({1, 0, 3}).ok());
  const std::vector<std::uint32_t> decoded =
      DecodeCell(schema, ds.EncodeRow(0));
  EXPECT_EQ(decoded, (std::vector<std::uint32_t>{1, 0, 3}));
}

TEST(DatasetTest, EncodeAllMatchesPerRow) {
  Dataset ds(TestSchema());
  ASSERT_TRUE(ds.AppendRow({1, 1, 1}).ok());
  ASSERT_TRUE(ds.AppendRow({2, 0, 4}).ok());
  const std::vector<bits::Mask> all = ds.EncodeAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], ds.EncodeRow(0));
  EXPECT_EQ(all[1], ds.EncodeRow(1));
}

TEST(DatasetCsvTest, WriteReadRoundTrip) {
  const Schema schema = TestSchema();
  Dataset ds(schema);
  ASSERT_TRUE(ds.AppendRow({1, 0, 2}).ok());
  ASSERT_TRUE(ds.AppendRow({2, 1, 4}).ok());
  const std::string path = ::testing::TempDir() + "/dpcube_dataset_test.csv";
  ASSERT_TRUE(WriteCsv(ds, path).ok());
  auto back = ReadCsv(schema, path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_rows(), 2u);
  EXPECT_EQ(back.value().At(1, 2), 4u);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadCsv(TestSchema(), "/nonexistent/nope.csv").ok());
}

TEST(DatasetCsvTest, ReadRejectsOutOfRangeValue) {
  const std::string path = ::testing::TempDir() + "/dpcube_bad.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b,c\n9,0,0\n", f);
    std::fclose(f);
  }
  auto r = ReadCsv(TestSchema(), path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, ReadRejectsNonInteger) {
  const std::string path = ::testing::TempDir() + "/dpcube_nonint.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b,c\nx,0,0\n", f);
    std::fclose(f);
  }
  auto r = ReadCsv(TestSchema(), path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// Writes `content` to a temp file and reads it back against TestSchema.
Result<Dataset> ReadContent(const std::string& name,
                            const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  auto r = ReadCsv(TestSchema(), path);
  std::remove(path.c_str());
  return r;
}

TEST(DatasetCsvTest, ReadRejectsCorruptValuesWithLineNumber) {
  // Each corrupt field sits on line 3, after one good row: a value past
  // 2^32 must not wrap, and a trailing byte must not be dropped.
  const struct {
    const char* row;
    const char* expect;
  } kCases[] = {
      {"4294967296,0,0", "out of range"},
      {"99999999999999999999999,0,0", "out of range"},
      {"1x,0,0", "non-integer field '1x'"},
      {"2.9,0,0", "non-integer field '2.9'"},
      {"+1,0,0", "non-integer field '+1'"},
      {"-1,0,0", "non-integer field '-1'"},
      {" 1,0,0", "non-integer field ' 1'"},
      {"1,0,0 ", "non-integer field '0 '"},
      {"1,,0", "non-integer field ''"},
      {"1,0,0,", "row width"},
      {"1,0", "row width"},
      {"1,0,0,1", "row width"},
      {"1,0\r,0", "non-integer field '0\r'"},
  };
  for (const auto& c : kCases) {
    auto r = ReadContent("dpcube_corrupt.csv",
                         std::string("a,b,c\n1,1,1\n") + c.row + "\n");
    ASSERT_FALSE(r.ok()) << c.row;
    EXPECT_NE(r.status().message().find("line 3:"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find(c.expect), std::string::npos)
        << r.status().ToString();
  }
}

TEST(DatasetCsvTest, ReadAcceptsCrlfBlankLinesAndNoFinalNewline) {
  auto r = ReadContent("dpcube_crlf.csv",
                       "a,b,c\r\n2,1,4\r\n\r\n\n0,0,3\r\n1,0,0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().At(0, 2), 4u);
  EXPECT_EQ(r.value().At(1, 2), 3u);
  EXPECT_EQ(r.value().At(2, 0), 1u);
}

TEST(DatasetCsvTest, ReadRejectsEmptyFile) {
  auto r = ReadContent("dpcube_empty.csv", "");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing header"), std::string::npos);
}

TEST(DatasetCsvTest, WriteReportsFullDevice) {
  FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  Dataset ds(TestSchema());
  ASSERT_TRUE(ds.AppendRow({1, 0, 2}).ok());
  const Status st = WriteCsv(ds, "/dev/full");
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
}

}  // namespace
}  // namespace data
}  // namespace dpcube
