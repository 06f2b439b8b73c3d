// Copyright 2026 The dpcube Authors.
//
// Tuple storage and the binary encoding of Section 4.1: each tuple maps to
// a d-bit cell index of the contingency-table domain.

#ifndef DPCUBE_DATA_DATASET_H_
#define DPCUBE_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "data/schema.h"

namespace dpcube {
namespace data {

/// A dataset: a schema plus a row-major table of attribute values.
class Dataset {
 public:
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const {
    return schema_.num_attributes() == 0
               ? 0
               : values_.size() / schema_.num_attributes();
  }

  /// Appends a row; values.size() must equal num_attributes and each value
  /// must be < its attribute's cardinality.
  Status AppendRow(const std::vector<std::uint32_t>& values);

  /// Value of attribute a in row r.
  std::uint32_t At(std::size_t r, std::size_t a) const {
    return values_[r * schema_.num_attributes() + a];
  }

  /// Encodes row r into its d-bit cell index (attribute values packed at
  /// their schema bit offsets).
  bits::Mask EncodeRow(std::size_t r) const;

  /// Encodes every row; out.size() == num_rows().
  std::vector<bits::Mask> EncodeAll() const;

 private:
  // Validates and appends straight into values_.
  friend Result<Dataset> ReadCsv(const Schema& schema, const std::string& path);

  Schema schema_;
  std::vector<std::uint32_t> values_;  // Row-major.
};

/// Decodes a cell index back into per-attribute values (raw bit fields; a
/// cell index that was never produced by EncodeRow may decode to values
/// >= cardinality, which callers treat as structurally-empty cells).
std::vector<std::uint32_t> DecodeCell(const Schema& schema, bits::Mask cell);

/// Writes the dataset as a CSV file: header of attribute names, then one
/// row of integer values per tuple.
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a CSV produced by WriteCsv (or hand-authored with the same layout)
/// against the given schema. The first line is a header and is skipped;
/// every other non-blank line holds exactly one field per attribute, each
/// a plain decimal integer below the attribute's cardinality (no sign,
/// space or other byte). Lines may end in "\n" or "\r\n". An error names
/// the path and the line.
Result<Dataset> ReadCsv(const Schema& schema, const std::string& path);

}  // namespace data
}  // namespace dpcube

#endif  // DPCUBE_DATA_DATASET_H_
