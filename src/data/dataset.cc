// Copyright 2026 The dpcube Authors.

#include "data/dataset.h"

#include <cstring>
#include <string_view>

#include "common/text_file.h"

namespace dpcube {
namespace data {

Status Dataset::AppendRow(const std::vector<std::uint32_t>& values) {
  if (values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row width does not match schema");
  }
  for (std::size_t a = 0; a < values.size(); ++a) {
    if (values[a] >= schema_.attribute(a).cardinality) {
      return Status::OutOfRange("value " + std::to_string(values[a]) +
                                " out of range for attribute '" +
                                schema_.attribute(a).name + "'");
    }
  }
  values_.insert(values_.end(), values.begin(), values.end());
  return Status::OK();
}

bits::Mask Dataset::EncodeRow(std::size_t r) const {
  bits::Mask cell = 0;
  for (std::size_t a = 0; a < schema_.num_attributes(); ++a) {
    cell |= static_cast<bits::Mask>(At(r, a)) << schema_.BitOffset(a);
  }
  return cell;
}

std::vector<bits::Mask> Dataset::EncodeAll() const {
  std::vector<bits::Mask> out;
  out.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) out.push_back(EncodeRow(r));
  return out;
}

std::vector<std::uint32_t> DecodeCell(const Schema& schema, bits::Mask cell) {
  std::vector<std::uint32_t> values(schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const bits::Mask field = (cell >> schema.BitOffset(a)) &
                             ((bits::Mask{1} << schema.BitWidth(a)) - 1);
    values[a] = static_cast<std::uint32_t>(field);
  }
  return values;
}

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  auto opened = text::FileWriter::Create(path);
  if (!opened.ok()) return opened.status();
  text::FileWriter& out = opened.value();
  const Schema& schema = dataset.schema();
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    if (a) out.AppendChar(',');
    out.Append(schema.attribute(a).name);
  }
  out.AppendChar('\n');
  for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
    for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a) out.AppendChar(',');
      out.AppendUint(dataset.At(r, a));
    }
    out.AppendChar('\n');
  }
  return out.Close();
}

Result<Dataset> ReadCsv(const Schema& schema, const std::string& path) {
  auto opened = text::LineReader::Open(path);
  if (!opened.ok()) return opened.status();
  text::LineReader& in = opened.value();
  std::string_view line;
  if (!in.Next(&line)) {
    DPCUBE_RETURN_NOT_OK(in.status());
    return Status::InvalidArgument("'" + path + "': missing header");
  }
  const std::size_t width = schema.num_attributes();
  auto line_error = [&](const std::string& what) {
    return Status::InvalidArgument("'" + path + "' line " +
                                   std::to_string(in.line_number()) + ": " +
                                   what);
  };
  Dataset dataset(schema);
  std::vector<std::uint32_t>& values = dataset.values_;
  // Every value takes at least two bytes of the file (a digit and a ','
  // or newline), so this never reallocates.
  values.reserve(static_cast<std::size_t>(in.file_size() / 2));
  while (in.Next(&line)) {
    if (line.empty()) continue;
    if (width == 0) return line_error("row width does not match schema");
    const char* field = line.data();
    const char* const end = field + line.size();
    for (std::size_t a = 0; a < width; ++a) {
      const bool last = a + 1 == width;
      const char* comma = static_cast<const char*>(
          std::memchr(field, ',', static_cast<std::size_t>(end - field)));
      if ((comma == nullptr) != last) {
        return line_error("row width does not match schema");
      }
      const std::string_view token(
          field, static_cast<std::size_t>((last ? end : comma) - field));
      std::uint32_t value = 0;
      const bool parsed = text::ParseUint(token, &value);
      if (!parsed || value >= schema.attribute(a).cardinality) {
        const bool digits =
            !token.empty() && token.find_first_not_of("0123456789") ==
                                  std::string_view::npos;
        if (!parsed && !digits) {
          return line_error("non-integer field '" + std::string(token) + "'");
        }
        return line_error("value " + std::string(token) +
                          " out of range for attribute '" +
                          schema.attribute(a).name + "'");
      }
      values.push_back(value);
      if (!last) field = comma + 1;
    }
  }
  DPCUBE_RETURN_NOT_OK(in.status());
  return dataset;
}

}  // namespace data
}  // namespace dpcube
