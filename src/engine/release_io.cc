// Copyright 2026 The dpcube Authors.

#include "engine/release_io.h"

#include <cstdio>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/text_file.h"

namespace dpcube {
namespace engine {

namespace {

constexpr std::string_view kReleaseHeader = "# dpcube-release d=";
constexpr std::string_view kVarianceHeader = "# dpcube-cell-variances";
constexpr std::string_view kBuildHeader = "# dpcube-build-seconds";
constexpr std::string_view kColumnHeader = "mask,cell,value";
constexpr unsigned kMaxDimensionality = 63;

// Calls fn(token) for each space-separated token of `s`.
template <typename Fn>
bool ForEachToken(std::string_view s, Fn fn) {
  while (!s.empty()) {
    const std::size_t space = s.find(' ');
    const std::string_view token = s.substr(0, space);
    if (!token.empty() && !fn(token)) return false;
    if (space == std::string_view::npos) break;
    s.remove_prefix(space + 1);
  }
  return true;
}

// Unknown keys and unparsable values are skipped, like any comment text.
void ParseBuildTimings(std::string_view fields, PhaseTimings* timings) {
  ForEachToken(fields, [timings](std::string_view field) {
    const std::size_t eq = field.find('=');
    double value = 0.0;
    if (eq == std::string_view::npos ||
        !text::ParseDouble(field.substr(eq + 1), &value)) {
      return true;
    }
    const std::string_view key = field.substr(0, eq);
    if (key == "construction") {
      timings->construction_seconds = value;
    } else if (key == "budget") {
      timings->budget_seconds = value;
    } else if (key == "measure") {
      timings->measure_seconds = value;
    } else if (key == "consistency") {
      timings->consistency_seconds = value;
    } else if (key == "total") {
      timings->total_seconds = value;
    }
    return true;
  });
}

}  // namespace

Status WriteReleaseCsv(const std::string& path,
                       const std::vector<marginal::MarginalTable>& marginals,
                       const linalg::Vector& cell_variances,
                       const PhaseTimings* build_timings) {
  if (!cell_variances.empty() && cell_variances.size() != marginals.size()) {
    return Status::InvalidArgument(
        "cell_variances must be empty or have one entry per marginal");
  }
  const int d = marginals.empty() ? 0 : marginals.front().d();
  for (const marginal::MarginalTable& m : marginals) {
    if (m.d() != d) {
      return Status::InvalidArgument(
          "all marginals must share the same domain dimensionality");
    }
  }
  if (d < 0 || d > static_cast<int>(kMaxDimensionality)) {
    return Status::InvalidArgument("domain dimensionality must be in [0, 63]");
  }
  auto opened = text::FileWriter::Create(path);
  if (!opened.ok()) return opened.status();
  text::FileWriter& out = opened.value();
  out.Append(kReleaseHeader);
  out.AppendUint(static_cast<std::uint64_t>(d));
  out.AppendChar('\n');
  if (!cell_variances.empty()) {
    out.Append(kVarianceHeader);
    for (const double v : cell_variances) {
      out.AppendChar(' ');
      out.AppendDouble17(v);
    }
    out.AppendChar('\n');
  }
  if (build_timings != nullptr) {
    char header[192];
    std::snprintf(header, sizeof(header),
                  "%s construction=%.6f budget=%.6f measure=%.6f "
                  "consistency=%.6f total=%.6f\n",
                  kBuildHeader.data(), build_timings->construction_seconds,
                  build_timings->budget_seconds,
                  build_timings->measure_seconds,
                  build_timings->consistency_seconds,
                  build_timings->total_seconds);
    out.Append(header);
  }
  out.Append(kColumnHeader);
  out.AppendChar('\n');
  for (const marginal::MarginalTable& m : marginals) {
    for (std::size_t g = 0; g < m.num_cells(); ++g) {
      out.AppendUint(m.alpha());
      out.AppendChar(',');
      out.AppendUint(g);
      out.AppendChar(',');
      out.AppendDouble17(m.value(g));
      out.AppendChar('\n');
    }
  }
  return out.Close();
}

Result<LoadedRelease> ReadReleaseCsv(const std::string& path) {
  auto opened = text::LineReader::Open(path);
  if (!opened.ok()) return opened.status();
  text::LineReader& in = opened.value();
  auto file_error = [&path](const std::string& what) {
    return Status::InvalidArgument("'" + path + "': " + what);
  };
  auto line_prefix = [&path](std::size_t line_no) {
    return "'" + path + "' line " + std::to_string(line_no) + ": ";
  };
  // Next header line; a read error wins over `missing`.
  std::string_view line;
  auto next_header = [&](const char* missing) -> Status {
    if (in.Next(&line)) return Status::OK();
    DPCUBE_RETURN_NOT_OK(in.status());
    return file_error(missing);
  };

  DPCUBE_RETURN_NOT_OK(next_header("missing release header"));
  if (!line.starts_with(kReleaseHeader)) {
    return file_error("missing release header");
  }
  unsigned dimensionality = 0;
  if (!text::ParseUint(line.substr(kReleaseHeader.size()), &dimensionality) ||
      dimensionality > kMaxDimensionality) {
    return file_error("bad dimensionality (want an integer in [0, 63])");
  }
  const int d = static_cast<int>(dimensionality);
  const bits::Mask domain = (bits::Mask{1} << d) - 1;

  LoadedRelease release;
  DPCUBE_RETURN_NOT_OK(next_header("missing column header"));
  if (line.starts_with(kVarianceHeader)) {
    std::string bad;
    ForEachToken(line.substr(kVarianceHeader.size()),
                 [&](std::string_view token) {
                   double v = 0.0;
                   if (!text::ParseDouble(token, &v)) {
                     bad = token;
                     return false;
                   }
                   release.cell_variances.push_back(v);
                   return true;
                 });
    if (!bad.empty()) {
      return Status::InvalidArgument(line_prefix(in.line_number()) +
                                     "bad cell variance '" + bad + "'");
    }
    DPCUBE_RETURN_NOT_OK(next_header("missing column header"));
  }
  if (line.starts_with(kBuildHeader)) {
    ParseBuildTimings(line.substr(kBuildHeader.size()),
                      &release.build_timings);
    release.has_build_timings = true;
    DPCUBE_RETURN_NOT_OK(next_header("missing column header"));
  }
  if (line != kColumnHeader) return file_error("missing column header");

  // The records of one marginal are collected before its table is built,
  // so a mask with more cells than the file holds allocates nothing.
  std::vector<bits::Mask> masks;
  std::unordered_set<bits::Mask> seen_masks;
  std::vector<std::pair<std::size_t, double>> cells;
  std::vector<bool> seen_cells;
  std::size_t first_line = 0;
  auto finish_marginal = [&]() -> Status {
    if (masks.empty()) return Status::OK();
    const bits::Mask mask = masks.back();
    const std::size_t num_cells = std::size_t{1} << bits::Popcount(mask);
    if (cells.size() != num_cells) {
      return Status::InvalidArgument(
          line_prefix(first_line) + "marginal " + std::to_string(mask) +
          " has " + std::to_string(cells.size()) + " records for its " +
          std::to_string(num_cells) + " cells");
    }
    marginal::MarginalTable table(mask, d);
    seen_cells.assign(num_cells, false);
    for (const auto& [cell, value] : cells) {
      if (seen_cells[cell]) {
        return Status::InvalidArgument(
            line_prefix(first_line) + "marginal " + std::to_string(mask) +
            " repeats cell " + std::to_string(cell));
      }
      seen_cells[cell] = true;
      table.value(cell) = value;
    }
    release.marginals.push_back(std::move(table));
    cells.clear();
    return Status::OK();
  };

  while (in.Next(&line)) {
    if (line.empty()) continue;
    const std::size_t comma1 = line.find(',');
    const std::size_t comma2 = comma1 == std::string_view::npos
                                   ? comma1
                                   : line.find(',', comma1 + 1);
    if (comma2 == std::string_view::npos) {
      return Status::InvalidArgument(line_prefix(in.line_number()) +
                                     "malformed");
    }
    bits::Mask mask = 0;
    std::size_t cell = 0;
    double value = 0.0;
    if (!text::ParseUint(line.substr(0, comma1), &mask) ||
        !text::ParseUint(line.substr(comma1 + 1, comma2 - comma1 - 1),
                         &cell) ||
        !text::ParseDouble(line.substr(comma2 + 1), &value)) {
      return Status::InvalidArgument(line_prefix(in.line_number()) +
                                     "non-numeric field");
    }
    if (masks.empty() || masks.back() != mask) {
      if ((mask & ~domain) != 0) {
        return Status::OutOfRange(line_prefix(in.line_number()) + "mask " +
                                  std::to_string(mask) + " outside the d=" +
                                  std::to_string(d) + " domain");
      }
      if (!seen_masks.insert(mask).second) {
        return Status::InvalidArgument(line_prefix(in.line_number()) +
                                       "records of mask " +
                                       std::to_string(mask) +
                                       " are not contiguous");
      }
      DPCUBE_RETURN_NOT_OK(finish_marginal());
      masks.push_back(mask);
      first_line = in.line_number();
    }
    if (cell >> bits::Popcount(mask) != 0) {
      return Status::OutOfRange(line_prefix(in.line_number()) +
                                "cell index out of range");
    }
    cells.emplace_back(cell, value);
  }
  DPCUBE_RETURN_NOT_OK(in.status());
  DPCUBE_RETURN_NOT_OK(finish_marginal());
  if (!release.cell_variances.empty() &&
      release.cell_variances.size() != release.marginals.size()) {
    return file_error("cell-variance count does not match marginal count");
  }
  release.workload = marginal::Workload(d, std::move(masks));
  return release;
}

}  // namespace engine
}  // namespace dpcube
