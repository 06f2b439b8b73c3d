// Copyright 2026 The dpcube Authors.

#include "harness/oracle.h"

#include <cstdint>
#include <cstring>

#include "service/request.h"

namespace perfbench {

bool SameBits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

namespace {

// Removes the " hit=0"/" hit=1" field and any trailing newline.
std::string StripHitFlag(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::string out(line);
  for (const char* flag : {" hit=0", " hit=1"}) {
    const std::size_t at = out.find(flag);
    if (at != std::string::npos) {
      out.erase(at, std::strlen(flag));
      break;
    }
  }
  return out;
}

}  // namespace

std::string ExpectedTextLine(const dpcube::service::QueryResponse& expected) {
  return StripHitFlag(dpcube::service::FormatResponse(expected));
}

bool MatchesText(std::string_view line, const std::string& expected_line,
                 std::string* why) {
  const std::string got = StripHitFlag(line);
  if (got == expected_line) return true;
  *why = "text answer '" + got.substr(0, 120) + "' != expected '" +
         expected_line.substr(0, 120) + "'";
  return false;
}

bool MatchesBinary(const dpcube::service::WireRecord& got,
                   const dpcube::service::QueryResponse& expected,
                   std::string* why) {
  if (got.code != dpcube::service::ErrorCode::kOk) {
    *why = "binary answer is an error: " + got.message;
    return false;
  }
  if (!got.has_values || got.mask != expected.beta ||
      got.values.size() != expected.values.size()) {
    *why = "binary answer has the wrong mask or cell count";
    return false;
  }
  if (!SameBits(got.variance, expected.variance)) {
    *why = "binary answer variance differs in its bits";
    return false;
  }
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    if (!SameBits(got.values[i], expected.values[i])) {
      *why = "binary answer cell " + std::to_string(i) +
             " differs in its bits";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
