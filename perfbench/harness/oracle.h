// Copyright 2026 The dpcube Authors.
//
// Answer checking for the serving workloads. The expected answer for a
// query is what an in-process QueryService::Answer returns on the same
// release CSV. A binary record must match it bit for bit; a text line
// must match its own %.17g rendering (the round-trip-exact format the
// server writes). The cache-hit flag is the only field allowed to differ.

#ifndef PERFBENCH_HARNESS_ORACLE_H_
#define PERFBENCH_HARNESS_ORACLE_H_

#include <string>
#include <string_view>

#include "service/query_service.h"
#include "service/wire_codec.h"

namespace perfbench {

// True when `a` and `b` have the same bit pattern.
bool SameBits(double a, double b);

// The response line the text codec should carry for `expected`, with
// the " hit=0"/" hit=1" field removed.
std::string ExpectedTextLine(const dpcube::service::QueryResponse& expected);

bool MatchesText(std::string_view line, const std::string& expected_line,
                 std::string* why);
bool MatchesBinary(const dpcube::service::WireRecord& got,
                   const dpcube::service::QueryResponse& expected,
                   std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ORACLE_H_
