// Copyright 2026 The dpcube Authors.

#include "service/service_metrics.h"

#include <string>

namespace dpcube {
namespace service {

const char* VerbName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kInvalid:
      return "invalid";
    case RequestKind::kHello:
      return "hello";
    case RequestKind::kLoad:
      return "load";
    case RequestKind::kUnload:
      return "unload";
    case RequestKind::kList:
      return "list";
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kBatch:
      return "batch";
    case RequestKind::kCacheStats:
      return "stats";
    case RequestKind::kServerStats:
      return "server_stats";
    case RequestKind::kQuit:
      return "quit";
  }
  return "invalid";
}

std::shared_ptr<const SessionMetrics> SessionMetrics::Create(
    metrics::Registry* registry) {
  auto table = std::make_shared<SessionMetrics>();
  for (int k = 0; k < kKinds; ++k) {
    const std::string labels =
        std::string("verb=\"") + VerbName(static_cast<RequestKind>(k)) + "\"";
    table->requests[static_cast<std::size_t>(k)] = registry->GetCounter(
        "dpcube_requests_total", labels,
        "Requests processed by sessions, by protocol verb.");
  }
  for (int c = 1; c < kCodes; ++c) {
    const std::string labels =
        std::string("code=\"") +
        ErrorCodeName(static_cast<ErrorCode>(c)) + "\"";
    table->errors[static_cast<std::size_t>(c)] = registry->GetCounter(
        "dpcube_errors_total", labels,
        "Error responses emitted, by structured error code.");
  }
  return table;
}

}  // namespace service
}  // namespace dpcube
