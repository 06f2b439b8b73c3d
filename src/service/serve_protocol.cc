// Copyright 2026 The dpcube Authors.

#include "service/serve_protocol.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <set>
#include <utility>

namespace dpcube {
namespace service {

ServeSession::ServeSession(std::shared_ptr<ReleaseStore> store,
                           std::shared_ptr<MarginalCache> cache,
                           std::shared_ptr<const QueryService> service,
                           const BatchExecutor* executor)
    : store_(std::move(store)),
      cache_(std::move(cache)),
      service_(std::move(service)),
      executor_(executor) {}

void ServeSession::Run(std::istream& in, std::ostream& out) {
  ProcessStream(in, out, /*flush_each=*/true);
}

bool ServeSession::ProcessStream(std::istream& in, std::ostream& out,
                                 bool flush_each,
                                 trace::RequestTrace* frame_trace) {
  active_trace_ = frame_trace;
  bool keep_going = true;
  std::string line;
  while (keep_going && std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const Request request = ParseRequestLine(line, tokens);
    if (active_trace_) {
      // The frame's identity is its first request; a pipelined frame
      // keeps the first line's verb/release.
      if (active_trace_->verb.empty()) {
        active_trace_->verb = VerbName(request.kind);
      }
      if (active_trace_->release.empty() &&
          request.kind == RequestKind::kQuery) {
        active_trace_->release = request.query.release;
      }
    }
    if (request.kind == RequestKind::kBatch) {
      HandleBatch(request, in, out);
    } else if (request.kind == RequestKind::kHello) {
      HandleHello(request, out);
    } else {
      Emit(ExecuteRequest(request), out);
      keep_going = request.kind != RequestKind::kQuit;
    }
    if (metrics_) metrics_->request_count(request.kind)->Increment();
    if (flush_each || !keep_going) out.flush();
  }
  active_trace_ = nullptr;
  return keep_going;
}

void ServeSession::Emit(const Response& response, std::ostream& out) {
  if (response.code != ErrorCode::kOk) {
    if (metrics_) metrics_->error_count(response.code)->Increment();
    // The frame's outcome is its first non-kOk response (or "Ok", filled
    // in by the connection when the trace finalises with none recorded).
    if (active_trace_ && active_trace_->outcome.empty()) {
      active_trace_->outcome = ErrorCodeName(response.code);
    }
  }
  Encode(response, out);
}

void ServeSession::Encode(const Response& response, std::ostream& out) {
  if (active_trace_ == nullptr) {
    EncodeResponse(response, codec(), out);
    return;
  }
  // The session's only clock: the connection times the whole execution
  // and takes this encode time out of it to get the compute span.
  const auto started = std::chrono::steady_clock::now();
  EncodeResponse(response, codec(), out);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  active_trace_->set_span(
      trace::Span::kEncode,
      active_trace_->span(trace::Span::kEncode) +
          static_cast<std::uint64_t>(micros.count()));
}

void ServeSession::HandleHello(const Request& request, std::ostream& out) {
  // The ack leaves in the codec in effect BEFORE the switch, so a
  // client reading the stream under the old codec can always parse it;
  // every later response (including this frame's subsequent lines) uses
  // the negotiated one.
  Response ack;
  ack.request = RequestKind::kHello;
  ack.version = request.version;
  ack.codec = request.codec;
  Encode(ack, out);
  codec_.store(request.codec, std::memory_order_release);
}

bool ServeSession::CheckQuota(const Query& query, Response* denied) const {
  if (!quota_gate_) return true;
  std::string denial;
  if (quota_gate_(query.release, &denial)) return true;
  *denied = Response::Error(ErrorCode::kQuotaExceeded,
                            "QuotaExceeded: " + denial);
  denied->request = RequestKind::kQuery;
  return false;
}

Status ServeSession::ApplyMutation(const Mutation& mutation) {
  if (mutation_handler_) return mutation_handler_(mutation);
  // Volatile path: apply straight to the in-memory structures.
  switch (mutation.kind) {
    case MutationKind::kLoadRelease:
      return store_->LoadFromFile(mutation.name, mutation.path);
    case MutationKind::kUnloadRelease:
      return service_->RemoveRelease(mutation.name);
    default:
      return Status::Unimplemented(
          std::string("mutation '") + MutationKindName(mutation.kind) +
          "' needs a durable handler");
  }
}

Response ServeSession::ExecuteRequest(const Request& request) {
  Response response;
  response.request = request.kind;
  switch (request.kind) {
    case RequestKind::kQuit:
      return response;
    case RequestKind::kLoad: {
      const Status st =
          ApplyMutation(Mutation::LoadRelease(request.name, request.path));
      if (!st.ok()) {
        return Response::Error(ToErrorCode(st), st.ToString());
      }
      if (release_loaded_hook_) release_loaded_hook_(request.name);
      response.name = request.name;
      return response;
    }
    case RequestKind::kUnload: {
      const Status st = ApplyMutation(Mutation::UnloadRelease(request.name));
      if (!st.ok()) {
        return Response::Error(ToErrorCode(st), st.ToString());
      }
      response.name = request.name;
      return response;
    }
    case RequestKind::kList:
      response.releases = store_->List();
      return response;
    case RequestKind::kQuery: {
      Response denied;
      if (!CheckQuota(request.query, &denied)) return denied;
      Response answered = Response::FromQuery(service_->Answer(request.query));
      // Unknown releases never mint per-release series: the name came
      // off the wire and only the cardinality cap would bound it.
      if (trace_metrics_ && answered.code != ErrorCode::kNotFound) {
        trace_metrics_->Release(request.query.release).queries->Increment();
      }
      return answered;
    }
    case RequestKind::kServerStats:
      if (server_stats_handler_) {
        response.message = server_stats_handler_();
        return response;
      }
      // Without a handler the verb is unknown, exactly as in v1.
      return Response::Error(ErrorCode::kBadRequest,
                             "unknown request '" + request.raw + "'");
    case RequestKind::kCacheStats:
      response.cache = cache_->stats();
      response.store_releases = store_->size();
      return response;
    case RequestKind::kInvalid:
    default:
      return Response::Error(request.error_code, request.error);
  }
}

void ServeSession::HandleBatch(const Request& request, std::istream& in,
                               std::ostream& out) {
  const std::size_t n = request.batch_count;
  std::vector<Query> batch;
  std::string batch_error;
  // Consume ALL n lines even after a bad one: stopping early would leave
  // the rest to be re-read as top-level commands and desync every later
  // request/response pair of a scripted client.
  for (std::size_t i = 0; i < n; ++i) {
    std::string sub_line;
    if (!std::getline(in, sub_line)) {
      batch_error = "unexpected EOF inside batch";
      break;
    }
    if (!batch_error.empty()) continue;
    const std::vector<std::string> sub_tokens = Tokenize(sub_line);
    if (sub_tokens.size() < 2 || sub_tokens[0] != "query") {
      batch_error = "batch lines must be query requests";
      continue;
    }
    Query q;
    if (!ParseServeQuery(
            std::vector<std::string>(sub_tokens.begin() + 1,
                                     sub_tokens.end()),
            &q, &batch_error)) {
      continue;
    }
    batch.push_back(std::move(q));
  }
  if (!batch_error.empty()) {
    Emit(Response::Error(ErrorCode::kBadRequest, std::move(batch_error)),
         out);
    return;
  }
  // Quota-denied sub-queries answer kQuotaExceeded in their ordinal
  // position; only the admitted remainder reaches the executor.
  std::vector<Response> responses(batch.size());
  std::vector<std::size_t> admitted;
  std::vector<Query> admitted_queries;
  admitted.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (CheckQuota(batch[i], &responses[i])) {
      admitted.push_back(i);
      admitted_queries.push_back(batch[i]);
    }
  }
  const bool want_timing =
      active_trace_ != nullptr || trace_metrics_ != nullptr;
  BatchTiming timing;
  const std::vector<QueryResponse> answers =
      admitted_queries.empty()
          ? std::vector<QueryResponse>{}
          : executor_->ExecuteBatch(admitted_queries,
                                    want_timing ? &timing : nullptr);
  // Releases that answered NotFound must not mint per-release series:
  // the names came off the wire.
  std::set<std::string> missing;
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    responses[admitted[j]] = Response::FromQuery(answers[j]);
    if (responses[admitted[j]].code == ErrorCode::kNotFound) {
      missing.insert(admitted_queries[j].release);
    }
  }
  if (active_trace_) {
    active_trace_->batch_queries += static_cast<std::uint32_t>(batch.size());
    if (timing.max_group_micros > active_trace_->batch_max_group_micros) {
      active_trace_->batch_max_group_micros = timing.max_group_micros;
    }
    if (active_trace_->release.empty() && !batch.empty()) {
      active_trace_->release = batch.front().release;
    }
  }
  if (trace_metrics_) {
    for (const BatchGroupTiming& group : timing.groups) {
      if (missing.count(group.release) != 0) continue;
      const trace::ServingTraceMetrics::PerRelease series =
          trace_metrics_->Release(group.release);
      series.queries->Increment(group.queries);
      series.latency->Record(static_cast<double>(group.micros) * 1e-6);
    }
  }
  for (const Response& response : responses) {
    Emit(response, out);
  }
}

}  // namespace service
}  // namespace dpcube
