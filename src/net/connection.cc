// Copyright 2026 The dpcube Authors.

#include "net/connection.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

namespace dpcube {
namespace net {

namespace {

// A client that stops reading while pipelining can grow the write buffer
// without bound; past this, the connection is dropped (standard
// slow-consumer protection).
constexpr std::size_t kMaxWriteBufferBytes = std::size_t{16} << 20;

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start,
                          std::chrono::steady_clock::time_point end) {
  if (end <= start) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
}

}  // namespace

Connection::Connection(UniqueFd fd, std::uint64_t id,
                       const ServeContext& context,
                       std::shared_ptr<AdmissionController> admission,
                       std::function<void()> wakeup,
                       std::size_t max_frame_payload,
                       std::shared_ptr<LingerSet> linger)
    : id_(id),
      fd_(std::move(fd)),
      context_(context),
      admission_(std::move(admission)),
      wakeup_(std::move(wakeup)),
      linger_(std::move(linger)),
      session_(context.store, context.cache, context.service,
               context.executor.get()),
      decoder_(max_frame_payload) {
  session_.SetTraceMetrics(context_.trace_metrics);
}

Connection::~Connection() {
  // Slots admitted but never executed (connection died first) still hold
  // a unit of the server-wide queue depth; return it. Executed slots
  // released theirs at completion (admitted flips false there). We hold
  // the last reference here, but slots_ is mu_-guarded state, so take
  // the (uncontended) lock anyway and keep one discipline.
  {
    sync::MutexLock lock(&mu_);
    for (const auto& slot : slots_) {
      if (slot->admitted && !slot->dispatched) admission_->ReleaseRequest();
    }
  }
  admission_->ReleaseConnection();
  // Graceful goodbye for orderly closes (quit / drain / decode error):
  // the fd moves to the owning poller's linger set, which FINs and then
  // waits (bounded) for the peer's FIN before closing — close() with
  // unread pipelined input would RST and could destroy the final
  // flushed response before the peer reads it. Dead sockets skip this —
  // an RST is exactly right for a slow-consumer drop. This destructor
  // may run on a pool worker (a task holding the last reference), which
  // is why LingerSet::Add is thread-safe.
  if (fd_.valid() && !dead_ && linger_) {
    linger_->Add(std::move(fd_));
  }
}

std::uint32_t Connection::Interest() const {
  if (dead_) return 0;
  std::uint32_t events = 0;
  if (!draining_ && !read_eof_ && !sent_decode_error_) events |= EPOLLIN;
  if (write_offset_ < write_buffer_.size()) events |= EPOLLOUT;
  return events;
}

void Connection::OnReadable() {
  if (dead_ || draining_ || read_eof_) return;
  read_start_ = Clock::now();
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Half-close: the client sent everything and shut down its write
      // side; keep flushing responses for what is already admitted.
      read_eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dead_ = true;
    return;
  }
  ProcessDecodedFrames();
  Pump();
}

void Connection::ProcessDecodedFrames() {
  std::string payload;
  for (;;) {
    const FrameDecoder::Next next = decoder_.Pop(&payload);
    if (next == FrameDecoder::Next::kNeedMore) return;
    if (next == FrameDecoder::Next::kError) {
      if (!sent_decode_error_) {
        sent_decode_error_ = true;
        // One final structured goodbye, then no more reads: byte
        // boundaries after a bad length prefix are meaningless. The
        // goodbye rides the slot FIFO so it cannot overtake responses
        // still owed for earlier frames, and stays typed so it leaves
        // in whatever codec the conversation has negotiated by then.
        auto goodbye = std::make_shared<Slot>();
        goodbye->done = true;
        goodbye->typed_pending = true;
        goodbye->typed = service::Response::Error(
            service::ErrorCode::kBadRequest, decoder_.error());
        goodbye->trace.context.trace_id = trace::NextTraceId();
        goodbye->trace.context.connection_id = id_;
        goodbye->trace.verb = "(decode-error)";
        goodbye->clock.read = read_start_;
        goodbye->clock.decoded = Clock::now();
        goodbye->clock.ready = goodbye->clock.decoded;
        sync::MutexLock lock(&mu_);
        slots_.push_back(std::move(goodbye));
      }
      return;
    }
    context_.trace_metrics->frames_received->Increment();
    auto slot = std::make_shared<Slot>();
    slot->clock.read = read_start_;
    slot->clock.decoded = Clock::now();
    slot->trace.context.trace_id = trace::NextTraceId();
    slot->trace.context.connection_id = id_;
    slot->trace.request_bytes = payload.size();
    std::string busy_reason;
    int inflight = 0;
    {
      sync::MutexLock lock(&mu_);
      inflight = admitted_inflight_;
    }
    const bool admitted = admission_->TryAdmitRequest(inflight, &busy_reason);
    slot->clock.admitted = Clock::now();
    if (!admitted) {
      slot->done = true;
      slot->typed_pending = true;
      slot->typed = service::Response::Busy(std::move(busy_reason));
      slot->trace.verb = "(shed)";
      slot->clock.ready = slot->clock.admitted;
    } else {
      slot->admitted = true;
      slot->request = std::move(payload);
      sync::MutexLock lock(&mu_);
      ++admitted_inflight_;
    }
    {
      sync::MutexLock lock(&mu_);
      slots_.push_back(std::move(slot));
    }
  }
}

void Connection::MaybeDispatch() {
  std::shared_ptr<Slot> next;
  {
    sync::MutexLock lock(&mu_);
    if (executing_ || quit_seen_) return;
    for (const auto& slot : slots_) {
      if (!slot->done && !slot->dispatched) {
        next = slot;
        break;
      }
    }
    if (!next) return;
    next->dispatched = true;
    executing_ = true;
  }
  // Submit OUTSIDE the lock: on a 1-thread pool the task runs inline,
  // and Execute takes mu_.
  auto self = shared_from_this();
  context_.pool->Submit([self, next] { self->Execute(next); });
}

void Connection::Execute(const std::shared_ptr<Slot>& slot) {
  slot->clock.exec_start = Clock::now();
  std::istringstream in(slot->request);
  std::ostringstream out;
  const bool keep_going = session_.ProcessStream(
      in, out, /*flush_each=*/false, &slot->trace);
  slot->clock.ready = Clock::now();
  context_.trace_metrics->frames_executed->Increment();

  {
    sync::MutexLock lock(&mu_);
    slot->response = out.str();
    slot->request.clear();
    slot->request.shrink_to_fit();
    slot->done = true;
    slot->admitted = false;  // Queue-depth unit returned below.
    --admitted_inflight_;
    executing_ = false;
    if (!keep_going) quit_seen_ = true;
  }
  admission_->ReleaseRequest();
  // The poller's loop flushes the response and dispatches the next slot.
  wakeup_();
}

void Connection::EnqueueResponseFrame(Slot& slot) {
  // Typed slots (shed BUSY, decode goodbye) are encoded here — at
  // dequeue time, after every earlier slot flushed — so they pick up
  // the codec the session had negotiated at this point in the stream.
  const std::string& payload =
      slot.typed_pending
          ? (slot.response =
                 service::EncodeResponseToString(slot.typed, session_.codec()))
          : slot.response;
  const std::size_t before = write_buffer_.size();
  write_buffer_ += EncodeFrame(payload);
  context_.trace_metrics->responses->Increment();
  trace::RequestTrace& t = slot.trace;
  t.response_bytes = payload.size();
  t.codec = service::CodecName(session_.codec());
  if (t.outcome.empty()) {
    t.outcome = slot.typed_pending && slot.typed.code != service::ErrorCode::kOk
                    ? service::ErrorCodeName(slot.typed.code)
                    : "Ok";
  }
  bytes_enqueued_ += write_buffer_.size() - before;
  pending_flush_.push_back({bytes_enqueued_, slot.clock, std::move(t)});
}

void Connection::Pump() {
  if (dead_) return;
  // Flush completed responses BEFORE dispatching the next slot: on a
  // 1-thread pool Submit runs the task inline, and a HELLO executing
  // there must not switch the codec under a typed slot that is already
  // ahead of it in the FIFO.
  {
    sync::MutexLock lock(&mu_);
    while (!slots_.empty() && slots_.front()->done) {
      EnqueueResponseFrame(*slots_.front());
      slots_.pop_front();
    }
    if (quit_seen_) {
      // quit closes the conversation: frames pipelined past it are
      // discarded unanswered (their admitted queue-depth units go back).
      // No slot can be mid-execution here — quit_seen_ is only set by a
      // completing Execute, and execution is serial per connection.
      for (const auto& slot : slots_) {
        if (slot->admitted && !slot->dispatched) {
          slot->admitted = false;
          --admitted_inflight_;
          admission_->ReleaseRequest();
        }
      }
      slots_.clear();
      draining_ = true;
    }
  }
  MaybeDispatch();
  FlushWrites();
  FinalizeFlushedTraces();
  if (write_buffer_.size() - write_offset_ > kMaxWriteBufferBytes) {
    dead_ = true;  // Slow consumer: pipelines requests, never reads.
  }
}

void Connection::FlushWrites() {
  while (write_offset_ < write_buffer_.size()) {
    const ssize_t n =
        ::send(fd_.get(), write_buffer_.data() + write_offset_,
               write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      write_offset_ += static_cast<std::size_t>(n);
      bytes_flushed_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    dead_ = true;
    return;
  }
  if (write_offset_ == write_buffer_.size()) {
    write_buffer_.clear();
    write_offset_ = 0;
  }
}

void Connection::OnWritable() {
  if (dead_) return;
  FlushWrites();
  FinalizeFlushedTraces();
}

void Connection::FinalizeFlushedTraces() {
  if (dead_ || pending_flush_.empty() ||
      bytes_flushed_ < pending_flush_.front().target_bytes) {
    return;
  }
  const auto flushed = Clock::now();
  while (!pending_flush_.empty() &&
         bytes_flushed_ >= pending_flush_.front().target_bytes) {
    PendingTrace& pending = pending_flush_.front();
    PublishTrace(pending.clock, flushed, pending.trace);
    pending_flush_.pop_front();
  }
}

void Connection::PublishTrace(const FrameClock& clock,
                              Clock::time_point flushed,
                              trace::RequestTrace& finished) {
  using trace::Span;
  // Every boundary as whole microseconds since the read; each span is
  // the difference of two of them, so the spans sum to total_micros
  // exactly and truncation never accumulates across spans.
  const auto at = [&clock](Clock::time_point t) {
    return MicrosSince(clock.read, t);
  };
  finished.set_span(Span::kDecode, at(clock.decoded));
  if (clock.admitted != Clock::time_point{}) {
    finished.set_span(Span::kAdmit, at(clock.admitted) - at(clock.decoded));
  }
  if (clock.exec_start != Clock::time_point{}) {
    finished.set_span(Span::kQueue,
                      at(clock.exec_start) - at(clock.admitted));
    // The session timed only its encoding; the rest of execution is
    // compute. Typed (shed, goodbye) responses are encoded inside flush.
    const std::uint64_t exec = at(clock.ready) - at(clock.exec_start);
    const std::uint64_t encode = std::min(finished.span(Span::kEncode), exec);
    finished.set_span(Span::kCompute, exec - encode);
    finished.set_span(Span::kEncode, encode);
  }
  finished.set_span(Span::kFlush, at(flushed) - at(clock.ready));
  finished.total_micros = at(flushed);
  finished.slow = context_.slow_query_micros > 0 &&
                  finished.total_micros >= context_.slow_query_micros;
  context_.trace_metrics->Record(finished);
  if (context_.trace_ring) context_.trace_ring->Record(finished);
  if (context_.access_log == nullptr) return;
  using logging::Field;
  context_.access_log->Log(
      finished.slow ? logging::Level::kWarn : logging::Level::kInfo, "request",
      {Field::Num("trace_id", finished.context.trace_id),
       Field::Num("conn", finished.context.connection_id),
       Field("verb", finished.verb), Field("release", finished.release),
       Field("codec", finished.codec), Field("outcome", finished.outcome),
       Field::Num("bytes_in", finished.request_bytes),
       Field::Num("bytes_out", finished.response_bytes),
       Field::Num("total_us", finished.total_micros),
       Field::Num("decode_us", finished.span(trace::Span::kDecode)),
       Field::Num("admit_us", finished.span(trace::Span::kAdmit)),
       Field::Num("queue_us", finished.span(trace::Span::kQueue)),
       Field::Num("compute_us", finished.span(trace::Span::kCompute)),
       Field::Num("encode_us", finished.span(trace::Span::kEncode)),
       Field::Num("flush_us", finished.span(trace::Span::kFlush)),
       Field::Num("batch_n", finished.batch_queries),
       Field::Num("batch_max_group_us", finished.batch_max_group_micros),
       Field::Bool("slow", finished.slow)});
}

void Connection::BeginDrain() { draining_ = true; }

bool Connection::Finished() const {
  if (dead_) return true;
  if (!draining_ && !read_eof_ && !sent_decode_error_) return false;
  sync::MutexLock lock(&mu_);
  return slots_.empty() && write_offset_ >= write_buffer_.size();
}

}  // namespace net
}  // namespace dpcube
