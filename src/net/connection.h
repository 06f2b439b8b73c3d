// Copyright 2026 The dpcube Authors.
//
// One accepted TCP connection: the read-side FrameDecoder, the FIFO of
// request slots, the write buffer, and a private ServeSession. The
// design splits work rigidly between two kinds of threads:
//
//   network thread (the owning Poller's event loop — each connection is
//     pinned to exactly one poller for its lifetime) — reads bytes,
//     decodes frames, runs admission, dispatches slots, flushes
//     completed responses, closes the socket. Never computes. The
//     socket is registered with the loop once; its interest (Interest())
//     changes only when write backpressure turns on or off, or when
//     reading ends (EOF, drain, decode error).
//   pool workers (ThreadPool::Shared via the ServeContext) — execute
//     one admitted frame at a time per connection through the session
//     (which may fan a batch out across the same pool), fill the slot,
//     and call the wakeup, which posts this one connection back to its
//     poller's loop.
//
// Invariant the whole protocol rests on: every request frame gets
// EXACTLY ONE response frame, and response frames leave in request
// order. Shed requests complete instantly with a "BUSY <reason>" payload
// in their ordinal position; execution is serial per connection
// (cross-connection parallelism comes from many connections sharing the
// pool, intra-request parallelism from the batch verb), so the FIFO
// order is also execution order.

#ifndef DPCUBE_NET_CONNECTION_H_
#define DPCUBE_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/fd.h"
#include "common/log.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/trace_metrics.h"
#include "net/admission.h"
#include "net/framing.h"
#include "net/linger.h"
#include "service/serve_protocol.h"

namespace dpcube {

namespace service {
class DurableState;
}  // namespace service

namespace net {

/// The shared serving collaborators a connection's session borrows.
/// Everything a pool task can touch after the listener is gone is held
/// by shared_ptr (each Connection keeps a copy of this context and each
/// task keeps its Connection alive), so a query that outlives the drain
/// timeout cannot dangle. `pool` alone stays raw: it is only
/// dereferenced by the network thread while the listener is alive, and
/// the production caller passes the process-static ThreadPool::Shared().
struct ServeContext {
  ServeContext() = default;
  /// The common five collaborators; tracing and durability members stay
  /// default (callers set them individually when enabled).
  ServeContext(std::shared_ptr<service::ReleaseStore> store_in,
               std::shared_ptr<service::MarginalCache> cache_in,
               std::shared_ptr<const service::QueryService> service_in,
               std::shared_ptr<const service::BatchExecutor> executor_in,
               ThreadPool* pool_in)
      : store(std::move(store_in)),
        cache(std::move(cache_in)),
        service(std::move(service_in)),
        executor(std::move(executor_in)),
        pool(pool_in) {}

  std::shared_ptr<service::ReleaseStore> store;
  std::shared_ptr<service::MarginalCache> cache;
  std::shared_ptr<const service::QueryService> service;
  std::shared_ptr<const service::BatchExecutor> executor;
  ThreadPool* pool = nullptr;
  /// Request tracing. Every completed request finalises a RequestTrace
  /// into `trace_metrics` (required: the listener always sets it; it is
  /// the only place serving latency and the frame counters are
  /// recorded), into `trace_ring` when non-null, and as one structured
  /// line to `access_log` when that is set. `slow_query_micros` > 0
  /// marks traces at or above it as slow (reservoir candidates,
  /// WARN-level log lines).
  std::shared_ptr<trace::TraceRing> trace_ring;
  std::shared_ptr<const trace::ServingTraceMetrics> trace_metrics;
  std::shared_ptr<logging::Logger> access_log;
  std::uint64_t slow_query_micros = 0;
  /// Non-null when `serve --state-dir` is in effect: sessions route
  /// mutations (load/unload) through it, and the quota gate records
  /// every charge/denial durably before the response leaves.
  std::shared_ptr<service::DurableState> durable;
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// `wakeup` must be callable from any thread for as long as any
  /// Connection or its in-flight pool tasks exist (the owning poller
  /// hands out a closure that posts to its loop, dropped once that loop
  /// has stopped). `linger` is the owning poller's linger set: on an
  /// orderly close the destructor parks the fd there so the final
  /// flushed response survives pipelined input (see linger.h); nullptr
  /// falls back to a plain close.
  Connection(UniqueFd fd, std::uint64_t id, const ServeContext& context,
             std::shared_ptr<AdmissionController> admission,
             std::function<void()> wakeup, std::size_t max_frame_payload,
             std::shared_ptr<LingerSet> linger = nullptr);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_.get(); }
  std::uint64_t id() const { return id_; }

  /// EPOLLIN/EPOLLOUT interest on the socket. 0 = nothing to wait for
  /// (the connection is finished or fully blocked on workers).
  std::uint32_t Interest() const;

  /// Network-thread entry points, driven by socket readiness.
  void OnReadable();
  void OnWritable();

  /// Moves completed responses (in FIFO order) into the write buffer and
  /// writes what the socket accepts. Called on each worker wakeup.
  void Pump();

  /// Enters drain: stop reading, let admitted work finish, flush, close.
  void BeginDrain();

  /// True when the connection can be destroyed: socket dead, or draining
  /// /EOF with every slot answered and flushed. May be true while a pool
  /// task still runs (the task keeps *this alive via shared_ptr).
  bool Finished() const;

  /// The session, exposed so the listener can install the STATS handler.
  service::ServeSession& session() { return session_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// The frame's one clock: a steady_clock reading per pipeline
  /// boundary, each taken exactly once. PublishTrace turns consecutive
  /// readings into spans, so the spans partition `read`..flushed. A
  /// default (epoch) reading marks a boundary the frame never crossed.
  struct FrameClock {
    Clock::time_point read;        ///< Socket readable (decode starts).
    Clock::time_point decoded;     ///< Frame complete, or decode failed.
    Clock::time_point admitted;    ///< Admission decided.
    Clock::time_point exec_start;  ///< A worker picked the frame up.
    Clock::time_point ready;       ///< Response available to send.
  };

  struct Slot {
    std::string request;   ///< Cleared when handed to a worker.
    std::string response;  ///< Encoded payload, valid once done (unless
                           ///< typed_pending).
    /// Shed/goodbye slots never reach the session, so they carry a
    /// typed Response instead of encoded bytes; the network thread
    /// encodes it with the session's negotiated codec when the slot
    /// reaches the front of the FIFO — by which point every earlier
    /// request (and therefore any HELLO codec switch) has executed, so
    /// the codec is exactly the one the client expects at that point in
    /// the stream.
    service::Response typed;
    bool typed_pending = false;
    bool done = false;
    bool dispatched = false;
    bool admitted = false;  ///< Shed slots never touched the executor.
    /// The clock and the trace are written by the network thread before
    /// dispatch (identity, read/decoded/admitted) and by the worker
    /// during Execute (exec_start/ready, the session's encode span and
    /// identity); the network thread reads them back only after
    /// observing `done` under mu_, so the hand-off needs no extra
    /// synchronisation.
    FrameClock clock;
    trace::RequestTrace trace;
  };

  /// Decodes and admits every complete frame buffered so far. Network
  /// thread only.
  void ProcessDecodedFrames();

  /// Dispatches the next undispatched slot to the pool if no slot is
  /// executing. Must NOT be called with mu_ held (a 1-thread pool runs
  /// the task inline).
  void MaybeDispatch();

  /// Worker-side: runs `slot`'s payload through the session.
  void Execute(const std::shared_ptr<Slot>& slot);

  /// Encodes `slot`'s response (typed or pre-encoded) and appends one
  /// response frame to the write buffer, stamps the response identity,
  /// and moves the trace onto the pending-flush queue.
  /// Pump calls it while walking slots_, so it runs under mu_ even
  /// though the write buffer itself is network-thread-only.
  void EnqueueResponseFrame(Slot& slot) REQUIRES(mu_);

  /// Writes as much buffered output as the socket accepts.
  void FlushWrites();

  /// Publishes every pending trace whose response bytes have fully
  /// left the socket. Network thread only.
  void FinalizeFlushedTraces();

  /// Derives `finished`'s spans and total from `clock` and the flush
  /// time, then records it: metrics, ring (if any), access log (if any).
  void PublishTrace(const FrameClock& clock, Clock::time_point flushed,
                    trace::RequestTrace& finished);

  const std::uint64_t id_;
  UniqueFd fd_;
  ServeContext context_;
  std::shared_ptr<AdmissionController> admission_;
  const std::function<void()> wakeup_;
  const std::shared_ptr<LingerSet> linger_;
  service::ServeSession session_;
  FrameDecoder decoder_;

  // --- network-thread-only state ---
  std::string write_buffer_;
  std::size_t write_offset_ = 0;
  bool read_eof_ = false;
  bool draining_ = false;
  bool dead_ = false;        ///< Socket error; discard everything.
  bool sent_decode_error_ = false;
  /// When the current OnReadable pass pulled its bytes off the socket:
  /// the `read` reading of every frame decoded in that pass.
  Clock::time_point read_start_;
  /// Traces whose response frames sit in the write buffer, FIFO. Each
  /// publishes (flush span = ready -> last byte accepted by the kernel)
  /// once `bytes_flushed_` reaches its cumulative byte target. Dropped
  /// unpublished if the connection dies mid-flush.
  struct PendingTrace {
    std::uint64_t target_bytes = 0;
    FrameClock clock;
    trace::RequestTrace trace;
  };
  std::deque<PendingTrace> pending_flush_;
  std::uint64_t bytes_enqueued_ = 0;  ///< Response bytes ever buffered.
  std::uint64_t bytes_flushed_ = 0;   ///< Response bytes ever sent.

  // --- cross-thread state (guarded by mu_) ---
  mutable sync::Mutex mu_;
  std::deque<std::shared_ptr<Slot>> slots_ GUARDED_BY(mu_);
  bool executing_ GUARDED_BY(mu_) = false;
  bool quit_seen_ GUARDED_BY(mu_) = false;
  /// Admitted slots not yet done.
  int admitted_inflight_ GUARDED_BY(mu_) = 0;
};

}  // namespace net
}  // namespace dpcube

#endif  // DPCUBE_NET_CONNECTION_H_
