// Copyright 2026 The dpcube Authors.
//
// The serving workloads' client side: the `dpcube serve` child process,
// and an open-loop load generator. One generator thread drives every
// connection from a precomputed arrival schedule; each request is timed
// from its *intended* send time, so a server stall is charged to every
// request queued behind it, and the generator's own lateness (actual
// minus intended send) is measured so a starved client is never passed
// off as server latency.

#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/spans.h"
#include "net/framing.h"

namespace perfbench {

// Splits this process's CPUs: the last for the generator thread, the
// rest for the server. False when there are fewer than two.
bool SplitCpus(std::vector<int>* server, int* generator);
void PinCurrentThread(const std::vector<int>& cpus);

// One idle-priority (SCHED_IDLE) spinning thread per CPU in `cpus`, for
// the object's lifetime. On a shared VM a halted vCPU can take
// milliseconds to be scheduled again when work arrives for it; keeping
// the server's CPUs from halting makes a wake-up a guest context switch,
// so the benchmark measures dpcube rather than the host's scheduler. A
// spinner yields to every normal thread at once.
class KeepAwake {
 public:
  explicit KeepAwake(const std::vector<int>& cpus);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// `dpcube serve --listen` as a child process. The destructor stops it
// (SIGTERM, then SIGKILL) and waits until it has exited.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `bin serve <args>` with its output in `log_path` and waits for
  // the listening banner; fills the TCP and HTTP ports.
  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  // Returns the exit status (or -1); safe to call more than once.
  int Stop();

  // CPUs the next Start() confines the server to (empty = all).
  void set_cpus(std::vector<int> cpus) { server_cpus_ = std::move(cpus); }
  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int http_port() const { return http_port_; }

 private:
  std::vector<int> server_cpus_;
  pid_t pid_ = -1;
  int port_ = 0;
  int http_port_ = 0;
};

struct PlannedRequest {
  double offset_s = 0.0;  ///< Intended send time from the phase start.
  int conn = 0;
  std::string frame;      ///< Length-prefixed text request payload.
  /// The expected response lines, one per query in the frame.
  std::vector<const std::string*> expect;
};

struct RequestOutcome {
  bool answered = false;
  bool ok = false;     ///< Answered, not shed, and correct.
  bool busy = false;   ///< Shed with BUSY.
  bool wrong = false;  ///< Answered with something other than expected.
  double latency_us = 0.0;  ///< Intended send -> response received.
  double service_us = 0.0;  ///< Actual send -> response received.
  double lag_us = 0.0;      ///< Actual send - intended send.
};

struct PhaseResult {
  std::vector<RequestOutcome> outcomes;  ///< In schedule order.
  std::string first_wrong;               ///< First mismatch, if any.
};

// Checks one text response payload against its expected lines.
void CheckPayload(const std::string& payload,
                  const std::vector<const std::string*>& expect,
                  RequestOutcome* outcome, std::string* why);

// The generator's connections, all in the text codec.
class Connections {
 public:
  Connections() = default;
  ~Connections();
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  bool Open(int port, int count, std::string* error);
  // Closed loop, for set-up: sends one payload on `conn` and waits for
  // its response payload.
  bool Call(int conn, const std::string& payload, std::string* response,
            double timeout_s = 30.0);

  // Open loop: sends `plan` on its schedule, starting now, and collects
  // every response until all are in or `drain_s` after the last send.
  // With an enabled recorder each request gets a root span ("request",
  // intended -> response) and a child ("client.lag", intended -> send).
  PhaseResult Run(const std::vector<PlannedRequest>& plan, double drain_s,
                  SpanRecorder* spans);

 private:
  std::vector<int> fds_;
  std::vector<dpcube::net::FrameDecoder> decoders_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
