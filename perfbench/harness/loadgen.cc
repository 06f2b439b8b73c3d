// Copyright 2026 The dpcube Authors.

#include "harness/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/oracle.h"

namespace perfbench {

namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Parses "...<key>127.0.0.1:PORT..." from `text`; 0 when absent.
int PortAfter(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key + "127.0.0.1:");
  if (at == std::string::npos) return 0;
  return std::atoi(text.c_str() + at + key.size() + 10);
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      if (errno == EAGAIN) SleepMs(1);
      continue;
    }
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::string> SplitLines(const std::string& payload) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    lines.push_back(payload.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

// ------------------------------------------------------------ server

KeepAwake::KeepAwake(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinCurrentThread({cpu});
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

bool SplitCpus(std::vector<int>* server, int* generator) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return false;
  *generator = cpus.back();
  cpus.pop_back();
  *server = cpus;
  return true;
}

void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

bool ServerProcess::Start(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  std::vector<std::string> argv_store = {bin, "serve"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::unlink(log_path.c_str());  // Never read a previous server's banner.
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // The child dies with the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    if (!server_cpus_.empty()) PinCurrentThread(server_cpus_);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  // Wait for the banner: "listening on 127.0.0.1:PORT (... http=...)".
  for (int waited_ms = 0; waited_ms < 60000; waited_ms += 1) {
    std::ifstream log(log_path);
    std::stringstream text;
    text << log.rdbuf();
    const std::string s = text.str();
    // Only a complete banner line counts.
    port_ = s.find(")\n", s.find("listening on ")) != std::string::npos
                ? PortAfter(s, "listening on ")
                : 0;
    if (port_ > 0) {
      http_port_ = PortAfter(s, "http=");
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited before listening: " + s.substr(0, 400);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *error = "server did not start listening within 60s";
  Stop();
  return false;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int waited_ms = 0; waited_ms < 15000; waited_ms += 5) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return status;
    }
    SleepMs(5);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return -1;
}

// ------------------------------------------------------------ checking

void CheckPayload(const std::string& payload,
                  const std::vector<const std::string*>& expect,
                  RequestOutcome* outcome, std::string* why) {
  outcome->answered = true;
  if (payload.rfind("BUSY", 0) == 0) {
    outcome->busy = true;
    return;
  }
  const std::vector<std::string> lines = SplitLines(payload);
  if (lines.size() != expect.size()) {
    outcome->wrong = true;
    *why = "expected " + std::to_string(expect.size()) +
           " response lines, got " + std::to_string(lines.size()) + ": " +
           payload.substr(0, 120);
    return;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("BUSY", 0) == 0) {
      outcome->busy = true;
      return;
    }
    if (!MatchesText(lines[i], *expect[i], why)) {
      outcome->wrong = true;
      return;
    }
  }
  outcome->ok = true;
}

// ------------------------------------------------------------ connections

Connections::~Connections() {
  for (const int fd : fds_) ::close(fd);
}

bool Connections::Open(int port, int count, std::string* error) {
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = "socket failed";
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds_.push_back(fd);
    decoders_.emplace_back();
  }
  return true;
}

bool Connections::Call(int conn, const std::string& payload,
                       std::string* response, double timeout_s) {
  const int fd = fds_[conn];
  if (!WriteAll(fd, dpcube::net::EncodeFrame(payload))) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  char buf[65536];
  while (std::chrono::steady_clock::now() < deadline) {
    switch (decoders_[conn].Pop(response)) {
      case dpcube::net::FrameDecoder::Next::kFrame:
        return true;
      case dpcube::net::FrameDecoder::Next::kError:
        return false;
      case dpcube::net::FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      decoders_[conn].Append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      return false;
    } else if (errno == EAGAIN || errno == EINTR) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      return false;
    }
  }
  return false;
}

PhaseResult Connections::Run(const std::vector<PlannedRequest>& plan,
                             double drain_s, SpanRecorder* spans) {
  PhaseResult result;
  result.outcomes.resize(plan.size());
  const std::size_t n = plan.size();
  const std::size_t conns = fds_.size();

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t c = 0; c < conns; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fds_[c], &ev);
  }
  std::vector<std::string> out(conns);
  std::vector<std::size_t> out_offset(conns, 0);
  std::vector<bool> want_write(conns, false);
  std::vector<bool> dead(conns, false);
  std::vector<std::deque<std::size_t>> inflight(conns);
  std::vector<std::int64_t> intended_ns(n), sent_ns(n);

  auto now_ns = [] { return SpanRecorder::NowNs(); };
  auto set_write_interest = [&](std::size_t c, bool on) {
    if (want_write[c] == on) return;
    want_write[c] = on;
    epoll_event ev{};
    ev.events = on ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, fds_[c], &ev);
  };
  auto flush = [&](std::size_t c) {
    while (out_offset[c] < out[c].size()) {
      const ssize_t w = ::send(fds_[c], out[c].data() + out_offset[c],
                               out[c].size() - out_offset[c], MSG_NOSIGNAL);
      if (w > 0) {
        out_offset[c] += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        if (w < 0 && errno != EAGAIN) dead[c] = true;
        break;
      }
    }
    if (out_offset[c] == out[c].size()) {
      out[c].clear();
      out_offset[c] = 0;
    }
    set_write_interest(c, !out[c].empty() && !dead[c]);
  };

  std::size_t next = 0;
  std::size_t answered = 0;
  const std::int64_t start_ns = now_ns() + 1000000;  // 1 ms lead.
  for (std::size_t i = 0; i < n; ++i) {
    intended_ns[i] = start_ns + static_cast<std::int64_t>(plan[i].offset_s * 1e9);
  }
  const std::int64_t last_ns = n > 0 ? intended_ns[n - 1] : start_ns;
  const std::int64_t drain_deadline =
      last_ns + static_cast<std::int64_t>(drain_s * 1e9);
  std::string payload;
  std::string why;
  char buf[1 << 16];
  epoll_event events[16];

  while (true) {
    std::int64_t now = now_ns();
    while (next < n && intended_ns[next] <= now) {
      const std::size_t c = static_cast<std::size_t>(plan[next].conn);
      sent_ns[next] = now;
      if (dead[c]) {
        ++answered;  // Fails unanswered.
      } else {
        out[c] += plan[next].frame;
        inflight[c].push_back(next);
        flush(c);
      }
      ++next;
      now = now_ns();
    }
    if (answered >= n) break;
    if (next >= n && now > drain_deadline) break;

    // Never sleep: the generator has a CPU of its own, and on a shared VM
    // an idle vCPU can take milliseconds to be scheduled again, which
    // would show up as generator lag.
    const int ready = ::epoll_wait(epfd, events, 16, 0);
    for (int e = 0; e < ready; ++e) {
      const std::size_t c = events[e].data.u64;
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      while (true) {
        const ssize_t r = ::recv(fds_[c], buf, sizeof(buf), 0);
        if (r > 0) {
          decoders_[c].Append(buf, static_cast<std::size_t>(r));
          if (static_cast<std::size_t>(r) < sizeof(buf)) break;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r == 0 || (r < 0 && errno != EAGAIN)) dead[c] = true;
        break;
      }
      const std::int64_t received = now_ns();
      while (decoders_[c].Pop(&payload) ==
             dpcube::net::FrameDecoder::Next::kFrame) {
        if (inflight[c].empty()) {  // A response nobody asked for.
          if (result.first_wrong.empty()) {
            result.first_wrong = "unsolicited response: " + payload.substr(0, 80);
          }
          continue;
        }
        const std::size_t i = inflight[c].front();
        inflight[c].pop_front();
        RequestOutcome& o = result.outcomes[i];
        why.clear();
        CheckPayload(payload, plan[i].expect, &o, &why);
        if (o.wrong && result.first_wrong.empty()) result.first_wrong = why;
        o.latency_us = static_cast<double>(received - intended_ns[i]) * 1e-3;
        o.service_us = static_cast<double>(received - sent_ns[i]) * 1e-3;
        o.lag_us = static_cast<double>(sent_ns[i] - intended_ns[i]) * 1e-3;
        ++answered;
        if (spans->enabled()) {
          const std::uint64_t root =
              spans->Add("request", 0, intended_ns[i], received);
          spans->Add("client.lag", root, intended_ns[i], sent_ns[i]);
        }
      }
      if (dead[c]) {
        answered += inflight[c].size();  // Lost with the connection.
        inflight[c].clear();
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, fds_[c], nullptr);
      }
    }
  }
  ::close(epfd);
  // Requests still in flight at the deadline stay unanswered; their
  // connections are out of step now, so a later phase must reconnect.
  for (std::size_t i = 0; i < n; ++i) {
    if (!result.outcomes[i].answered) {
      result.outcomes[i].lag_us =
          static_cast<double>(sent_ns[i] - intended_ns[i]) * 1e-3;
    }
  }
  return result;
}

}  // namespace perfbench
