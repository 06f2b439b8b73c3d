// Copyright 2026 The dpcube Authors.
//
// RAII ownership of POSIX file descriptors, shared by the network
// subsystem (sockets), the CLI's signal plumbing, the WAL and the text
// file codec. A
// UniqueFd is to `int fd` what unique_ptr is to a raw pointer: move-only,
// closes on destruction, and makes every ownership transfer explicit —
// the historical fd bugs (double close, leak on early return, close of a
// still-polled descriptor) become type errors instead of code review
// findings.

#ifndef DPCUBE_COMMON_FD_H_
#define DPCUBE_COMMON_FD_H_

#include <cstddef>
#include <utility>

#include "common/status.h"

namespace dpcube {

class UniqueFd {
 public:
  UniqueFd() = default;
  /// Takes ownership of `fd` (-1 means empty).
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int release() { return std::exchange(fd_, -1); }

  /// Closes the held descriptor (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// A pipe with both ends owned, O_CLOEXEC, and both ends non-blocking —
/// the shape a self-pipe wakeup (the shutdown-signal pipe) needs.
/// Holding both ends in one object means a late writer can never hit
/// EPIPE: the read end lives as long as the write end does.
struct Pipe {
  UniqueFd read_end;
  UniqueFd write_end;
};

/// Creates a Pipe as above. Failure carries errno text.
Result<Pipe> MakePipe();

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Writes one byte to `fd`, ignoring EAGAIN (a full pipe is already a
/// pending wakeup). Async-signal-safe. Returns false only on a real
/// error.
bool WriteWakeByte(int fd);

/// Writes all `size` bytes to a blocking `fd`, retrying short writes and
/// EINTR. Returns false on the first real error, with errno set.
bool WriteAll(int fd, const char* data, std::size_t size);

}  // namespace dpcube

#endif  // DPCUBE_COMMON_FD_H_
