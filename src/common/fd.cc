// Copyright 2026 The dpcube Authors.

#include "common/fd.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <string>

namespace dpcube {

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<Pipe> MakePipe() {
  int fds[2] = {-1, -1};
#if defined(__linux__)
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe2: ") + ::strerror(errno));
  }
#else
  if (::pipe(fds) != 0) {
    return Status::Internal(std::string("pipe: ") + ::strerror(errno));
  }
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
#endif
  Pipe pipe;
  pipe.read_end.reset(fds[0]);
  pipe.write_end.reset(fds[1]);
  DPCUBE_RETURN_NOT_OK(SetNonBlocking(pipe.read_end.get()));
  // The write end is non-blocking too so a signal handler or worker
  // thread can never block on a full pipe (a full pipe is already a
  // pending wakeup).
  DPCUBE_RETURN_NOT_OK(SetNonBlocking(pipe.write_end.get()));
  return pipe;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Internal(std::string("fcntl O_NONBLOCK: ") +
                            ::strerror(errno));
  }
  return Status::OK();
}

bool WriteWakeByte(int fd) {
  for (;;) {
    const char byte = 1;
    const ssize_t n = ::write(fd, &byte, 1);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the pipe already holds a wakeup; that is success.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace dpcube
