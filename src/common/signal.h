// Copyright 2026 The dpcube Authors.
//
// Self-pipe shutdown signalling for the serving CLI: SIGINT/SIGTERM
// handlers that do the only async-signal-safe thing — write one byte to
// a pipe — so the server's event loop observes the request as a readable
// fd and can drain in-flight work before exiting, instead of dying
// mid-response.

#ifndef DPCUBE_COMMON_SIGNAL_H_
#define DPCUBE_COMMON_SIGNAL_H_

#include "common/status.h"

namespace dpcube {

/// Installs SIGINT and SIGTERM handlers that write to an internal
/// self-pipe, and returns the pipe's read end (watch it for readability; do
/// not close it — the process owns it for its lifetime). Idempotent:
/// repeated calls return the same fd. The handlers replace any previous
/// disposition for those two signals.
Result<int> InstallShutdownSignalFd();

/// True once a handled shutdown signal has been delivered.
bool ShutdownRequested();

/// Which signal triggered the shutdown (0 if none yet).
int ShutdownSignalNumber();

}  // namespace dpcube

#endif  // DPCUBE_COMMON_SIGNAL_H_
