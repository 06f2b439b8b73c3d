// Copyright 2026 The dpcube Authors.

#include "common/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace dpcube {
namespace wal {

namespace {

std::string ErrnoText(const char* op, const std::string& path) {
  return std::string(op) + " '" + path + "': " + std::strerror(errno);
}

void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

const std::uint32_t* Crc32Table() {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// CRC input is the LSN (little-endian) concatenated with the payload,
/// so a record copied byte-for-byte to a different log position still
/// fails verification.
std::uint32_t RecordCrc(std::uint64_t lsn, std::string_view payload) {
  std::string seed;
  seed.reserve(8);
  PutU64(&seed, lsn);
  std::uint32_t crc = ~Crc32(seed.data(), seed.size());
  // Continue the running CRC over the payload without re-finalizing —
  // equivalent to Crc32(seed || payload) without copying the payload.
  const std::uint32_t* table = Crc32Table();
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(payload.data());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  const std::uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string EncodeRecord(std::uint64_t lsn, std::string_view payload) {
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&out, kRecordMagic);
  PutU32(&out, static_cast<std::uint32_t>(payload.size()));
  PutU64(&out, lsn);
  PutU32(&out, RecordCrc(lsn, payload));
  out.append(payload.data(), payload.size());
  return out;
}

Result<ReplayResult> ReplayChangelog(
    const std::string& path,
    const std::function<void(std::uint64_t lsn, std::string_view payload)>&
        apply) {
  auto contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  const std::string& data = *contents;
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(data.data());

  ReplayResult result;
  result.file_bytes = data.size();
  std::size_t offset = 0;
  while (data.size() - offset >= kRecordHeaderBytes) {
    const unsigned char* h = base + offset;
    if (GetU32(h) != kRecordMagic) break;
    const std::uint32_t payload_len = GetU32(h + 4);
    if (payload_len > kMaxRecordPayload) break;
    if (data.size() - offset - kRecordHeaderBytes < payload_len) break;
    const std::uint64_t lsn = GetU64(h + 8);
    const std::uint32_t crc = GetU32(h + 16);
    std::string_view payload(data.data() + offset + kRecordHeaderBytes,
                             payload_len);
    if (RecordCrc(lsn, payload) != crc) break;
    apply(lsn, payload);
    result.records += 1;
    result.last_lsn = lsn;
    offset += kRecordHeaderBytes + payload_len;
  }
  result.valid_bytes = offset;
  return result;
}

Result<std::shared_ptr<Changelog>> Changelog::Open(
    std::string path, std::uint64_t next_lsn,
    std::shared_ptr<metrics::LatencyHistogram> fsync_hist) {
  int raw = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                   0644);
  if (raw < 0) return Status::Internal(ErrnoText("open", path));
  UniqueFd fd(raw);
  return std::shared_ptr<Changelog>(new Changelog(
      std::move(path), std::move(fd), next_lsn, std::move(fsync_hist)));
}

Result<std::uint64_t> Changelog::Append(std::string_view payload) {
  if (payload.size() > kMaxRecordPayload) {
    return Status::InvalidArgument("wal record payload too large");
  }
  sync::MutexLock lock(&append_mu_);
  const std::uint64_t lsn = next_lsn_.load(std::memory_order_relaxed);
  const std::string record = EncodeRecord(lsn, payload);
  if (!WriteAll(fd_.get(), record.data(), record.size())) {
    return Status::Internal(ErrnoText("write", path_));
  }
  next_lsn_.store(lsn + 1, std::memory_order_release);
  last_appended_.store(lsn, std::memory_order_release);
  return lsn;
}

Status Changelog::Sync(std::uint64_t lsn) {
  // Hand-over-hand locking (the group-commit leader drops sync_mu_
  // around the fdatasync) is written as explicit Lock()/Unlock() pairs
  // so the thread-safety analysis checks every path's pairing instead
  // of being escaped around.
  sync_mu_.Lock();
  for (;;) {
    if (last_synced_ >= lsn) {
      sync_mu_.Unlock();
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    sync_cv_.Wait(sync_mu_);
  }
  // This thread becomes the group-commit leader: fsync everything
  // appended so far, covering every waiter whose LSN predates the call.
  sync_in_progress_ = true;
  const std::uint64_t covered = last_appended_.load(std::memory_order_acquire);
  sync_mu_.Unlock();

  const auto start = std::chrono::steady_clock::now();
  int rc;
  do {
    rc = ::fdatasync(fd_.get());
  } while (rc < 0 && errno == EINTR);
  const int saved_errno = errno;
  if (fsync_hist_) {
    fsync_hist_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }

  sync_mu_.Lock();
  sync_in_progress_ = false;
  if (rc == 0 && covered > last_synced_) last_synced_ = covered;
  sync_cv_.SignalAll();
  if (rc != 0) {
    sync_mu_.Unlock();
    errno = saved_errno;
    return Status::Internal(ErrnoText("fdatasync", path_));
  }
  // A failed leader leaves last_synced_ untouched; waiters loop and one
  // of them retries the fsync.
  const bool covered_caller = last_synced_ >= lsn;
  sync_mu_.Unlock();
  if (!covered_caller) return Sync(lsn);
  return Status::OK();
}

Status MakeDirs(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  partial.reserve(dir.size());
  std::size_t i = 0;
  while (i < dir.size()) {
    std::size_t next = dir.find('/', i + 1);
    if (next == std::string::npos) next = dir.size();
    partial.assign(dir, 0, next);
    if (!partial.empty() && partial != "/") {
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::Internal(ErrnoText("mkdir", partial));
      }
    }
    i = next;
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::Internal("'" + dir + "' exists but is not a directory");
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::Internal(ErrnoText("opendir", dir));
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    struct dirent* entry = ::readdir(d);
    if (entry == nullptr) break;
    const char* name = entry->d_name;
    if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) continue;
    names.emplace_back(name);
  }
  ::closedir(d);
  return names;
}

Result<std::string> ReadFile(const std::string& path) {
  int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("'" + path + "' not found");
    return Status::Internal(ErrnoText("open", path));
  }
  UniqueFd fd(raw);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoText("read", path));
    }
    if (n == 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  return data;
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  int raw =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (raw < 0) return Status::Internal(ErrnoText("open", tmp));
  {
    UniqueFd fd(raw);
    if (!WriteAll(fd.get(), data.data(), data.size())) {
      Status st = Status::Internal(ErrnoText("write", tmp));
      ::unlink(tmp.c_str());
      return st;
    }
    int rc;
    do {
      rc = ::fsync(fd.get());
    } while (rc < 0 && errno == EINTR);
    if (rc != 0) {
      Status st = Status::Internal(ErrnoText("fsync", tmp));
      ::unlink(tmp.c_str());
      return st;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::Internal(ErrnoText("rename", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  return FsyncDir(dir);
}

Status FsyncDir(const std::string& dir) {
  int raw = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (raw < 0) return Status::Internal(ErrnoText("open", dir));
  UniqueFd fd(raw);
  int rc;
  do {
    rc = ::fsync(fd.get());
  } while (rc < 0 && errno == EINTR);
  if (rc != 0) return Status::Internal(ErrnoText("fsync", dir));
  return Status::OK();
}

Status TruncateFile(const std::string& path, std::uint64_t size) {
  int rc;
  do {
    rc = ::truncate(path.c_str(), static_cast<off_t>(size));
  } while (rc < 0 && errno == EINTR);
  if (rc != 0) return Status::Internal(ErrnoText("truncate", path));
  return Status::OK();
}

}  // namespace wal
}  // namespace dpcube
