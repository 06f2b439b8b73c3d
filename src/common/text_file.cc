// Copyright 2026 The dpcube Authors.

#include "common/text_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dpcube {
namespace text {

Result<LineReader> LineReader::Open(const std::string& path) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) return Status::NotFound("cannot open '" + path + "'");
  struct stat st;
  const std::uint64_t size =
      ::fstat(fd.get(), &st) == 0 && S_ISREG(st.st_mode)
          ? static_cast<std::uint64_t>(st.st_size)
          : 0;
  return LineReader(std::move(fd), path, size);
}

LineReader::LineReader(UniqueFd fd, std::string path, std::uint64_t file_size)
    : fd_(std::move(fd)),
      path_(std::move(path)),
      file_size_(file_size),
      buf_(kChunkBytes) {}

bool LineReader::Next(std::string_view* line) {
  if (!status_.ok()) return false;
  for (;;) {
    char* data = buf_.data();
    const char* nl = static_cast<const char*>(std::memchr(
        data + begin_ + scanned_, '\n', end_ - begin_ - scanned_));
    if (nl == nullptr && !eof_) {
      // Carry the partial line to the front, grow only if it fills the
      // whole buffer, then read the next chunk after it.
      scanned_ = end_ - begin_;
      std::memmove(data, data + begin_, scanned_);
      end_ = scanned_;
      begin_ = 0;
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
      const ssize_t n = ::read(fd_.get(), buf_.data() + end_,
                               buf_.size() - end_);
      if (n < 0) {
        if (errno == EINTR) continue;
        status_ = Status::Internal("read '" + path_ +
                                   "': " + std::strerror(errno));
        return false;
      }
      if (n == 0) eof_ = true;
      end_ += static_cast<std::size_t>(n);
      continue;
    }
    if (nl == nullptr && begin_ == end_) return false;
    const std::size_t stop =
        nl != nullptr ? static_cast<std::size_t>(nl - data) : end_;
    std::size_t length = stop - begin_;
    if (length > 0 && data[stop - 1] == '\r') --length;
    *line = std::string_view(data + begin_, length);
    begin_ = nl != nullptr ? stop + 1 : end_;
    scanned_ = 0;
    ++line_number_;
    return true;
  }
}

Result<FileWriter> FileWriter::Create(const std::string& path) {
  UniqueFd fd(
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (!fd.valid()) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  return FileWriter(std::move(fd), path);
}

FileWriter::FileWriter(UniqueFd fd, std::string path)
    : fd_(std::move(fd)), path_(std::move(path)), buf_(kChunkBytes) {}

void FileWriter::Append(std::string_view s) {
  while (!s.empty()) {
    Room(1);
    const std::size_t n = std::min(s.size(), buf_.size() - size_);
    std::memcpy(buf_.data() + size_, s.data(), n);
    size_ += n;
    s.remove_prefix(n);
  }
}

void FileWriter::Flush() {
  if (size_ > 0 && error_ == 0 && !WriteAll(fd_.get(), buf_.data(), size_)) {
    error_ = errno;
  }
  size_ = 0;
}

Status FileWriter::Close() {
  Flush();
  if (::close(fd_.release()) != 0 && error_ == 0) error_ = errno;
  if (error_ != 0) {
    return Status::Internal("write to '" + path_ +
                            "' failed: " + std::strerror(error_));
  }
  return Status::OK();
}

}  // namespace text
}  // namespace dpcube
