// Copyright 2026 The dpcube Authors.
//
// The numeric text codec behind the data and release files: a line
// reader over fixed-size read(2) chunks, strict std::from_chars parsers,
// and a buffered fd writer whose doubles print exactly as printf's
// "%.17g" (std::to_chars, general format, precision 17). Neither side
// holds a whole file: the reader keeps one chunk, grown only for a line
// longer than it, and the writer one chunk of pending output.

#ifndef DPCUBE_COMMON_TEXT_FILE_H_
#define DPCUBE_COMMON_TEXT_FILE_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/fd.h"
#include "common/status.h"

namespace dpcube {
namespace text {

/// Bytes per read(2) and per write(2).
inline constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

/// Parses all of `s` as a decimal integer that fits in T: digits only,
/// no sign, space or trailing byte. `*out` is untouched on failure.
template <typename T>
bool ParseUint(std::string_view s, T* out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Parses all of `s` as a double, rounded correctly: an optional '-',
/// then a decimal or exponent form, "inf" or "nan". No '+', space,
/// trailing byte, or value outside the double range.
inline bool ParseDouble(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Reads a file line by line.
class LineReader {
 public:
  /// Opens `path`; NotFound "cannot open '<path>'" when it cannot.
  static Result<LineReader> Open(const std::string& path);

  /// Sets `*line` to the next line without its "\n" or "\r\n" and
  /// returns true; the last line needs no newline. Returns false at the
  /// end of the file or on a read error (see status()). The view stays
  /// valid until the next call.
  bool Next(std::string_view* line);

  /// OK unless a read failed.
  const Status& status() const { return status_; }

  /// 1-based number of the line Next last returned.
  std::size_t line_number() const { return line_number_; }

  /// The file's size when opened; 0 if it is not a regular file.
  std::uint64_t file_size() const { return file_size_; }

 private:
  LineReader(UniqueFd fd, std::string path, std::uint64_t file_size);

  UniqueFd fd_;
  std::string path_;
  std::uint64_t file_size_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;    // Start of the unread bytes in buf_.
  std::size_t scanned_ = 0;  // Bytes after begin_ known to hold no '\n'.
  std::size_t end_ = 0;
  bool eof_ = false;
  std::size_t line_number_ = 0;
  Status status_;
};

/// Writes a file through one chunk-sized buffer. Errors are sticky:
/// after a failed write the appends are dropped, and Close reports it.
class FileWriter {
 public:
  /// Creates or truncates `path`; NotFound "cannot open '<path>' for
  /// writing" when it cannot.
  static Result<FileWriter> Create(const std::string& path);

  void Append(std::string_view s);
  void AppendChar(char c) {
    Room(1);
    buf_[size_++] = c;
  }
  void AppendUint(std::uint64_t v) {
    Room(20);
    size_ = static_cast<std::size_t>(
        std::to_chars(buf_.data() + size_, buf_.data() + buf_.size(), v).ptr -
        buf_.data());
  }
  /// `v` exactly as printf's "%.17g", which reads back bit-identical.
  void AppendDouble17(double v) {
    Room(32);
    size_ = static_cast<std::size_t>(
        std::to_chars(buf_.data() + size_, buf_.data() + buf_.size(), v,
                      std::chars_format::general, 17)
            .ptr -
        buf_.data());
  }

  /// Flushes and closes the file. Internal "write to '<path>' failed:
  /// <reason>" if any write, the final flush or close failed. A writer
  /// destroyed without Close discards its buffer.
  Status Close();

 private:
  FileWriter(UniqueFd fd, std::string path);

  void Room(std::size_t n) {
    if (buf_.size() - size_ < n) Flush();
  }
  void Flush();

  UniqueFd fd_;
  std::string path_;
  std::vector<char> buf_;
  std::size_t size_ = 0;
  int error_ = 0;  // errno of the first failure.
};

}  // namespace text
}  // namespace dpcube

#endif  // DPCUBE_COMMON_TEXT_FILE_H_
