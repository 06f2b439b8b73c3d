// Copyright 2026 The dpcube Authors.

#include "harness/scrape.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <sstream>

namespace perfbench {

Series ParsePrometheus(const std::string& text) {
  Series series;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The key ends at the first space outside the label braces.
    std::size_t end = 0;
    bool in_braces = false;
    for (; end < line.size(); ++end) {
      if (line[end] == '{') in_braces = true;
      if (line[end] == '}') in_braces = false;
      if (line[end] == ' ' && !in_braces) break;
    }
    if (end == 0 || end >= line.size()) continue;
    const char* value_text = line.c_str() + end + 1;
    char* parsed_end = nullptr;
    const double value = std::strtod(value_text, &parsed_end);
    if (parsed_end == value_text) continue;
    series[line.substr(0, end)] = value;
  }
  return series;
}

double SeriesValue(const Series& series, const std::string& key) {
  const auto it = series.find(key);
  return it == series.end() ? 0.0 : it->second;
}

SumCount HistogramSumCount(const Series& series, const std::string& family,
                           const std::string& labels) {
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  SumCount out;
  out.sum = SeriesValue(series, family + "_sum" + suffix);
  out.count = SeriesValue(series, family + "_count" + suffix);
  return out;
}

SumCount Delta(const SumCount& after, const SumCount& before) {
  return SumCount{after.sum - before.sum, after.count - before.count};
}

bool HttpGet(int port, const std::string& path, std::string* body,
             double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0;
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (ok && sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) sent += static_cast<std::size_t>(n);
  }
  std::string response;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  char buf[65536];
  while (ok) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      ok = false;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // The server closed after the response.
    response.append(buf, static_cast<std::size_t>(n));
    const std::size_t head_end = response.find("\r\n\r\n");
    const std::size_t length_at = response.find("Content-Length: ");
    if (head_end != std::string::npos && length_at != std::string::npos &&
        length_at < head_end &&
        response.size() >= head_end + 4 + std::strtoull(
            response.c_str() + length_at + 16, nullptr, 10)) {
      break;
    }
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (!ok || response.rfind("HTTP/1.", 0) != 0 ||
      response.compare(8, 5, " 200 ") != 0 ||
      split == std::string::npos) {
    return false;
  }
  *body = response.substr(split + 4);
  return true;
}

}  // namespace perfbench
