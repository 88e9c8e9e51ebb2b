#include "client.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/net.h"

namespace perfbench {

namespace net = abitmap::util::net;
namespace serve = abitmap::serve;

namespace {

constexpr int kRecvTimeoutMs = 10000;
constexpr size_t kMaxResponseBytes = 64u << 20;

}  // namespace

BinaryClient::~BinaryClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool BinaryClient::Connect(uint16_t port) {
  abitmap::util::StatusOr<int> fd = net::ConnectLoopback(port);
  if (!fd.ok()) return false;
  fd_ = fd.value();
  net::SetNoDelay(fd_);
  net::SetRecvTimeout(fd_, kRecvTimeoutMs);
  return true;
}

bool BinaryClient::RoundTrip(const std::string& frame,
                             serve::QueryResponse* out) {
  if (fd_ < 0 || !net::SendAll(fd_, frame.data(), frame.size())) return false;
  char chunk[65536];
  for (;;) {
    size_t consumed = 0;
    serve::DecodeStatus st = serve::DecodeResponseFrame(
        reinterpret_cast<const uint8_t*>(buffer_.data()), buffer_.size(),
        kMaxResponseBytes, out, &consumed);
    if (st == serve::DecodeStatus::kOk) {
      buffer_.erase(0, consumed);
      return true;
    }
    if (st == serve::DecodeStatus::kMalformed) return false;
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool HttpCall(uint16_t port, const std::string& method,
              const std::string& path, const std::string& body,
              HttpReply* out) {
  abitmap::util::StatusOr<int> fd = net::ConnectLoopback(port);
  if (!fd.ok()) return false;
  int sock = fd.value();
  net::SetNoDelay(sock);
  net::SetRecvTimeout(sock, kRecvTimeoutMs);
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  bool ok = net::SendAll(sock, request.data(), request.size());
  std::string reply;
  char chunk[65536];
  while (ok) {
    ssize_t n = ::read(sock, chunk, sizeof(chunk));
    if (n < 0) ok = false;
    if (n <= 0) break;
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(sock);
  size_t header_end = reply.find("\r\n\r\n");
  if (!ok || header_end == std::string::npos ||
      reply.compare(0, 9, "HTTP/1.1 ") != 0) {
    return false;
  }
  out->status = std::atoi(reply.c_str() + 9);
  out->body = reply.substr(header_end + 4);
  return true;
}

std::string InsertBody(const std::vector<std::vector<double>>& rows) {
  std::string out = "{\"rows\":[";
  char buf[32];
  for (size_t r = 0; r < rows.size(); ++r) {
    out += r == 0 ? "[" : ",[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", c == 0 ? "" : ",",
                    rows[r][c]);
      out += buf;
    }
    out += "]";
  }
  out += "]}";
  return out;
}

bool ParseInsertRowIds(const std::string& body, std::vector<uint64_t>* ids) {
  ids->clear();
  if (body.find("\"status\":\"ok\"") == std::string::npos) return false;
  size_t pos = body.find("\"rows\":[");
  if (pos == std::string::npos) return false;
  const char* p = body.c_str() + pos + 8;
  while (*p != ']') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return false;
    ids->push_back(v);
    p = end;
    if (*p == ',') ++p;
  }
  return true;
}

std::map<std::string, double> ParsePrometheus(const std::string& body) {
  std::map<std::string, double> out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    if (space == std::string::npos || line.find('{') < space) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                             nullptr);
  }
  return out;
}

}  // namespace perfbench
