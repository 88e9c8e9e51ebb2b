#include "obs/http.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/export.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "obs/timeseries.h"
#include "util/net.h"

namespace abitmap {
namespace obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Error";
  }
}

/// Sends one response. util::net::SendAll sends MSG_NOSIGNAL: a peer that
/// hangs up mid-response (scrape timeout, aborted curl) surfaces as
/// EPIPE, not a SIGPIPE killing the embedding process.
void WriteResponse(int fd, const HttpResponse& response, bool head) {
  std::string bytes = RenderHttpResponse(response, head);
  util::net::SendAll(fd, bytes.data(), bytes.size());
}

}  // namespace

HttpResponse HandleObsGet(const std::string& path) {
  const char* kJson = "application/json";
  if (path == "/healthz") {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (path == "/metrics") {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        ToPrometheus(SnapshotStats())};
  }
  if (path == "/stats.json") {
    return HttpResponse{200, kJson, ToJson(SnapshotStats())};
  }
  if (path == "/traces.json") {
    return HttpResponse{200, kJson, SpansToChromeJson()};
  }
  if (path == "/slow.json") return HttpResponse{200, kJson, SlowLogToJson()};
  if (path == "/timeseries.json") {
    return HttpResponse{200, kJson, TimeSeriesToJson()};
  }
  return HttpResponse{404, "text/plain", "not found\n"};
}

std::string RenderHttpResponse(const HttpResponse& response, bool head) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head) out += response.body;
  return out;
}

HttpServer::HttpServer() : HttpServer(Options()) {}

HttpServer::HttpServer(Options options) : options_(options) {}

HttpServer::~HttpServer() { Stop(); }

util::Status HttpServer::Start() {
  if (running()) {
    return util::Status::FailedPrecondition("HttpServer already started");
  }
  util::StatusOr<int> fd =
      util::net::ListenLoopback(options_.port, options_.backlog, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  serve_thread_ = std::thread([this]() { ServeLoop(); });
  return util::Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (serve_thread_.joinable()) serve_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool ParseRequestLine(const std::string& line, std::string* method,
                      std::string* path) {
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  *method = line.substr(0, sp1);
  *path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t query = path->find('?');
  if (query != std::string::npos) path->resize(query);
  return true;
}

void HttpServer::ServeLoop() {
  // Connections are serviced serially: the endpoint payloads are small
  // and cheap (snapshot + render), so one slow reader can delay — but
  // never overload — the process. The accept loop polls with a short
  // timeout so Stop() is honoured within ~100 ms.
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // SetRecvTimeout clamps to >= 1 ms: a silent client must not park the
    // single serving thread in read() forever.
    util::net::SetRecvTimeout(conn, options_.recv_timeout_ms);
    HandleConnection(conn);
    ::close(conn);
  }
}

void HttpServer::HandleConnection(int fd) {
  AB_SPAN("http/request");
  std::string raw;
  char buf[1024];
  // Read until the end of the header block; the endpoints take no bodies.
  while (raw.find("\r\n\r\n") == std::string::npos) {
    if (raw.size() >= options_.max_request_bytes) {
      WriteResponse(fd, HttpResponse{431, "text/plain", "too large\n"},
                    /*head=*/false);
      return;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // timeout or close before a full request
    }
    raw.append(buf, static_cast<size_t>(n));
  }

  std::string method, path;
  if (!ParseRequestLine(raw.substr(0, raw.find("\r\n")), &method, &path)) {
    WriteResponse(fd, HttpResponse{400, "text/plain", "bad request\n"},
                  /*head=*/false);
    return;
  }

  if (method != "GET" && method != "HEAD") {
    WriteResponse(fd,
                  HttpResponse{405, "text/plain", "method not allowed\n"},
                  /*head=*/false);
    return;
  }
  WriteResponse(fd, HandleObsGet(path), method == "HEAD");
}

}  // namespace obs
}  // namespace abitmap
