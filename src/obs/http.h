#ifndef ABITMAP_OBS_HTTP_H_
#define ABITMAP_OBS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "util/status.h"

/// Minimal embedded HTTP/1.1 server for live observability — the serving
/// half of src/obs. Deliberately tiny and dependency-free: loopback only
/// (binds 127.0.0.1, never a routable interface), GET/HEAD only, exact
/// path routing, one connection serviced at a time on one serving thread,
/// bounded request size and kernel accept backlog, per-connection receive
/// timeout. That is exactly enough for a Prometheus scraper, a health
/// checker, and a trace download — not a general web server. The
/// concurrent query frontend lives in serve/server.h; both sit on the
/// shared socket hardening in util/net.h (loopback binds, MSG_NOSIGNAL
/// sends, clamped receive timeouts).
///
/// HandleObsGet() is the one table of observability endpoints, served by
/// this server and by the query port of serve::QueryServer:
///   GET /metrics          Prometheus exposition of the stats snapshot
///   GET /stats.json       JSON snapshot (obs::ToJson)
///   GET /healthz          "ok\n" liveness probe
///   GET /traces.json      Chrome Trace Event JSON of the span ring
///   GET /slow.json        retained slow-query records (obs/slowlog.h)
///   GET /timeseries.json  periodic metric samples (obs/timeseries.h)
/// All serve clean payloads in an -DAB_DISABLE_STATS=ON build (zeroed
/// metrics with an "off" build-info label, empty disabled rings).

namespace abitmap {
namespace obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The response for GET `path` from the endpoint table above; 404 for
/// any other path.
HttpResponse HandleObsGet(const std::string& path);

/// Splits an HTTP/1.1 request line ("GET /metrics?x=1 HTTP/1.1") into
/// its method and path, dropping any query string from the path. False
/// when the line lacks the two separating spaces. The one request-line
/// parser of this server and serve::QueryServer.
bool ParseRequestLine(const std::string& line, std::string* method,
                      std::string* path);

/// Serializes a complete HTTP/1.1 response: status line, Content-Type,
/// Content-Length and Connection: close, then the body. A HEAD response
/// (`head` true) carries the same headers as GET and no body.
std::string RenderHttpResponse(const HttpResponse& response, bool head);

class HttpServer {
 public:
  struct Options {
    uint16_t port = 0;         ///< 0 = ephemeral (read back via port())
    int backlog = 16;          ///< kernel accept queue bound
    size_t max_request_bytes = 8192;
    int recv_timeout_ms = 2000;  ///< must be positive; values < 1 clamp to 1
  };

  HttpServer();  ///< default Options
  explicit HttpServer(Options options);
  ~HttpServer();  ///< calls Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:port, starts listening, and spawns the serving
  /// thread. FailedPrecondition on socket/bind errors (e.g. port in use).
  util::Status Start();

  /// Stops accepting, joins the serving thread, closes the socket.
  /// Idempotent; in-flight responses finish first.
  void Stop();

  /// The bound port (the chosen one when Options::port was 0). Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread serve_thread_;
};

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_HTTP_H_
